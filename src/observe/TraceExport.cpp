//===- observe/TraceExport.cpp - Trace file + phase-report export ---------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "observe/TraceExport.h"
#include "observe/Metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

namespace parsynt {

bool writeTraceFile(const std::string &Path, std::string *Error) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    if (Error)
      *Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  bool Ok = writeChromeTrace(F, Tracer::instance().drain());
  if (std::fclose(F) != 0)
    Ok = false;
  if (!Ok && Error)
    *Error = "write to '" + Path + "' failed";
  return Ok;
}

std::vector<PhaseRow> aggregatePhases(const std::vector<TraceEvent> &Events) {
  // Span id -> category, for the entry-span test (a span is a phase entry
  // when its parent is absent or categorized differently).
  std::map<uint64_t, const char *> CategoryOf;
  for (const TraceEvent &E : Events)
    CategoryOf[E.SpanId] = E.Category;

  std::map<std::string, PhaseRow> Rows;
  for (const TraceEvent &E : Events) {
    PhaseRow &R = Rows[E.Category];
    if (R.Category.empty())
      R.Category = E.Category;
    ++R.SpanCount;
    auto Parent = CategoryOf.find(E.ParentId);
    bool Entry = Parent == CategoryOf.end() ||
                 std::strcmp(Parent->second, E.Category) != 0;
    if (Entry)
      R.WallNanos += E.EndNs - E.StartNs;
  }

  std::vector<PhaseRow> Out;
  for (auto &KV : Rows)
    Out.push_back(std::move(KV.second));
  std::sort(Out.begin(), Out.end(), [](const PhaseRow &A, const PhaseRow &B) {
    return A.WallNanos > B.WallNanos;
  });
  return Out;
}

std::string phaseReport(const std::vector<TraceEvent> &Events) {
  std::string Out;
  char Buf[256];
  if (Events.empty())
    return "phase report: no spans recorded (tracing off?)\n";

  std::snprintf(Buf, sizeof(Buf), "%-12s %12s %8s\n", "phase", "wall (ms)",
                "spans");
  Out += Buf;
  for (const PhaseRow &R : aggregatePhases(Events)) {
    std::snprintf(Buf, sizeof(Buf), "%-12s %12.3f %8llu\n",
                  R.Category.c_str(), R.WallNanos / 1e6,
                  (unsigned long long)R.SpanCount);
    Out += Buf;
  }

  std::vector<const TraceEvent *> ByDuration;
  ByDuration.reserve(Events.size());
  for (const TraceEvent &E : Events)
    ByDuration.push_back(&E);
  std::sort(ByDuration.begin(), ByDuration.end(),
            [](const TraceEvent *A, const TraceEvent *B) {
              return (A->EndNs - A->StartNs) > (B->EndNs - B->StartNs);
            });
  Out += "hottest spans:\n";
  size_t N = std::min<size_t>(5, ByDuration.size());
  for (size_t I = 0; I != N; ++I) {
    const TraceEvent &E = *ByDuration[I];
    std::snprintf(Buf, sizeof(Buf), "  %-28s %-10s %12.3f ms\n", E.Name,
                  E.Category, (E.EndNs - E.StartNs) / 1e6);
    Out += Buf;
  }
  return Out;
}

namespace {

/// The join search's split from the metric registry's synth counters:
/// wall time in enumeration (and the serial in-order merge inside it),
/// sketch evaluation and the oracle, the share of combinations and
/// assignments in work large enough to run on the task pool, the bodies
/// the sketch sweeps ran, and the combinations the scans of the free
/// grammar's last level walked. Empty when no join search ran.
std::string joinSearchSplit(const MetricsRegistry::Snapshot &Metrics) {
  auto Get = [&](const char *Name) { return Metrics.counterOr0(Name); };
  if (Get("synth.calls") == 0)
    return "";
  auto Share = [](uint64_t Part, uint64_t Total) {
    return Total ? 100.0 * static_cast<double>(Part) /
                       static_cast<double>(Total)
                 : 0.0;
  };
  char Buf[256];
  std::string Out = "join search split:\n";
  std::snprintf(Buf, sizeof(Buf),
                "  %-28s %10.3f ms\n  %-28s %10.3f ms\n  %-28s %10.3f ms\n"
                "  %-28s %10.3f ms\n",
                "enumerate", Get("synth.join.enumerate_ns") / 1e6,
                "  in-order merge", Get("synth.enum.merge_ns") / 1e6,
                "sketch-eval", Get("synth.join.sketch_ns") / 1e6,
                "oracle/validate", Get("synth.join.oracle_ns") / 1e6);
  Out += Buf;
  uint64_t Combinations = Get("synth.enum.combinations");
  uint64_t Assignments = Get("synth.sketch.assignments");
  std::snprintf(Buf, sizeof(Buf),
                "  %-28s %llu of %llu (%.1f%%)\n  %-28s %llu of %llu "
                "(%.1f%%)\n  %-28s %llu of %llu assignments (%.1f%%)\n",
                "pool-sized combinations",
                (unsigned long long)Get("synth.enum.combinations_parallel"),
                (unsigned long long)Combinations,
                Share(Get("synth.enum.combinations_parallel"), Combinations),
                "pool-sized assignments",
                (unsigned long long)Get("synth.sketch.assignments_parallel"),
                (unsigned long long)Assignments,
                Share(Get("synth.sketch.assignments_parallel"), Assignments),
                "bodies run", (unsigned long long)Get("synth.sketch.evaluated"),
                (unsigned long long)Assignments,
                Share(Get("synth.sketch.evaluated"), Assignments));
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "  %-28s %llu combinations\n",
                "last-level scan",
                (unsigned long long)Get("synth.enum.scanned"));
  Out += Buf;
  return Out;
}

} // namespace

std::string phaseReport() {
  return phaseReport(Tracer::instance().drain()) +
         joinSearchSplit(MetricsRegistry::global().snapshot());
}

} // namespace parsynt
