//===- observe/TraceExport.h - Trace file + phase-report export -*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exporters over the process tracer (observe/Tracer.h): the Chrome /
/// Perfetto JSON file behind `parsynt --trace out.json`, and the human
/// `--phase-report` table (per-phase wall time, span counts, top-5
/// hottest spans). The Chrome serialization itself lives in Tracer.h so
/// emitted standalone programs can export without this library; this
/// compiled layer adds file handling, aggregation, and formatting.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_OBSERVE_TRACEEXPORT_H
#define PARSYNT_OBSERVE_TRACEEXPORT_H

#include "observe/Tracer.h"

#include <string>
#include <vector>

namespace parsynt {

/// Drains every published span and writes a Chrome-trace document to
/// \p Path. Returns false and fills \p Error on I/O failure.
bool writeTraceFile(const std::string &Path, std::string *Error = nullptr);

/// Per-category aggregate for the phase report.
struct PhaseRow {
  std::string Category;
  uint64_t SpanCount = 0;
  /// Wall nanoseconds attributed to the phase: summed over the category's
  /// *entry* spans (spans whose parent is missing or lies in a different
  /// category), so nested same-category detail is not double counted.
  uint64_t WallNanos = 0;
};

/// Aggregates \p Events by category, sorted by descending wall time.
std::vector<PhaseRow> aggregatePhases(const std::vector<TraceEvent> &Events);

/// Renders the `--phase-report` table for \p Events: one row per category
/// (wall time, span count), then the top-5 hottest individual spans.
std::string phaseReport(const std::vector<TraceEvent> &Events);

/// Convenience: phase report over the process tracer's current contents,
/// followed by the join search's split.
std::string phaseReport();

} // namespace parsynt

#endif // PARSYNT_OBSERVE_TRACEEXPORT_H
