//===- observe/Report.h - Machine-readable run reports ----------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stable machine-readable run-report schema behind `parsynt --report
/// json`, `bench/table1 --report json`, and `bench/fig8 --report json`.
/// CI archives these as `BENCH_*.json` and diffs them across PRs, so the
/// schema is versioned and append-only:
///
///   {
///     "schema": "parsynt-run-report",
///     "version": 2,
///     "tool": "parsynt" | "table1" | "fig8",
///     "benchmarks": [{
///       "name": ..., "outcome": "success" | "failure",
///       "failure": {kind, message, source?},          // failures only
///       "aux_required": bool, "aux_count": n, "aux_discovered": n,
///       "sequential_fallback": bool,
///       "seeds_accepted": n,
///       "phase_seconds": {"join": s, "lift": s, "proof": s, "total": s,
///                         "failed_join": s},           // part of join
///       "metrics": {counter: delta, ...},             // per-benchmark
///       "extra": {key: number, ...}                   // driver-specific
///     }],
///     "metrics": {"counters": {...}, "gauges": {...},
///                 "histograms": {name: {count,sum,min,max}}},
///     "faults": [{"point": ..., "polls": n, "fires": n}],
///     "totals": {"benchmarks": n, "successes": n, "failures": n,
///                "total_seconds": s}
///   }
///
/// Schema evolution rule (DESIGN.md §5e): fields are added, never renamed
/// or removed, and any breaking change bumps "version".
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_OBSERVE_REPORT_H
#define PARSYNT_OBSERVE_REPORT_H

#include "observe/Metrics.h"
#include "pipeline/Parallelizer.h"
#include "support/Failure.h"

#include <string>
#include <utility>
#include <vector>

namespace parsynt {

/// One benchmark (or one CLI input) in a run report.
struct BenchmarkEntry {
  std::string Name;
  bool Success = false;
  FailureInfo Failure; ///< serialized only when non-empty
  bool AuxRequired = false;
  unsigned AuxCount = 0;
  unsigned AuxDiscovered = 0;
  bool SequentialFallback = false;
  unsigned SeedsAccepted = 0;
  double JoinSeconds = 0, LiftSeconds = 0, ProofSeconds = 0, TotalSeconds = 0;
  /// The part of JoinSeconds in synthesis calls that found no join.
  double FailedJoinSeconds = 0;
  /// Per-benchmark counter deltas (see counterDeltas()).
  std::vector<std::pair<std::string, uint64_t>> Metrics;
  /// Driver-specific numbers (fig8 speedups, element counts, ...).
  std::vector<std::pair<std::string, double>> Extra;
};

/// A whole run. toJson() additionally snapshots the global metric
/// registry and the fault injector at call time.
struct RunReport {
  static constexpr int Version = 2;
  std::string Tool = "parsynt";
  std::vector<BenchmarkEntry> Benchmarks;
  std::string toJson() const;
};

/// Builds a report entry from a pipeline result. The proof phase is the
/// final CEGIS round's proof of the join it returns, so it is part of the
/// join phase (0 when no join was accepted; the schema's phase_seconds
/// object always has all four keys).
BenchmarkEntry makeBenchmarkEntry(const std::string &Name,
                                  const PipelineResult &Result);

/// Counter deltas After - Before, dropping zero deltas — the per-benchmark
/// metrics attribution used by the bench drivers (snapshot the global
/// registry around each parallelizeLoop call).
std::vector<std::pair<std::string, uint64_t>>
counterDeltas(const MetricsRegistry::Snapshot &Before,
              const MetricsRegistry::Snapshot &After);

} // namespace parsynt

#endif // PARSYNT_OBSERVE_REPORT_H
