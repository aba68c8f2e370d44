//===- observe/PoolMetrics.h - Scheduler stats via the registry -*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bridges the work-stealing pool's counters (runtime/Stats.h) into the
/// metric registry and formats them back out. This is the single code
/// path behind `bench/fig8 --stats`, `parsynt --runtime-stats`, and the
/// `pool.*` section of the run report: the snapshot is absorbed into
/// registry counters under one name prefix, and every printed line is
/// rendered from those registry values — the human formats and the JSON
/// report cannot drift apart.
///
/// Metric names (DESIGN.md §5e): `pool.spawns`, `pool.executed`,
/// `pool.steals`, `pool.steal_fails`, `pool.parks`, `pool.inlined`,
/// `pool.leaf.count`, `pool.leaf.nanos`, `pool.join.count`,
/// `pool.join.nanos`.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_OBSERVE_POOLMETRICS_H
#define PARSYNT_OBSERVE_POOLMETRICS_H

#include "observe/Metrics.h"
#include "runtime/Stats.h"

#include <cstdio>
#include <string>

namespace parsynt {

/// Adds \p S's aggregate counters to \p R under \p Prefix. Counters are
/// monotone adds, so absorbing successive snapshots of a long-lived pool
/// requires resetting the pool's stats between absorptions (the drivers
/// already do, per run).
inline void absorbPoolStats(MetricsRegistry &R, const StatsSnapshot &S,
                            const std::string &Prefix = "pool") {
  R.counter(Prefix + ".spawns").add(S.Total.Spawned);
  R.counter(Prefix + ".executed").add(S.Total.Executed);
  R.counter(Prefix + ".steals").add(S.Total.Stolen);
  R.counter(Prefix + ".steal_fails").add(S.Total.StealFails);
  R.counter(Prefix + ".parks").add(S.Total.Parks);
  R.counter(Prefix + ".inlined").add(S.Total.Inlined);
  if (S.TimingEnabled) {
    R.counter(Prefix + ".leaf.count").add(S.LeafCount);
    R.counter(Prefix + ".leaf.nanos").add(S.LeafNanos);
    R.counter(Prefix + ".join.count").add(S.JoinCount);
    R.counter(Prefix + ".join.nanos").add(S.JoinNanos);
  }
}

/// The one-line totals summary, rendered from registry values. Layout is
/// the historical `StatsSnapshot::summary()` format:
///   spawns=N steals=N steal-fails=N parks=N [inlined=N]
///   [ leaves=N (X ms) joins=N (Y ms)]
inline std::string formatPoolSummary(const MetricsRegistry::Snapshot &M,
                                     const std::string &Prefix = "pool") {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "spawns=%llu steals=%llu steal-fails=%llu parks=%llu",
                (unsigned long long)M.counterOr0(Prefix + ".spawns"),
                (unsigned long long)M.counterOr0(Prefix + ".steals"),
                (unsigned long long)M.counterOr0(Prefix + ".steal_fails"),
                (unsigned long long)M.counterOr0(Prefix + ".parks"));
  std::string S = Buf;
  uint64_t Inlined = M.counterOr0(Prefix + ".inlined");
  if (Inlined) { // only under injected allocation failure
    std::snprintf(Buf, sizeof(Buf), " inlined=%llu",
                  (unsigned long long)Inlined);
    S += Buf;
  }
  uint64_t Leaves = M.counterOr0(Prefix + ".leaf.count");
  uint64_t Joins = M.counterOr0(Prefix + ".join.count");
  if (Leaves || Joins) {
    std::snprintf(Buf, sizeof(Buf),
                  " leaves=%llu (%.2f ms) joins=%llu (%.3f ms)",
                  (unsigned long long)Leaves,
                  M.counterOr0(Prefix + ".leaf.nanos") / 1e6,
                  (unsigned long long)Joins,
                  M.counterOr0(Prefix + ".join.nanos") / 1e6);
    S += Buf;
  }
  return S;
}

/// Summary line for one snapshot: absorbed into a scratch registry, then
/// rendered by formatPoolSummary — the same path the JSON report takes
/// through the global registry.
inline std::string poolSummary(const StatsSnapshot &S) {
  MetricsRegistry Scratch;
  absorbPoolStats(Scratch, S);
  return formatPoolSummary(Scratch.snapshot());
}

/// Full per-worker table (historical `StatsSnapshot::table()` layout).
/// Per-worker rows come from the snapshot (the registry intentionally
/// holds only aggregates); the total row and the timing line are rendered
/// from absorbed registry values so they match the summary and the report.
inline std::string poolTable(const StatsSnapshot &S) {
  MetricsRegistry Scratch;
  absorbPoolStats(Scratch, S);
  MetricsRegistry::Snapshot M = Scratch.snapshot();

  std::string Out;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "%-8s %10s %10s %10s %12s %8s %8s\n",
                "worker", "spawned", "executed", "stolen", "steal-fails",
                "parks", "inlined");
  Out += Buf;
  for (size_t I = 0; I != S.Workers.size(); ++I) {
    const WorkerStatsRow &W = S.Workers[I];
    // The trailing "external" row only exists for unregistered threads;
    // in the common single-caller case Workers.size() == pool size and
    // the last dedicated worker keeps its wN label. (Appending to "w"
    // rather than writing "w" + to_string(I) sidesteps a GCC 12 -Wrestrict
    // false positive where this is inlined.)
    std::string Label = "w";
    Label += std::to_string(I);
    if (I == 0)
      Label = "caller";
    else if (I + 1 == S.Workers.size() && S.ExternalRow)
      Label = "external";
    std::snprintf(Buf, sizeof(Buf),
                  "%-8s %10llu %10llu %10llu %12llu %8llu %8llu\n",
                  Label.c_str(), (unsigned long long)W.Spawned,
                  (unsigned long long)W.Executed, (unsigned long long)W.Stolen,
                  (unsigned long long)W.StealFails,
                  (unsigned long long)W.Parks, (unsigned long long)W.Inlined);
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf),
                "%-8s %10llu %10llu %10llu %12llu %8llu %8llu\n", "total",
                (unsigned long long)M.counterOr0("pool.spawns"),
                (unsigned long long)M.counterOr0("pool.executed"),
                (unsigned long long)M.counterOr0("pool.steals"),
                (unsigned long long)M.counterOr0("pool.steal_fails"),
                (unsigned long long)M.counterOr0("pool.parks"),
                (unsigned long long)M.counterOr0("pool.inlined"));
  Out += Buf;
  if (S.TimingEnabled) {
    std::snprintf(Buf, sizeof(Buf),
                  "leaves: %llu in %.3f ms; joins: %llu in %.3f ms\n",
                  (unsigned long long)M.counterOr0("pool.leaf.count"),
                  M.counterOr0("pool.leaf.nanos") / 1e6,
                  (unsigned long long)M.counterOr0("pool.join.count"),
                  M.counterOr0("pool.join.nanos") / 1e6);
    Out += Buf;
  }
  return Out;
}

} // namespace parsynt

#endif // PARSYNT_OBSERVE_POOLMETRICS_H
