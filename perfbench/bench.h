//===- perfbench/bench.h - Shared pieces of the repository benchmark -----===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The benchmark binary measures and checks; it prints one raw JSON document
// (every sample, no statistics) that run.py reduces to the reported
// metrics. See perfbench/README.md for the workloads and the metric map.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "observe/Tracer.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  unsigned Threads = 1; ///< nproc: the parallel runs' thread count
};

inline double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double cpuNow() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return double(T.tv_sec) + double(T.tv_nsec) * 1e-9;
}

/// One operation's outcome in the error-rate accounting.
struct Ops {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< first few reasons, for the log

  void record(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    ++Failed;
    if (Failures.size() < 20)
      Failures.push_back(What);
  }
};

/// One program run sequentially, then through the runtime at 1 thread and
/// at nproc threads. Reps holds each repetition's back-to-back {seq, par1,
/// parN} wall seconds and the process CPU seconds all three took. Shared by
/// the native kernels and the interpreted synthesized loops.
struct ProgramSamples {
  std::string Name;
  double Elements = 0;
  double Bytes = 0; ///< computed input bytes one run reads
  std::vector<std::array<double, 4>> Reps;
  /// Scheduler counters of each nproc-thread run: spawns, steals,
  /// steal_fails, parks, inlined.
  std::vector<std::array<uint64_t, 5>> Pool;
  /// referenceSeconds(nproc) run just before each repetition (native
  /// kernels only).
  std::vector<double> Refs;
};

/// One synthesis pass: parse -> parallelize -> proof -> emit over every
/// loop of the workload.
struct PassSample {
  bool Traced = false;
  double Wall = 0; ///< sum of LoopWall
  double Cpu = 0;  ///< process CPU seconds of the loops
  std::map<std::string, double> Layers; ///< per-layer seconds and sizes
  /// Wall seconds of each loop's parse -> parallelize -> proof -> emit.
  std::map<std::string, double> LoopWall;
  /// referenceSeconds(1) run before the first loop and after every loop.
  std::vector<double> Refs;
};

/// What one loop synthesized to, with its exact counters.
struct LoopRecord {
  std::string Name;
  std::string Join;
  std::map<std::string, uint64_t> Counters;
  bool Stable = true; ///< join and counters equal on every pass
};

struct Probe {
  double ReadGbs1 = 0, ReadGbsN = 0, CpuScale = 0;
};

/// Everything a run measured; serialized by main.cpp.
struct RunData {
  std::vector<double> SetupSeconds;
  Ops Operations;
  std::vector<PassSample> Passes;
  std::vector<LoopRecord> Loops;
  std::vector<ProgramSamples> Programs;
  std::vector<Probe> Probes;
  /// Parallel time of one traced sweep over the kernels (run-kernels),
  /// divided by the untraced sweep to give trace.overhead.
  double TracedSweep = 0;
  /// The wrong-join self-test: its own accounting, never mixed into
  /// Operations.
  Ops SelfTest;
  std::map<std::string, double> SelfSeconds; ///< per span category
  double PoolLeafSeconds = 0, PoolJoinSeconds = 0;
  uint64_t ArrayBytes = 0;
};

/// Keeps \p Threads threads spinning for \p Seconds. On a shared virtual
/// host, CPUs left idle through a single-threaded phase come back slowly:
/// parallel runs started cold got one core's worth of throughput for
/// seconds. Called before the first timed parallel run, like a cache
/// warm-up.
void warmUp(unsigned Threads, double Seconds);
constexpr double WarmUpSeconds = 2;

/// Runs a fixed amount of interpreter-like work that uses nothing from
/// src/, once on each of \p Threads threads at the same time, and returns
/// the wall seconds it took. The metrics divide program times by it, so a
/// host that runs everything slower for a while moves them less.
double referenceSeconds(unsigned Threads);

/// Sums, per category, each span's duration minus the part of it its
/// children cover, over every span recorded since the last tracer reset.
void addSelfTimes(const std::vector<parsynt::TraceEvent> &Events,
                  std::map<std::string, double> &Out);

void runSynthWorkload(const Options &O, const std::vector<std::string> &Loops,
                      const std::string &SelfTestLoop, RunData &D);
void runKernelWorkload(const Options &O, RunData &D);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
