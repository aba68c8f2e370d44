//===- perfbench/kernels.cpp - The run-kernels workload -------------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The native Figure-8 kernels at 2^26 elements and grain 50k: each
// repetition runs one kernel's sequential original, then parallelReduce at
// 1 and at nproc threads, back to back, so contention hits all three alike
// and the per-repetition ratios stay meaningful. Between kernels the run
// probes the host: a STREAM-style read over an array of at least four times
// the last-level cache at 1 and nproc threads, and a register-only compute
// loop whose nproc/1 throughput ratio shows how many cores the run really
// had.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "runtime/ParallelReduce.h"
#include "suite/Benchmarks.h"
#include "suite/Kernels.h"

#include <algorithm>
#include <malloc.h>
#include <thread>
#include <unistd.h>

using namespace parsynt;

namespace perfbench {
namespace {

constexpr size_t Elements = size_t(1) << 26;
constexpr size_t Grain = 50000; // the paper's grain size
constexpr unsigned MinReps = 2;
constexpr unsigned SetupReps = 3;
constexpr uint64_t ComputeIters = uint64_t(1) << 25;

/// Keeps the probes' sums observable so their loops are not dropped.
volatile int64_t ProbeSink = 0;

uint64_t llcBytes() {
  long V = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (V <= 0)
    V = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return V > 0 ? uint64_t(V) : 0;
}

/// Runs Fn(ThreadIndex) on \p Threads fresh threads and returns the wall
/// time until all have finished.
template <typename Fn> double onThreads(unsigned Threads, Fn &&Body) {
  double Start = now();
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&Body, T] { Body(T); });
  for (std::thread &W : Workers)
    W.join();
  return now() - Start;
}

/// Read bandwidth in GB/s over all of \p A, split evenly over \p Threads.
double readGbs(const std::vector<int64_t> &A, unsigned Threads,
               int64_t &Sink) {
  std::vector<int64_t> Partial(Threads);
  const size_t Chunk = A.size() / Threads;
  double Seconds = onThreads(Threads, [&](unsigned T) {
    size_t Begin = T * Chunk;
    size_t End = T + 1 == Threads ? A.size() : Begin + Chunk;
    int64_t Sum = 0;
    for (size_t I = Begin; I != End; ++I)
      Sum += A[I];
    Partial[T] = Sum;
  });
  for (int64_t P : Partial)
    Sink += P;
  return double(A.size() * sizeof(int64_t)) / Seconds * 1e-9;
}

/// Register-only xorshift iterations per second over \p Threads threads.
double computeRate(unsigned Threads, uint64_t Seed, int64_t &Sink) {
  std::vector<uint64_t> Partial(Threads);
  double Seconds = onThreads(Threads, [&](unsigned T) {
    uint64_t X = Seed + T + 1;
    for (uint64_t I = 0; I != ComputeIters; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
    }
    Partial[T] = X;
  });
  for (uint64_t P : Partial)
    Sink += int64_t(P & 1);
  return double(Threads) * double(ComputeIters) / Seconds;
}

Probe probeHost(const std::vector<int64_t> &Arena, unsigned Threads,
                uint64_t Seed, int64_t &Sink) {
  Probe P;
  P.ReadGbs1 = readGbs(Arena, 1, Sink);
  P.ReadGbsN = readGbs(Arena, Threads, Sink);
  P.CpuScale = computeRate(Threads, Seed, Sink) / computeRate(1, Seed, Sink);
  return P;
}

/// Copies a group's inputs to the front of the arena: A at offset 0 and,
/// when a kernel of the group reads two sequences, B at offset Elements.
void load(const std::vector<const NativeKernel *> &Group, uint64_t Seed,
          std::vector<int64_t> &Arena) {
  InputKind Kind = Group.front()->Kind;
  {
    std::vector<int64_t> A = generateInput(Kind, Elements, Seed);
    std::copy(A.begin(), A.end(), Arena.begin());
  }
  if (std::any_of(Group.begin(), Group.end(),
                  [](const NativeKernel *K) { return K->TwoSequences; })) {
    std::vector<int64_t> B = generateInput(Kind, Elements, ~Seed);
    std::copy(B.begin(), B.end(), Arena.begin() + Elements);
  }
}

/// One back-to-back {seq, par1, parN} repetition of \p K. Returns whether
/// both parallel outputs equal the sequential one.
bool runRep(const NativeKernel &K, const int64_t *A, const int64_t *B,
            TaskPool &Pool1, TaskPool &PoolN, ProgramSamples &Out) {
  auto Leaf = [&](size_t Begin, size_t End) {
    return K.Leaf(A, B, Begin, End);
  };
  auto Join = [&](const KState &L, const KState &R) { return K.Join(L, R); };
  const BlockedRange Range{0, Elements, Grain};
  Out.Refs.push_back(referenceSeconds(PoolN.threadCount()));
  double T0 = now(), Cpu0 = cpuNow();
  int64_t Seq;
  {
    Span S("perfbench.kernel_seq", trace::Runtime);
    Seq = K.Output(K.Sequential(A, B, Elements));
  }
  double T1 = now();
  int64_t Par1;
  {
    Span S("perfbench.kernel_par", trace::Runtime);
    Par1 = K.Output(parallelReduce<KState>(Range, Pool1, Leaf, Join));
  }
  double T2 = now();
  PoolN.resetStats();
  int64_t ParN;
  {
    Span S("perfbench.kernel_par", trace::Runtime);
    ParN = K.Output(parallelReduce<KState>(Range, PoolN, Leaf, Join));
  }
  double T3 = now();
  StatsSnapshot Snap = PoolN.statsSnapshot();
  Out.Reps.push_back({T1 - T0, T2 - T1, T3 - T2, cpuNow() - Cpu0});
  Out.Pool.push_back({Snap.Total.Spawned, Snap.Total.Stolen,
                      Snap.Total.StealFails, Snap.Total.Parks,
                      Snap.Total.Inlined});
  return Par1 == Seq && ParN == Seq;
}

} // namespace

void runKernelWorkload(const Options &O, RunData &D) {
  // Kernels grouped by input kind, groups in order of first appearance in
  // Table 1: each group's inputs are generated once, and its kernels'
  // repetitions interleave, so a burst of contention from other tenants
  // hits one repetition of several kernels instead of every repetition of
  // one.
  std::vector<std::vector<const NativeKernel *>> Groups;
  for (const NativeKernel &K : nativeKernels()) {
    // length's sequential loop compiles to O(1): its ratio measures
    // nothing but the fixed cost of the grain tree.
    if (K.Name == "length")
      continue;
    auto It = std::find_if(Groups.begin(), Groups.end(), [&](const auto &G) {
      return G.front()->Kind == K.Kind;
    });
    if (It == Groups.end())
      Groups.push_back({&K});
    else
      It->push_back(&K);
  }
  size_t KernelCount = 0;
  for (const auto &G : Groups)
    KernelCount += G.size();

  const size_t ArenaElements =
      std::max<size_t>(4 * llcBytes() / sizeof(int64_t), 2 * Elements);
  D.ArrayBytes = ArenaElements * sizeof(int64_t);
  // Large blocks come from the heap and stay mapped once freed, so the
  // generator's temporary vectors reuse touched pages after set-up instead
  // of faulting 512 MiB in per group. Each set-up repetition hands the
  // memory back first and so pays the first touch again.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, -1);
  std::vector<int64_t> Arena;
  for (unsigned I = 0; I != SetupReps; ++I) {
    Arena = std::vector<int64_t>();
    malloc_trim(0);
    double T0 = now();
    for (const Benchmark &B : allBenchmarks())
      (void)parseBenchmark(B);
    Arena = std::vector<int64_t>(ArenaElements, 1); // first touch
    load(Groups.front(), O.Seed, Arena);
    D.SetupSeconds.push_back(now() - T0);
  }

  TaskPool Pool1(1), PoolN(O.Threads);
  warmUp(O.Threads, WarmUpSeconds);
  int64_t Sink = 0;
  for (size_t GI = 0; GI != Groups.size(); ++GI) {
    const auto &Group = Groups[GI];
    D.Probes.push_back(probeHost(Arena, O.Threads, O.Seed, Sink));
    if (GI != 0)
      load(Group, O.Seed, Arena);
    const int64_t *A = Arena.data(), *B = Arena.data() + Elements;

    std::vector<ProgramSamples> Progs(Group.size());
    for (size_t KI = 0; KI != Group.size(); ++KI) {
      const NativeKernel &K = *Group[KI];
      Progs[KI].Name = K.Name;
      Progs[KI].Elements = double(Elements);
      Progs[KI].Bytes =
          double(Elements * sizeof(int64_t) * (K.TwoSequences ? 2 : 1));
    }
    const double Budget = O.Seconds * double(Group.size()) / KernelCount;
    const double Start = now();
    for (unsigned Rep = 0; Rep < MinReps || now() - Start < Budget; ++Rep)
      for (size_t KI = 0; KI != Group.size(); ++KI)
        D.Operations.record(runRep(*Group[KI], A,
                                   Group[KI]->TwoSequences ? B : nullptr,
                                   Pool1, PoolN, Progs[KI]),
                            Group[KI]->Name + ": parallel output differs "
                                              "from the sequential loop");
    if (O.Trace) {
      // One more repetition of each kernel with spans and pool leaf/join
      // timing on.
      Tracer::setEnabled(true);
      PoolN.setTimingEnabled(true);
      for (const NativeKernel *K : Group) {
        ProgramSamples Traced;
        runRep(*K, A, K->TwoSequences ? B : nullptr, Pool1, PoolN, Traced);
        D.TracedSweep += Traced.Reps.front()[2];
        StatsSnapshot Snap = PoolN.statsSnapshot();
        D.PoolLeafSeconds += double(Snap.LeafNanos) * 1e-9;
        D.PoolJoinSeconds += double(Snap.JoinNanos) * 1e-9;
      }
      PoolN.setTimingEnabled(false);
      Tracer::setEnabled(false);
    }
    for (ProgramSamples &P : Progs)
      D.Programs.push_back(std::move(P));
  }
  D.Probes.push_back(probeHost(Arena, O.Threads, O.Seed, Sink));
  if (O.Trace) {
    std::vector<TraceEvent> Events = Tracer::instance().drain();
    addSelfTimes(Events, D.SelfSeconds);
  }
  ProbeSink = Sink;
}

} // namespace perfbench
