//===- bench/micro.cpp - google-benchmark micro benchmarks ----------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Microbenchmarks for the building blocks whose throughput bounds the whole
// system: the interpreter (every synthesis oracle evaluation), the
// bottom-up enumerator, the sketch search, the rewrite engine, and the
// runtime's reduce skeleton.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "lift/Unfold.h"
#include "normalize/Normalizer.h"
#include "pipeline/Parallelizer.h"
#include "proof/ProofCheck.h"
#include "runtime/ParallelReduce.h"
#include "suite/Benchmarks.h"
#include "suite/Kernels.h"
#include "synth/Enumerator.h"
#include "synth/HomOracle.h"
#include "synth/JoinSynth.h"

#include <benchmark/benchmark.h>

using namespace parsynt;

namespace {

void BM_InterpRunLoop(benchmark::State &State) {
  Loop L = parseBenchmark(*findBenchmark("mss"));
  SeqEnv Seqs;
  std::vector<Value> Elems;
  Rng R(1);
  for (int I = 0; I != 1024; ++I)
    Elems.push_back(Value::ofInt(R.intIn(-50, 50)));
  Seqs["s"] = std::move(Elems);
  for (auto _ : State) {
    StateTuple S = runLoop(L, Seqs);
    benchmark::DoNotOptimize(S);
  }
  State.SetItemsProcessed(State.iterations() * 1024);
}
BENCHMARK(BM_InterpRunLoop);

void BM_EnumeratorGrow(benchmark::State &State) {
  // Leaf columns over 64 tests: four variables, mostly small (where
  // observational classes collide), and the constants 0 and 1.
  constexpr size_t Tests = 64;
  Rng R(2);
  std::vector<ExprRef> Leaves;
  std::vector<std::vector<int64_t>> Columns;
  for (const char *Name : {"a_l", "a_r", "b_l", "b_r"}) {
    Leaves.push_back(inputVar(Name));
    Columns.emplace_back();
    for (size_t T = 0; T != Tests; ++T)
      Columns.back().push_back(R.chance(1, 8) ? R.intIn(-1000000, 1000000)
                                              : R.intIn(-4, 4));
  }
  for (int64_t C : {0, 1}) {
    Leaves.push_back(intConst(C));
    Columns.emplace_back(Tests, C);
  }
  size_t Kept = 0;
  for (auto _ : State) {
    Enumerator E(Tests);
    for (size_t K = 0; K != Leaves.size(); ++K)
      E.addLeaf(Leaves[K], Columns[K]);
    E.growTo(static_cast<unsigned>(State.range(0)));
    benchmark::DoNotOptimize(E.totalCandidates());
    State.counters["candidates"] =
        static_cast<double>(E.totalCandidates());
    Kept += E.totalCandidates();
  }
  // Retained (observationally distinct) candidates per second.
  State.counters["candidates/s"] = benchmark::Counter(
      static_cast<double>(Kept), benchmark::Counter::kIsRate);
}
// Wall time: large levels run on the shared task pool, whose workers' CPU
// time the calling thread's clock does not see.
BENCHMARK(BM_EnumeratorGrow)->Arg(3)->Arg(5)->Arg(7)->UseRealTime();

// The sketch search alone: mts's original loop has no join over its own
// state, so synthesis sweeps every sketch tier before failing. Oracle set-up
// and enumeration are a small share; sketch assignments dominate.
void BM_SketchSearchMts(benchmark::State &State) {
  Loop L = parseBenchmark(*findBenchmark("mts"));
  uint64_t Assignments = 0;
  for (auto _ : State) {
    JoinResult R = synthesizeJoin(L);
    if (R.Success)
      State.SkipWithError("mts has no join without an auxiliary");
    Assignments += R.Stats.SketchAssignmentsTried;
  }
  State.counters["assignments/s"] = benchmark::Counter(
      static_cast<double>(Assignments), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SketchSearchMts)->Unit(benchmark::kMillisecond)->UseRealTime();

// The CEGIS validator, the proof check, on mts-p's lifted loop and join,
// synthesized once before timing: 800 sampled state pairs, each with one
// base and six step obligations.
void BM_ProofCheck(benchmark::State &State) {
  PipelineResult P = parallelizeLoop(parseBenchmark(*findBenchmark("mts-p")));
  if (!P.Success) {
    State.SkipWithError("mts-p did not parallelize");
    return;
  }
  for (auto _ : State) {
    ProofReport R = checkHomomorphismProof(P.Final, P.Join.Components);
    if (!R.Verified)
      State.SkipWithError("mts-p's join failed its proof");
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_ProofCheck)->Unit(benchmark::kMillisecond);

// The oracle on mts's lifted loop: building the initial test set. (A CEGIS
// round validates its join with the proof check, timed by BM_ProofCheck.)
void BM_OracleBuild(benchmark::State &State) {
  PipelineResult P = parallelizeLoop(parseBenchmark(*findBenchmark("mts")));
  if (!P.Success) {
    State.SkipWithError("mts did not parallelize");
    return;
  }
  for (auto _ : State) {
    HomOracle Oracle(P.Final);
    benchmark::DoNotOptimize(Oracle.tests().data());
  }
}
BENCHMARK(BM_OracleBuild)->Unit(benchmark::kMillisecond);

void BM_NormalizeMtsUnfolding(benchmark::State &State) {
  ExprRef U = unknownVar("mts@0");
  ExprRef Tau = U;
  for (int Step = 1; Step <= State.range(0); ++Step)
    Tau = maxE(add(Tau, inputVar("s@" + std::to_string(Step))), intConst(0));
  for (auto _ : State) {
    ExprRef Ell = normalizeExpr(Tau);
    benchmark::DoNotOptimize(Ell);
  }
}
BENCHMARK(BM_NormalizeMtsUnfolding)->Arg(2)->Arg(3);

// The path lifting actually takes through the generic normalizer. The
// pipeline sends mts through tropicalNormalize; line-sight's vis
// unfoldings at k = 3 fit neither canonical normal form, so they go to the
// best-first search, and two of the three stop on the stall rule,
// StallLimit expansions after their best form.
void BM_NormalizeLineSightUnfolding(benchmark::State &State) {
  Loop L = materializeIndex(parseBenchmark(*findBenchmark("line-sight")));
  const unsigned K = 3;
  Unfolding U = unfoldLoop(L, K, /*FromUnknowns=*/true);
  const std::vector<ExprRef> &Vis = U.ValuesAtStep.at("vis");
  uint64_t Expanded = 0;
  for (auto _ : State) {
    for (unsigned Step = 1; Step <= K; ++Step) {
      NormalizeStats Stats;
      ExprRef Ell = normalizeExpr(Vis[Step], {}, &Stats);
      benchmark::DoNotOptimize(Ell);
      Expanded += Stats.Expanded;
    }
  }
  State.counters["expanded"] =
      static_cast<double>(Expanded) / static_cast<double>(State.iterations());
  State.counters["expansions/s"] = benchmark::Counter(
      static_cast<double>(Expanded), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NormalizeLineSightUnfolding)->Unit(benchmark::kMillisecond);

void BM_ParallelReduceSum(benchmark::State &State) {
  const NativeKernel &K = *findKernel("sum");
  size_t N = 1 << 22;
  std::vector<int64_t> A = generateInput(K.Kind, N, 3);
  TaskPool Pool(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    KState S = parallelReduce<KState>(
        BlockedRange{0, N, 50000}, Pool,
        [&](size_t B, size_t E) { return K.Leaf(A.data(), nullptr, B, E); },
        [&](const KState &L, const KState &R) { return K.Join(L, R); });
    benchmark::DoNotOptimize(S);
  }
  State.SetBytesProcessed(State.iterations() * N * sizeof(int64_t));
}
BENCHMARK(BM_ParallelReduceSum)->Arg(1)->Arg(2)->Arg(4);

void BM_TaskPoolSpawnJoin(benchmark::State &State) {
  TaskPool Pool(4);
  for (auto _ : State) {
    TaskGroup Group;
    for (int I = 0; I != 256; ++I)
      Pool.spawn(Group, [] {});
    Pool.wait(Group);
  }
  State.SetItemsProcessed(State.iterations() * 256);
}
BENCHMARK(BM_TaskPoolSpawnJoin);

// Scheduler-overhead check: a leaf-grain sweep (trivial leaves, grain 1
// relative to a small range) where spawn/steal/park cost dominates. The
// spawn/steal/park counters are reported so scheduler regressions are
// visible directly in bench output, not just as wall time.
void BM_SchedulerOverheadFineGrain(benchmark::State &State) {
  TaskPool Pool(static_cast<unsigned>(State.range(0)));
  const size_t N = 4096;
  for (auto _ : State) {
    int64_t Sum = parallelReduce<int64_t>(
        BlockedRange{0, N, 1}, Pool,
        [](size_t B, size_t E) { return static_cast<int64_t>(E - B); },
        [](const int64_t &L, const int64_t &R) { return L + R; });
    benchmark::DoNotOptimize(Sum);
    if (Sum != static_cast<int64_t>(N))
      State.SkipWithError("wrong reduction result");
  }
  StatsSnapshot Snap = Pool.statsSnapshot();
  double Iters = static_cast<double>(std::max<int64_t>(State.iterations(), 1));
  State.counters["spawns/iter"] =
      static_cast<double>(Snap.Total.Spawned) / Iters;
  State.counters["steals/iter"] =
      static_cast<double>(Snap.Total.Stolen) / Iters;
  State.counters["parks/iter"] = static_cast<double>(Snap.Total.Parks) / Iters;
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_SchedulerOverheadFineGrain)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

} // namespace

BENCHMARK_MAIN();
