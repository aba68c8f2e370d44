//===- examples/balanced_parens.cpp - Section-6 walkthrough + speedup -----===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The Section-6 balanced-parentheses example end to end, finishing with a
// timed parallel run of the *native* synthesized kernel on a large input —
// a single-benchmark slice of the Figure-8 experiment.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Parallelizer.h"
#include "runtime/ParallelReduce.h"
#include "suite/Benchmarks.h"
#include "suite/Kernels.h"

#include <chrono>
#include <cstdio>

using namespace parsynt;

namespace {

double secondsOf(std::function<void()> Fn) {
  auto Start = std::chrono::steady_clock::now();
  Fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

} // namespace

int main() {
  // 1. Synthesize: the loop needs one auxiliary (the maximum of the negated
  //    prefix sums), discovered by Algorithm 1's normalize/collect steps.
  Loop L = parseBenchmark(*findBenchmark("balanced-()"));
  PipelineResult Result = parallelizeLoop(L);
  std::printf("%s\n", Result.report().c_str());
  if (!Result.Success)
    return 1;

  // 2. Run the native kernel emitted from this loop and join
  //    (src/suite/generated/) on a large string and compare against the
  //    sequential baseline.
  const NativeKernel &K = *findKernel("balanced-()");
  const size_t N = size_t(1) << 24;
  const size_t Grain = 50000; // the paper's Figure-8 grain size
  std::vector<int64_t> Input = generateInput(K.Kind, N, /*Seed=*/42);

  KState SeqState;
  double SeqTime = secondsOf(
      [&] { SeqState = K.Sequential(Input.data(), nullptr, N); });

  unsigned Cores = defaultThreadCount();
  TaskPool Pool(Cores);
  KState ParState;
  double ParTime = secondsOf([&] {
    ParState = parallelReduce<KState>(
        BlockedRange{0, N, Grain}, Pool,
        [&](size_t B, size_t E) { return K.Leaf(Input.data(), nullptr, B, E); },
        [&](const KState &A, const KState &B) { return K.Join(A, B); });
  });

  bool Match = K.Output(SeqState) == K.Output(ParState);
  std::printf("sequential: balanced=%lld in %.3fs\n",
              (long long)K.Output(SeqState), SeqTime);
  std::printf("parallel  : balanced=%lld in %.3fs on %u threads "
              "(speedup %.2fx)\n",
              (long long)K.Output(ParState), ParTime, Cores,
              SeqTime / ParTime);
  std::printf("results %s\n", Match ? "MATCH" : "MISMATCH");
  return Match ? 0 : 1;
}
