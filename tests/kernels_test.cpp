//===- tests/kernels_test.cpp - Native kernel correctness sweep -----------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Four properties per kernel, swept over all 22:
//   1. divide-and-conquer (leaf + join over any split tree) reproduces the
//      sequential baseline's output, on random data and adversarial splits;
//   2. the sequential baseline agrees with the interpreted benchmark loop
//      (i.e. the native code really implements the Table-1 benchmark);
//   3. the lifted leaf keeps every original variable in its slot;
//   4. the leaf's split into vector lanes folded by the synthesized join
//      agrees with the sequential loop on every short sub-range.
//
//===----------------------------------------------------------------------===//

#include "runtime/ParallelReduce.h"
#include "suite/Benchmarks.h"
#include "suite/Kernels.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace parsynt;
using namespace parsynt::test;

namespace {

class KernelSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(KernelSweep, DivideAndConquerMatchesSequential) {
  const NativeKernel &K = nativeKernels()[GetParam()];
  Rng R(GetParam() * 1299709 + 11);
  for (int Round = 0; Round != 60; ++Round) {
    size_t N = static_cast<size_t>(R.intIn(0, 2000));
    std::vector<int64_t> A = generateInput(K.Kind, N, Round * 17 + 1);
    std::vector<int64_t> B =
        K.TwoSequences ? generateInput(K.Kind, N, Round * 17 + 2)
                       : std::vector<int64_t>();
    const int64_t *PB = K.TwoSequences ? B.data() : nullptr;

    KState Seq = K.Sequential(A.data(), PB, N);

    // Random split tree via sequentialReduce with random grain.
    size_t Grain = static_cast<size_t>(R.intIn(1, 200));
    KState Dc = sequentialReduce<KState>(
        BlockedRange{0, N, Grain},
        [&](size_t Begin, size_t End) {
          return K.Leaf(A.data(), PB, Begin, End);
        },
        [&](const KState &L2, const KState &R2) { return K.Join(L2, R2); });
    ASSERT_EQ(K.Output(Seq), K.Output(Dc))
        << K.Name << " N=" << N << " grain=" << Grain;
  }
}

TEST_P(KernelSweep, ParallelMatchesSequential) {
  const NativeKernel &K = nativeKernels()[GetParam()];
  TaskPool Pool(4);
  size_t N = 100000;
  std::vector<int64_t> A = generateInput(K.Kind, N, 99);
  std::vector<int64_t> B = K.TwoSequences
                               ? generateInput(K.Kind, N, 100)
                               : std::vector<int64_t>();
  const int64_t *PB = K.TwoSequences ? B.data() : nullptr;
  KState Seq = K.Sequential(A.data(), PB, N);
  KState Par = parallelReduce<KState>(
      BlockedRange{0, N, 1024}, Pool,
      [&](size_t Begin, size_t End) {
        return K.Leaf(A.data(), PB, Begin, End);
      },
      [&](const KState &L2, const KState &R2) { return K.Join(L2, R2); });
  EXPECT_EQ(K.Output(Seq), K.Output(Par)) << K.Name;
}

TEST_P(KernelSweep, SequentialMatchesInterpretedLoop) {
  const NativeKernel &K = nativeKernels()[GetParam()];
  const Benchmark *B = findBenchmark(K.Name);
  ASSERT_NE(B, nullptr) << K.Name;
  Loop L = parseBenchmark(*B);

  Rng R(GetParam() * 31 + 5);
  for (int Round = 0; Round != 40; ++Round) {
    size_t N = static_cast<size_t>(R.intIn(0, 300));
    std::vector<int64_t> A = generateInput(K.Kind, N, Round + 7);
    std::vector<int64_t> Bv = K.TwoSequences
                                  ? generateInput(K.Kind, N, Round + 8)
                                  : std::vector<int64_t>();
    SeqEnv Seqs;
    std::vector<Value> Av;
    for (int64_t V : A)
      Av.push_back(Value::ofInt(V));
    Seqs["s"] = std::move(Av);
    if (K.TwoSequences) {
      std::vector<Value> BvV;
      for (int64_t V : Bv)
        BvV.push_back(Value::ofInt(V));
      Seqs["t"] = std::move(BvV);
    }
    Env Params;
    for (const ParamDecl &P : L.Params)
      Params[P.Name] = Value::ofInt(3); // poly's fixed evaluation point

    Env Final = stateToEnv(L, runLoop(L, Seqs, Params));
    Value Interp = Final.at(B->Result);
    int64_t Expected =
        Interp.type() == Type::Bool ? (Interp.asBool() ? 1 : 0)
                                    : Interp.asInt();

    KState Native =
        K.Sequential(A.data(), K.TwoSequences ? Bv.data() : nullptr, N);
    ASSERT_EQ(K.Output(Native), Expected) << K.Name << " N=" << N;
  }
}

// Output reads one slot, so only this catches a lifted state that moves or
// drops an original variable: a leaf over the whole input must agree with
// the sequential loop on every original variable.
TEST_P(KernelSweep, LeafKeepsEveryOriginalSlot) {
  const NativeKernel &K = nativeKernels()[GetParam()];
  const size_t Originals =
      parseBenchmark(*findBenchmark(K.Name)).Equations.size();
  for (size_t N : {0, 1, 2, 7, 100, 1000}) {
    std::vector<int64_t> A = generateInput(K.Kind, N, N + 3);
    std::vector<int64_t> B = K.TwoSequences ? generateInput(K.Kind, N, N + 4)
                                            : std::vector<int64_t>();
    const int64_t *PB = K.TwoSequences ? B.data() : nullptr;
    KState Seq = K.Sequential(A.data(), PB, N);
    KState Leaf = K.Leaf(A.data(), PB, 0, N);
    for (size_t Slot = 0; Slot != Originals; ++Slot)
      EXPECT_EQ(Leaf.V[Slot], Seq.V[Slot])
          << K.Name << " slot " << Slot << " N=" << N;
  }
}

// A leaf runs its range on eight vector lanes (two vectors of four) over
// contiguous blocks, the last taking the remainder, and folds the lanes with
// the join in block order; a range too short to give every lane an element
// runs as one scalar loop. Lengths 0-47 cover the too-short path and, for
// block lengths 1-5, every remainder of the split, and the offsets check
// that each lane starts at its own block: the leaf over [First, First + Len)
// must agree with the sequential loop over the same elements on every
// original variable.
TEST_P(KernelSweep, LeafMatchesSequentialOnEverySubRange) {
  const NativeKernel &K = nativeKernels()[GetParam()];
  const size_t Originals =
      parseBenchmark(*findBenchmark(K.Name)).Equations.size();
  constexpr size_t Total = 96;
  for (uint64_t Seed = 1; Seed != 4; ++Seed) {
    std::vector<int64_t> A = generateInput(K.Kind, Total, GetParam() + Seed);
    std::vector<int64_t> B = generateInput(K.Kind, Total, ~Seed);
    const int64_t *PB = K.TwoSequences ? B.data() : nullptr;
    for (size_t First : {0, 1, 2, 3, 5, 23, 44})
      for (size_t Len = 0; Len != 48; ++Len) {
        KState Seq = K.Sequential(A.data() + First,
                                  PB ? PB + First : nullptr, Len);
        KState Leaf = K.Leaf(A.data(), PB, First, First + Len);
        for (size_t Slot = 0; Slot != Originals; ++Slot)
          ASSERT_EQ(Leaf.V[Slot], Seq.V[Slot])
              << K.Name << " slot " << Slot << " first=" << First
              << " len=" << Len << " seed=" << Seed;
      }
  }
}

std::string kernelName(const ::testing::TestParamInfo<size_t> &Info) {
  std::string Name = nativeKernels()[Info.param].Name;
  std::string Clean;
  for (char C : Name)
    Clean += std::isalnum(static_cast<unsigned char>(C)) ? C : '_';
  return Clean;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelSweep,
                         ::testing::Range<size_t>(0, nativeKernels().size()),
                         kernelName);

TEST(Kernels, InputGeneratorsAreDeterministicAndInDomain) {
  auto A = generateInput(InputKind::Parens, 1000, 5);
  auto B = generateInput(InputKind::Parens, 1000, 5);
  EXPECT_EQ(A, B);
  for (int64_t V : A)
    EXPECT_TRUE(V == '(' || V == ')');
  for (int64_t V : generateInput(InputKind::Bits, 500, 1))
    EXPECT_TRUE(V == 0 || V == 1);
  for (int64_t V : generateInput(InputKind::Digits, 500, 1))
    EXPECT_TRUE(V >= '0' && V <= '9');
  for (int64_t V : generateInput(InputKind::Heights, 500, 1))
    EXPECT_GT(V, 0);
}

} // namespace
