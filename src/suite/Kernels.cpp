//===- suite/Kernels.cpp - Native divide-and-conquer kernels --------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "suite/Kernels.h"
#include "interp/OpSemantics.h" // the generated code's operators

#include <algorithm>
#include <cassert>
#include <random>

using namespace parsynt;

namespace {

// The kernel functions, written by codegen/EmitCpp's emitNativeKernel
// (tools/ci/regen_kernels.sh).
#include "suite/generated/sum.inc"
#include "suite/generated/min.inc"
#include "suite/generated/max.inc"
#include "suite/generated/average.inc"
#include "suite/generated/hamming.inc"
#include "suite/generated/length.inc"
#include "suite/generated/2nd_min.inc"
#include "suite/generated/mps.inc"
#include "suite/generated/mts.inc"
#include "suite/generated/mss.inc"
#include "suite/generated/mts_p.inc"
#include "suite/generated/mps_p.inc"
#include "suite/generated/poly.inc"
#include "suite/generated/is_sorted.inc"
#include "suite/generated/atoi.inc"
#include "suite/generated/dropwhile.inc"
#include "suite/generated/balanced_parens.inc"
#include "suite/generated/0star1star.inc"
#include "suite/generated/count_1s.inc"
#include "suite/generated/line_sight.inc"
#include "suite/generated/0after1.inc"
#include "suite/generated/max_block_1.inc"

/// Benchmark \p Name's kernel: its generated functions plus the
/// benchmark's input family and sequence count.
NativeKernel kernel(const char *Name,
                    decltype(NativeKernel::Sequential) Sequential,
                    decltype(NativeKernel::Leaf) Leaf,
                    decltype(NativeKernel::Join) Join,
                    decltype(NativeKernel::Output) Output) {
  const Benchmark *B = findBenchmark(Name);
  assert(B && "a generated kernel without a benchmark");
  return {B->Name, B->Input, parseBenchmark(*B).Sequences.size() == 2,
          Sequential, Leaf, Join, Output};
}

} // namespace

const std::vector<NativeKernel> &parsynt::nativeKernels() {
#define PARSYNT_KERNEL(Name, Id)                                              \
  kernel(Name, kernel_##Id::sequential, kernel_##Id::leaf, kernel_##Id::join, \
         kernel_##Id::output)
  static const std::vector<NativeKernel> Kernels = {
      PARSYNT_KERNEL("sum", sum),
      PARSYNT_KERNEL("min", min),
      PARSYNT_KERNEL("max", max),
      PARSYNT_KERNEL("average", average),
      PARSYNT_KERNEL("hamming", hamming),
      PARSYNT_KERNEL("length", length),
      PARSYNT_KERNEL("2nd-min", 2nd_min),
      PARSYNT_KERNEL("mps", mps),
      PARSYNT_KERNEL("mts", mts),
      PARSYNT_KERNEL("mss", mss),
      PARSYNT_KERNEL("mts-p", mts_p),
      PARSYNT_KERNEL("mps-p", mps_p),
      PARSYNT_KERNEL("poly", poly),
      PARSYNT_KERNEL("is-sorted", is_sorted),
      PARSYNT_KERNEL("atoi", atoi),
      PARSYNT_KERNEL("dropwhile", dropwhile),
      PARSYNT_KERNEL("balanced-()", balanced_parens),
      PARSYNT_KERNEL("0*1*", 0star1star),
      PARSYNT_KERNEL("count-1's", count_1s),
      PARSYNT_KERNEL("line-sight", line_sight),
      PARSYNT_KERNEL("0after1", 0after1),
      PARSYNT_KERNEL("max-block-1", max_block_1),
  };
#undef PARSYNT_KERNEL
  return Kernels;
}

const NativeKernel *parsynt::findKernel(const std::string &Name) {
  for (const NativeKernel &K : nativeKernels())
    if (K.Name == Name)
      return &K;
  return nullptr;
}

std::vector<int64_t> parsynt::generateInput(InputKind Kind, size_t N,
                                            uint64_t Seed) {
  std::mt19937_64 R(Seed);
  std::vector<int64_t> Out(N);
  switch (Kind) {
  case InputKind::Random:
    for (auto &V : Out)
      V = static_cast<int64_t>(R() % 201) - 100;
    break;
  case InputKind::Bits:
    for (auto &V : Out)
      V = static_cast<int64_t>(R() & 1);
    break;
  case InputKind::Parens:
    // Mildly biased towards '(' so long balanced prefixes occur.
    for (auto &V : Out)
      V = (R() % 100 < 52) ? '(' : ')';
    break;
  case InputKind::Digits:
    for (auto &V : Out)
      V = '0' + static_cast<int64_t>(R() % 10);
    break;
  case InputKind::NearSorted: {
    int64_t Current = 0;
    for (auto &V : Out) {
      Current += static_cast<int64_t>(R() % 5);
      if (R() % 10000 == 0)
        Current -= 50; // rare dip: keeps the sortedness check non-trivial
      V = Current;
    }
    break;
  }
  case InputKind::Heights:
    for (auto &V : Out)
      V = static_cast<int64_t>(R() % 1000) + 1;
    break;
  case InputKind::DropPrefix: {
    size_t Prefix = N / 3;
    for (size_t I = 0; I != N; ++I)
      Out[I] = I < Prefix ? static_cast<int64_t>(R() % 50) + 1
                          : static_cast<int64_t>(R() % 101) - 50;
    break;
  }
  }
  return Out;
}
