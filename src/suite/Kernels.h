//===- suite/Kernels.h - Native divide-and-conquer kernels ------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Native (compiled C++) versions of the parallel programs for all 22
/// Table-1 benchmarks — the counterpart of the paper's generated TBB code,
/// used by the Figure-8 performance harness where interpreting the loop
/// bodies would dominate the measurement.
///
/// Every kernel function is generated: codegen/EmitCpp's emitNativeKernel
/// renders the original loop (the baseline the paper's Figure 8 normalizes
/// against — cheaper per iteration than the lifted leaf whenever auxiliaries
/// were added), the pipeline's lifted loop as the leaf and its synthesized
/// join, into src/suite/generated/ (tools/ci/regen_kernels.sh rewrites
/// them; the pipeline sweep fails when they drift). max-block-1, which the
/// pipeline cannot parallelize, uses its hand lifting (suite/Benchmarks.h).
/// Tests cross-check each kernel against the interpreted loop semantics and
/// each parallel run against the sequential baseline.
///
/// Arithmetic wraps modulo 2^64 (interp/OpSemantics.h), matching the
/// interpreter's total semantics.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_SUITE_KERNELS_H
#define PARSYNT_SUITE_KERNELS_H

#include "suite/Benchmarks.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace parsynt {

/// Fixed-capacity state tuple for native kernels (booleans stored as 0/1).
/// Slots follow variable names: the original loop's variables in order,
/// then the lifted loop's auxiliaries.
struct KState {
  static constexpr size_t Capacity = 6;
  std::array<int64_t, Capacity> V{};

  friend bool operator==(const KState &A, const KState &B) {
    return A.V == B.V;
  }
};

/// A native benchmark kernel.
struct NativeKernel {
  std::string Name;
  InputKind Kind = InputKind::Random;
  bool TwoSequences = false;

  /// The original sequential loop over [0, N) (Figure-8 baseline).
  KState (*Sequential)(const int64_t *A, const int64_t *B, size_t N);
  /// The lifted leaf over [Begin, End), started from its own initial state.
  KState (*Leaf)(const int64_t *A, const int64_t *B, size_t Begin,
                 size_t End);
  /// The synthesized join.
  KState (*Join)(const KState &L, const KState &R);
  /// The benchmark's result variable (Benchmark::Result) in a final state
  /// (same slot for the sequential and lifted states).
  int64_t (*Output)(const KState &S);
};

/// All 22 kernels, in Table-1 order.
const std::vector<NativeKernel> &nativeKernels();

/// Finds a kernel by name, or null.
const NativeKernel *findKernel(const std::string &Name);

/// Deterministically generates \p N elements for \p Kind.
std::vector<int64_t> generateInput(InputKind Kind, size_t N, uint64_t Seed);

} // namespace parsynt

#endif // PARSYNT_SUITE_KERNELS_H
