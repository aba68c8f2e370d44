//===- suite/Benchmarks.h - The Table-1 benchmark suite ---------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 22 benchmarks of the paper's Table 1 as input-language sources, with
/// the qualitative expectations the reproduction must match (does the loop
/// need auxiliary accumulators? does the pipeline fully succeed?), each
/// loop's result variable and its Figure-8 input family. Exact
/// auxiliary counts depend on formulation details the paper leaves open;
/// see EXPERIMENTS.md for the per-benchmark discussion.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_SUITE_BENCHMARKS_H
#define PARSYNT_SUITE_BENCHMARKS_H

#include "ir/Loop.h"
#include "support/Diagnostics.h"

#include <optional>
#include <string>
#include <vector>

namespace parsynt {

/// Workload family of a benchmark's Figure-8 input (suite/Kernels.h's
/// generateInput).
enum class InputKind {
  Random,     ///< ints in [-100, 100]
  Bits,       ///< 0/1
  Parens,     ///< '(' / ')' with balanced bias
  Digits,     ///< '0'..'9'
  NearSorted, ///< ascending with rare dips
  Heights,    ///< positive building heights
  DropPrefix, ///< positive prefix, then mixed
};

/// A Table-1 benchmark.
struct Benchmark {
  std::string Name;        ///< Table-1 column name
  std::string Source;      ///< input-language program
  bool ExpectAuxRequired;  ///< Table-1 "Aux required?" row
  int ExpectedAux;         ///< our model's expected "#Aux" (-1: no claim)
  bool ExpectFullSuccess;  ///< false only for max-block-1 (paper footnote *)
  std::string Description;
  std::string Result;      ///< the state variable holding the loop's result
  InputKind Input;         ///< Figure-8 input family
};

/// A hand-written lifting and join for a benchmark the pipeline cannot
/// parallelize: max-block-1, whose second auxiliary the paper's tool misses
/// too. Figure 8 runs it, as the paper does.
struct HandLifting {
  Loop Lifted;
  std::vector<ExprRef> Join; ///< one component per equation of Lifted
};

/// All 22 benchmarks in Table-1 column order.
const std::vector<Benchmark> &allBenchmarks();

/// Finds a benchmark by name, or null.
const Benchmark *findBenchmark(const std::string &Name);

/// Parses a benchmark's source. Asserts on failure (the suite is tested).
Loop parseBenchmark(const Benchmark &B);

/// \p B's hand lifting, or nullopt when the pipeline parallelizes \p B.
std::optional<HandLifting> handLifting(const Benchmark &B);

} // namespace parsynt

#endif // PARSYNT_SUITE_BENCHMARKS_H
