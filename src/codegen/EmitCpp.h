//===- codegen/EmitCpp.h - Parallel C++ code emission -----------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits the synthesized divide-and-conquer program as a standalone,
/// compilable C++17 source file — the counterpart of the paper's generated
/// TBB code ("transforming our solutions into a TBB-based implementation
/// became a simple mechanical task", Section 8.2). The emitted file
/// contains:
///
///   - a `State` struct (one field per (lifted) state variable),
///   - `init()`, `step(State&, ...)` (one loop iteration),
///   - `run(first, last, ...)` (the sequential run over a chunk, one state),
///   - `join(const State&, const State&)` (the synthesized operator),
///   - `leaf(first, last, ...)` (a chunk on eight vector lanes over its
///     eighths, folded with `join` in order),
///   - `parallel_run(...)` — the divide-and-conquer driver, running on the
///     same header-only work-stealing runtime (`runtime/ParallelReduce.h`)
///     as `InterpReduce` and the benchmarks, and
///   - a `main` that checks the parallel result against `run` over the
///     whole input, which never calls `join`, on random data.
///
/// The generated file compiles with any C++17 compiler given the parsynt
/// headers on the include path:
///   g++ -O2 -std=c++17 -pthread -I <parsynt>/src out.cpp
///
/// The same printer renders the Figure-8 kernels (emitNativeKernel): the
/// `src/suite/generated/*.inc` fragments that suite/Kernels.cpp includes,
/// one per benchmark, wrapping the original loop's and the lifted loop's
/// `State`/`init`/`step`/`run`/`leaf` and the join as the NativeKernel
/// functions.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_CODEGEN_EMITCPP_H
#define PARSYNT_CODEGEN_EMITCPP_H

#include "ir/Loop.h"

#include <string>
#include <vector>

namespace parsynt {

struct EmitCppOptions {
  /// Grain size baked into the generated driver.
  size_t Grain = 50000;
  /// Elements used by the generated main's self-check.
  size_t SelfCheckElements = 1 << 20;
};

/// Renders the complete C++ translation unit for \p L and its synthesized
/// \p Join components.
std::string emitParallelCpp(const Loop &L, const std::vector<ExprRef> &Join,
                            const EmitCppOptions &Options = {});

/// Renders the native kernel of benchmark \p Original (suite/Kernels.h) as
/// a fragment defining `sequential`, `leaf`, `join` and `output` in
/// namespace `kernel_<kernelIdentifier(Original.Name)>`: `sequential` runs
/// \p Original with one state, `leaf` runs \p Lifted on vector lanes
/// folded by \p Join, `join` applies \p Join (one
/// component per equation of \p Lifted), and `output` reads \p ResultVar.
/// KState slots follow variable names: each original variable keeps its
/// slot in the lifted state, and the auxiliaries follow. Parameters are
/// bound to 3, as in the standalone program's self-check.
std::string emitNativeKernel(const Loop &Original, const Loop &Lifted,
                             const std::vector<ExprRef> &Join,
                             const std::string &ResultVar);

/// The C++ identifier of benchmark \p Name's kernel, also the stem of its
/// file under src/suite/generated/: count-1's -> count_1s, 0*1* ->
/// 0star1star, balanced-() -> balanced_parens.
std::string kernelIdentifier(const std::string &Name);

} // namespace parsynt

#endif // PARSYNT_CODEGEN_EMITCPP_H
