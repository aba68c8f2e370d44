//===- runtime/InterpReduce.h - Run synthesized joins on data ---*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end execution of a parallelized loop: leaves run the (lifted) loop
/// body over chunks of real data, interior nodes evaluate the synthesized
/// join components. This is the direct analog of running the paper's
/// generated TBB program, with compiled expression programs standing in for
/// the generated C++ (the native kernels in suite/Kernels.h, emitted by
/// codegen/EmitCpp from the same loops and joins, are the native
/// counterpart used for the Figure-8 performance runs).
///
/// The loop and the join are compiled once per call (interp/Interp.h's
/// CompiledLoop and CompiledJoin) and shared by every pool worker; each leaf
/// and each join node evaluates in its own register file.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_RUNTIME_INTERPREDUCE_H
#define PARSYNT_RUNTIME_INTERPREDUCE_H

#include "interp/Interp.h"
#include "ir/Loop.h"
#include "runtime/ParallelReduce.h"

#include <vector>

namespace parsynt {

/// Runs \p L over \p Seqs divide-and-conquer-style on \p Pool: leaves
/// execute the loop body sequentially from the initial state; interior
/// nodes apply \p Join. With grain >= |s| this degenerates to the
/// sequential run. An empty \p Join (the pipeline's sequential-fallback
/// signal) runs the loop single-threaded without touching the pool.
StateTuple parallelRunLoop(const Loop &L, const std::vector<ExprRef> &Join,
                           const SeqEnv &Seqs, TaskPool &Pool, size_t Grain,
                           const Env &Params = {});

} // namespace parsynt

#endif // PARSYNT_RUNTIME_INTERPREDUCE_H
