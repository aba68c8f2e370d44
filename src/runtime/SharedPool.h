//===- runtime/SharedPool.h - The process-wide task pool --------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One work-stealing pool for the whole process: the join synthesizer runs
/// its enumeration levels and sketch sweeps on it, and the `parsynt` tool's
/// parallel self-test runs on it, so a process never holds two idle sets
/// of worker threads.
///
/// The pool is created on first use with defaultThreadCount() threads and
/// lives until exit. Its workers poll the `pool.*` fault points for the
/// rest of the process, so FaultInjector::configure() (or PARSYNT_FAULT)
/// must run before the shared pool exists: a test that wants a fault
/// schedule configures it first, before any synthesis call.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_RUNTIME_SHAREDPOOL_H
#define PARSYNT_RUNTIME_SHAREDPOOL_H

#include "runtime/TaskPool.h"

namespace parsynt {

/// The process-wide pool, created on first call (thread-safe).
TaskPool &sharedTaskPool();

} // namespace parsynt

#endif // PARSYNT_RUNTIME_SHAREDPOOL_H
