//===- runtime/SharedPool.cpp - The process-wide task pool ----------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "runtime/SharedPool.h"

using namespace parsynt;

TaskPool &parsynt::sharedTaskPool() {
  // Statics die in reverse order of construction: building the injector
  // first makes the pool, whose destructor joins workers that poll fault
  // points, go before it.
  FaultInjector::instance();
  static TaskPool Pool(defaultThreadCount());
  return Pool;
}
