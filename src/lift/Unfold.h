//===- lift/Unfold.h - Symbolic loop unfolding ------------------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symbolic unfolding of a loop body, the 'unfold' step of Algorithm 1. The
/// k-th unfolding expresses each state variable's value after k iterations
/// as a closed expression over
///   - the symbolic initial state (the "red" unknowns of Figure 5, named
///     "<var>@0", VarClass::Unknown), or the concrete initial values when
///     unfolding from the loop's own initialization, and
///   - fresh per-step sequence elements "<seq>@k" (VarClass::Input).
///
/// Loops whose body reads the iteration index are first rewritten by
/// materializeIndex(), which turns the index into an ordinary position
/// accumulator; the unfolder itself never sees a free index variable.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_LIFT_UNFOLD_H
#define PARSYNT_LIFT_UNFOLD_H

#include "ir/Loop.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace parsynt {

/// Name of the fresh input for sequence \p Seq read at (1-based) step \p K.
std::string stepInputName(const std::string &Seq, unsigned K);

/// Values of every state variable after 0..K iterations.
/// ValuesAtStep[name][k] is the (simplified) expression after k steps.
struct Unfolding {
  std::map<std::string, std::vector<ExprRef>> ValuesAtStep;
  unsigned Steps = 0;
  /// True when the node-count ceiling stopped the unfolding early; Steps
  /// then reports the last fully-built step.
  bool Exceeded = false;
};

/// Growth ceiling of the unfolding: the total node budget across all state
/// variables for one step's expressions (pre-simplification estimate).
/// Substitution of step-(k-1) values into the update multiplies expression
/// sizes, so adversarial updates (e.g. v*v) grow doubly-exponentially in k;
/// the ceiling turns "exhaust memory" into a diagnosable abort.
inline constexpr uint64_t UnfoldNodeCeiling = 200000;

/// Unfolds \p L for \p K steps. If \p FromUnknowns, the state starts at the
/// symbolic unknowns (continuing the left thread across the split);
/// otherwise at the loop's initialization expressions (the right thread's
/// own run). The loop must not read its index variable (see
/// materializeIndex). A step whose estimated size exceeds
/// UnfoldNodeCeiling is not built: the result is truncated at the previous
/// step with Exceeded set.
Unfolding unfoldLoop(const Loop &L, unsigned K, bool FromUnknowns);

/// If any update of \p L reads the loop index, returns a rewritten loop with
/// an explicit position accumulator "_pos" (init 0, update _pos + 1,
/// IsAuxiliary) substituted for the index. Returns the loop unchanged
/// otherwise. This realizes index-dependent benchmarks (dropwhile, the
/// position-reporting mts-p/mps-p) in the offset-free sequence-function
/// model.
Loop materializeIndex(const Loop &L);

/// True if some update expression of \p L references the index variable.
bool readsIndex(const Loop &L);

} // namespace parsynt

#endif // PARSYNT_LIFT_UNFOLD_H
