//===- lift/Lift.h - Homomorphic lifting (Algorithm 1) ----------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 1 of the paper: lifting a non-homomorphic loop to a (constant)
/// homomorphism by discovering auxiliary accumulators.
///
/// For each state variable, the loop body is unfolded symbolically from an
/// unknown initial state (the split point of Figure 5), each unfolding is
/// normalized with the cost-directed rewriter, and the maximal unknown-free
/// subexpressions of the normal form are collected ('collect'). A collected
/// expression that is not already covered — semantically equal, on sampled
/// inputs, to the same-step value of an existing state variable or
/// previously discovered auxiliary — is conjectured as a new auxiliary. Its
/// accumulator update is derived by *folding back*: subterms of the step-k
/// expression are matched (again semantically) against the step-(k-1)
/// auxiliary value, the current element, and the step-(k-1)/step-k values of
/// the state variables, producing an update over {aux, state, s[i]}. The
/// initial value is the first of a small constant menu (0, 1, -1, then the
/// MIN/MAX sentinels) with which the whole accumulator validates by
/// simulation; a guarded first-step form (ite(<at-start>, e1, g)) covers
/// initialization-dependent accumulators such as "first element".
///
/// Lifting runs once per loop, to its fixpoint, at one unfolding depth
/// (k = 3, enough for every Table-1 loop that lifts). A loop it does not
/// lift to a joinable one is a failure of the pipeline, not a reason to
/// unfold deeper or to try another initial value first.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_LIFT_LIFT_H
#define PARSYNT_LIFT_LIFT_H

#include "ir/Loop.h"
#include "normalize/Normalizer.h"
#include "support/Deadline.h"
#include "support/Failure.h"

#include <cstdint>
#include <string>
#include <vector>

namespace parsynt {

/// The sampled concrete scenarios lifting decides semantic equality on (the
/// coverage, fold-back and validation checks): a fixed number of seeded
/// frames, each a row of one compiled layout
///
///   [ params | s@1 .. s@K of each sequence ]
///
/// with parameters and sequences in declaration order. Integer parameters
/// are drawn from [-3, 3]; elements from small integers plus the loop's
/// constants and their neighbours. A row is also the raw input of
/// CompiledLoop::runRaw over K iterations.
class LiftFrames {
public:
  LiftFrames(const Loop &L, unsigned K);

  /// The input names of the layout, in register order.
  const std::vector<std::string> &names() const { return Names; }
  size_t size() const { return NumFrames; }
  const int64_t *row(size_t Frame) const {
    return Rows.data() + Frame * Names.size();
  }
  /// The raw value of \p E, an expression over parameters and step inputs,
  /// in every frame.
  std::vector<int64_t> column(const ExprRef &E) const;

private:
  std::vector<std::string> Names;
  size_t NumFrames = 0;
  std::vector<int64_t> Rows;
};

/// A discovered auxiliary accumulator.
struct AuxAccumulator {
  std::string Name;
  Type Ty;
  /// The collected defining expression (over per-step inputs), for reports.
  ExprRef Definition;
  ExprRef Update; ///< over {Name, original state vars, s[i], params}
  ExprRef Init;
};

struct LiftResult {
  /// The lifted loop: the input loop plus one equation per auxiliary (and
  /// the materialized position accumulator when the body reads the index).
  Loop Lifted;
  std::vector<AuxAccumulator> Auxiliaries;
  bool IndexMaterialized = false;
  /// Collected expressions for which no accumulator could be derived
  /// (max-block-1 exercises this path, reproducing Table 1's footnote).
  std::vector<std::string> Unresolved;
  std::vector<std::string> Notes;
  /// Structured failure (Timeout / BudgetExhausted); empty when the lift
  /// ran to completion. Lifted stays a valid loop either way.
  FailureInfo Failure;
  double Seconds = 0;

  /// Number of auxiliary equations in the lifted loop (discovered + the
  /// materialized index, if any) — the Table-1 "#Aux" figure.
  unsigned auxCount() const { return Lifted.auxiliaryCount(); }
};

/// Runs Algorithm 1 on \p L, once, at unfolding depth 3. Lifting unwinds
/// with a Timeout failure (keeping any auxiliaries already discovered) when
/// \p Timeout expires; the normalizer polls it once per expansion.
LiftResult liftLoop(const Loop &L, const Deadline &Timeout = {});

} // namespace parsynt

#endif // PARSYNT_LIFT_LIFT_H
