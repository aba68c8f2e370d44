//===- lift/NormalForms.h - Canonical tropical/boolean forms ----*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Domain-specific canonical normal forms used by the lifter before falling
/// back to the generic cost-directed rewriter, and the lifter's choice
/// among them (normalizeUnfolding). The unknowns are the term's
/// VarClass::Unknown variables, as the unfolder builds them.
///
/// The paper's flagship benchmarks (mts, mps, mss) live in the tropical
/// (max,+) semiring: their unfoldings are max-of-sums. tropicalNormalize
/// fully distributes + over max, flattens, groups terms by their unknown
/// atoms (so every unknown occurs exactly once — the CostV optimum), and
/// rebuilds the per-group residuals in a canonical order that is *stable
/// across unfolding depths*: the step-k normal form of a family literally
/// contains the step-(k-1) form as a subterm, which is what makes the
/// lifter's fold-back step work.
///
/// booleanNormalize does the analogous thing in the boolean lattice: NNF +
/// CNF with tautology/subsumption pruning, clauses grouped by their unknown
/// literals. It is only used when every unknown occurrence is a bare
/// boolean state variable (otherwise the cross-atom arithmetic rewriting of
/// the generic engine is needed, e.g. for balanced parentheses).
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_LIFT_NORMALFORMS_H
#define PARSYNT_LIFT_NORMALFORMS_H

#include "ir/Expr.h"
#include "normalize/Normalizer.h"

namespace parsynt {

/// Max-plus canonical form of an integer expression built from
/// max/+/-/negation/multiplication-by-constant over leaves. Returns null if
/// the expression uses operators outside the (max,+) fragment.
ExprRef tropicalNormalize(const ExprRef &E);

/// CNF canonical form of a boolean expression with clause grouping by
/// unknown literals. Returns null if the expression falls outside the
/// supported fragment (some unknown occurs inside a composite atom) or the
/// CNF would exceed the size cap.
ExprRef booleanNormalize(const ExprRef &E);

/// The normal form the lifter collects parts from: the tropical form of
/// \p Tau, else its boolean form, else the result of the Figure-6
/// cost-directed search, which polls \p Timeout and reports a timeout in
/// \p Stats.
ExprRef normalizeUnfolding(const ExprRef &Tau, const Deadline &Timeout = {},
                           NormalizeStats *Stats = nullptr);

} // namespace parsynt

#endif // PARSYNT_LIFT_NORMALFORMS_H
