//===- normalize/Normalizer.h - Cost-directed normalization -----*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cost-minimizing normalization procedure of paper Section 6.1: a
/// best-first search over single-step rewrites (Figure-6 rules) ordered by
/// the CostV function of Definition 6.1 — lexicographically (max depth of
/// the unknowns, number of unknown occurrences), tie-broken by term size.
/// The unknowns are the term's VarClass::Unknown variables. A closed set
/// and a stall rule keep the search finitary: the search stops after
/// StallLimit expansions in a row that do not improve the best (cost,
/// size). Each improvement strictly lowers that triple of naturals in
/// lexicographic order, which admits no infinite descending chain, so the
/// search stops after finitely many improvements, each followed by at most
/// StallLimit expansions. Terms are interned, so the closed set holds node
/// handles compared by pointer, and no search node is ever printed or
/// walked to test membership.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_NORMALIZE_NORMALIZER_H
#define PARSYNT_NORMALIZE_NORMALIZER_H

#include "ir/Expr.h"
#include "ir/ExprOps.h"
#include "normalize/Rules.h"
#include "support/Deadline.h"

namespace parsynt {

/// Expansions in a row that fail to improve the best form before the
/// search gives up. The longest gap between two improvements over the
/// Table-1 unfoldings is 524 expansions (count-1's step 3).
constexpr unsigned StallLimit = 1024;

/// Statistics reported by a normalization run (read by lifting).
struct NormalizeStats {
  unsigned Expanded = 0;
  /// True when the deadline stopped the search.
  bool TimedOut = false;
};

/// Returns the lowest-cost expression reachable from \p E before the
/// search stalls, the frontier empties or \p Timeout expires. The deadline
/// is polled once per expansion; on expiry the best form found so far is
/// returned.
ExprRef normalizeExpr(const ExprRef &E, const Deadline &Timeout = {},
                      NormalizeStats *Stats = nullptr);

} // namespace parsynt

#endif // PARSYNT_NORMALIZE_NORMALIZER_H
