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
/// A closed set and a node budget keep the search finitary, as the paper
/// prescribes. The closed set is keyed structurally (ExprHash/ExprEqual),
/// so no search node is ever printed.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_NORMALIZE_NORMALIZER_H
#define PARSYNT_NORMALIZE_NORMALIZER_H

#include "ir/Expr.h"
#include "ir/ExprOps.h"
#include "normalize/Rules.h"
#include "support/Deadline.h"

#include <set>
#include <string>

namespace parsynt {

/// Tuning knobs for the search; the defaults handle every benchmark in the
/// paper's Table 1 comfortably.
struct NormalizeOptions {
  /// Maximum number of nodes popped from the frontier.
  unsigned MaxExpansions = 4000;
  /// Cooperative cancellation, polled once per expansion: when it expires
  /// the search stops and returns the best form found so far. Unarmed by
  /// default.
  Deadline Timeout;
};

/// Statistics reported by a normalization run (read by lifting and the
/// ablation bench).
struct NormalizeStats {
  unsigned Expanded = 0;
  unsigned Generated = 0;
  ExprCost InitialCost;
  ExprCost FinalCost;
  /// True when Options.Timeout stopped the search.
  bool TimedOut = false;
};

/// Returns the lowest-cost expression (w.r.t. \p Unknowns) reachable from
/// \p E within the budget, together with search statistics.
ExprRef normalizeExpr(const ExprRef &E, const std::set<std::string> &Unknowns,
                      const NormalizeOptions &Options = {},
                      NormalizeStats *Stats = nullptr);

} // namespace parsynt

#endif // PARSYNT_NORMALIZE_NORMALIZER_H
