//===- normalize/Rules.h - Figure-6 rewrite rules ---------------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The algebraic rewrite-rule set R of paper Section 6.1 (Figure 6), with
/// both directions of each equality materialized where the paper's table
/// lists only one for brevity. Rules are semantics-preserving for every
/// environment; rules that hold only under invariants are deliberately
/// excluded, exactly as in the paper (this exclusion is what makes
/// max-block-1 lose one of its two auxiliaries — Table 1's footnote).
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_NORMALIZE_RULES_H
#define PARSYNT_NORMALIZE_RULES_H

#include "ir/Expr.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace parsynt {

/// A rewrite rule: applied at the root of an expression, appends every
/// possible rewriting to \p Out (a rule may fire in several ways, e.g.
/// associativity on either operand).
struct RewriteRule {
  std::string Name;
  std::function<void(const ExprRef &E, std::vector<ExprRef> &Out)> Apply;
};

/// The full Figure-6 rule set.
const std::vector<RewriteRule> &figure6Rules();

/// All single-step rewrites of \p E: every rule at every position,
/// positions in pre-order and rules in \p Rules order at each position.
/// Results are simplified (normalize/Simplify.h) and deduplicated
/// structurally, keeping first occurrences. When \p RuleHits is given
/// (sized to Rules.size()), RuleHits[i] is incremented once per raw
/// (pre-dedup) rewriting produced by Rules[i] at any position; the
/// normalizer aggregates these into per-rule metrics and span attributes.
std::vector<ExprRef> allRewrites(const ExprRef &E,
                                 const std::vector<RewriteRule> &Rules,
                                 std::vector<uint64_t> *RuleHits = nullptr);

} // namespace parsynt

#endif // PARSYNT_NORMALIZE_RULES_H
