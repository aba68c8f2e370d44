//===- normalize/Simplify.h - Algebraic simplifier --------------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sound, terminating, bottom-up simplifier: constant folding plus
/// unconditional algebraic identities (x+0, b&&true, ite(c,x,x), x==x, ...).
/// The normalizer simplifies every search node with it, which both
/// canonicalizes the search space and keeps unfolded expressions small.
/// Unlike the Figure-6 rewrite rules, simplification is not cost-directed:
/// every identity here strictly shrinks the term.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_NORMALIZE_SIMPLIFY_H
#define PARSYNT_NORMALIZE_SIMPLIFY_H

#include "ir/Expr.h"

namespace parsynt {

/// Returns a simplified expression equivalent to \p E under the total
/// interpreter semantics (wrap-around arithmetic, x/0 == 0). Memoized per
/// node (Expr::Memo): a second call on the same term is a field read.
ExprRef simplify(const ExprRef &E);

} // namespace parsynt

#endif // PARSYNT_NORMALIZE_SIMPLIFY_H
