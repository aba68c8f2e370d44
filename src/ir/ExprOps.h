//===- ir/ExprOps.h - Structural utilities over Expr ------------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Substitution, traversal and measurement utilities over the expression IR.
/// These back the unfolder of Algorithm 1 (substitution), the cost function
/// of Definition 6.1 (occurrence counts / depths of the unknowns), and the
/// sketch compiler (variable collection).
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_IR_EXPROPS_H
#define PARSYNT_IR_EXPROPS_H

#include "ir/Expr.h"

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace parsynt {

/// A name -> expression binding used by substitute().
using Substitution = std::map<std::string, ExprRef>;

/// Replaces every VarExpr whose name appears in \p Subst with its binding.
/// Bindings must be type-correct; this is asserted.
ExprRef substitute(const ExprRef &E, const Substitution &Subst);

/// Replaces every SeqAccessExpr by Fn(access); Fn returning null keeps the
/// access (with its index recursively rewritten).
ExprRef
rewriteSeqAccesses(const ExprRef &E,
                   const std::function<ExprRef(const SeqAccessExpr &)> &Fn);

/// Rebuilds \p E with each direct child replaced by Fn(child). Leaves are
/// returned unchanged. The helper preserves the node's own operator/kind.
ExprRef mapChildren(const ExprRef &E,
                    const std::function<ExprRef(const ExprRef &)> &Fn);

/// Collects the direct children of \p E in evaluation order.
std::vector<ExprRef> children(const ExprRef &E);

/// Invokes Fn on every node of \p E (pre-order).
void forEachNode(const ExprRef &E,
                 const std::function<void(const ExprRef &)> &Fn);

/// Names of all variables of class \p Class occurring in \p E.
std::set<std::string> collectVars(const ExprRef &E, VarClass Class);

/// Names of all variables occurring in \p E regardless of class.
std::set<std::string> collectAllVars(const ExprRef &E);

/// All variables of \p E with their types, sorted by name (deduplicated).
std::vector<std::pair<std::string, Type>> collectTypedVars(const ExprRef &E);

/// Names of all sequences accessed in \p E.
std::set<std::string> collectSeqNames(const ExprRef &E);

/// True if any variable of class \p Class occurs in \p E.
bool containsVarClass(const ExprRef &E, VarClass Class);

/// True if a variable with name \p Name occurs in \p E.
bool containsVar(const ExprRef &E, const std::string &Name);

/// Computes CostV(E) (ExprCost, ir/Expr.h) for the variable set \p Names.
/// Memoized per node for the last set passed.
ExprCost exprCost(const ExprRef &E, const std::set<std::string> &Names);

} // namespace parsynt

#endif // PARSYNT_IR_EXPROPS_H
