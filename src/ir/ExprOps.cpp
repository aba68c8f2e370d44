//===- ir/ExprOps.cpp - Structural utilities over Expr --------------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "ir/ExprOps.h"

using namespace parsynt;

ExprRef parsynt::substitute(const ExprRef &E, const Substitution &Subst) {
  if (const auto *V = dyn_cast<VarExpr>(E)) {
    auto It = Subst.find(V->name());
    if (It == Subst.end())
      return E;
    assert(It->second->type() == V->type() && "ill-typed substitution");
    return It->second;
  }
  return mapChildren(E, [&](const ExprRef &C) { return substitute(C, Subst); });
}

ExprRef parsynt::rewriteSeqAccesses(
    const ExprRef &E,
    const std::function<ExprRef(const SeqAccessExpr &)> &Fn) {
  if (const auto *S = dyn_cast<SeqAccessExpr>(E))
    if (ExprRef Replacement = Fn(*S))
      return Replacement;
  return mapChildren(
      E, [&](const ExprRef &C) { return rewriteSeqAccesses(C, Fn); });
}

ExprRef
parsynt::mapChildren(const ExprRef &E,
                     const std::function<ExprRef(const ExprRef &)> &Fn) {
  switch (E->kind()) {
  case ExprKind::IntConst:
  case ExprKind::BoolConst:
  case ExprKind::Var:
    return E;
  case ExprKind::SeqAccess: {
    const auto *S = cast<SeqAccessExpr>(E);
    return SeqAccessExpr::get(S->seqName(), S->type(), Fn(S->index()));
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    return UnaryExpr::get(U->op(), Fn(U->operand()));
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    return BinaryExpr::get(B->op(), Fn(B->lhs()), Fn(B->rhs()));
  }
  case ExprKind::Ite: {
    const auto *I = cast<IteExpr>(E);
    return IteExpr::get(Fn(I->cond()), Fn(I->thenExpr()), Fn(I->elseExpr()));
  }
  }
  return E;
}

std::vector<ExprRef> parsynt::children(const ExprRef &E) {
  switch (E->kind()) {
  case ExprKind::IntConst:
  case ExprKind::BoolConst:
  case ExprKind::Var:
    return {};
  case ExprKind::SeqAccess:
    return {cast<SeqAccessExpr>(E)->index()};
  case ExprKind::Unary:
    return {cast<UnaryExpr>(E)->operand()};
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    return {B->lhs(), B->rhs()};
  }
  case ExprKind::Ite: {
    const auto *I = cast<IteExpr>(E);
    return {I->cond(), I->thenExpr(), I->elseExpr()};
  }
  }
  return {};
}

void parsynt::forEachNode(const ExprRef &E,
                          const std::function<void(const ExprRef &)> &Fn) {
  Fn(E);
  for (const ExprRef &Child : children(E))
    forEachNode(Child, Fn);
}

std::set<std::string> parsynt::collectVars(const ExprRef &E, VarClass Class) {
  std::set<std::string> Result;
  forEachNode(E, [&](const ExprRef &Node) {
    if (const auto *V = dyn_cast<VarExpr>(Node))
      if (V->varClass() == Class)
        Result.insert(V->name());
  });
  return Result;
}

std::set<std::string> parsynt::collectAllVars(const ExprRef &E) {
  std::set<std::string> Result;
  forEachNode(E, [&](const ExprRef &Node) {
    if (const auto *V = dyn_cast<VarExpr>(Node))
      Result.insert(V->name());
  });
  return Result;
}

std::vector<std::pair<std::string, Type>>
parsynt::collectTypedVars(const ExprRef &E) {
  std::map<std::string, Type> Found;
  forEachNode(E, [&](const ExprRef &Node) {
    if (const auto *V = dyn_cast<VarExpr>(Node))
      Found.emplace(V->name(), V->type());
  });
  return {Found.begin(), Found.end()};
}

std::set<std::string> parsynt::collectSeqNames(const ExprRef &E) {
  std::set<std::string> Result;
  forEachNode(E, [&](const ExprRef &Node) {
    if (const auto *S = dyn_cast<SeqAccessExpr>(Node))
      Result.insert(S->seqName());
  });
  return Result;
}

bool parsynt::containsVarClass(const ExprRef &E, VarClass Class) {
  if (const auto *V = dyn_cast<VarExpr>(E))
    return V->varClass() == Class;
  for (const ExprRef &Child : children(E))
    if (containsVarClass(Child, Class))
      return true;
  return false;
}

bool parsynt::containsVar(const ExprRef &E, const std::string &Name) {
  if (const auto *V = dyn_cast<VarExpr>(E))
    return V->name() == Name;
  for (const ExprRef &Child : children(E))
    if (containsVar(Child, Name))
      return true;
  return false;
}

/// CostV of \p E for the unknown set of \p Epoch: a node's unknowns sit one
/// level deeper than its children's.
static ExprCost costOf(const Expr *E, const std::set<std::string> &Names,
                       uint32_t Epoch) {
  Expr::Memo &M = E->memo();
  if (M.CostEpoch == Epoch)
    return M.Cost;
  ExprCost Cost;
  if (const auto *V = dyn_cast<VarExpr>(E))
    Cost.Occurrences = Names.count(V->name());
  for (const ExprRef &Child : children(ExprRef(E))) {
    ExprCost C = costOf(Child.get(), Names, Epoch);
    if (C.Occurrences)
      Cost.MaxDepth = std::max(Cost.MaxDepth, C.MaxDepth + 1);
    Cost.Occurrences += C.Occurrences;
  }
  M.CostEpoch = Epoch;
  M.Cost = Cost;
  return Cost;
}

ExprCost parsynt::exprCost(const ExprRef &E,
                           const std::set<std::string> &Names) {
  // The memo is valid for one set: a new set starts a new epoch.
  static std::set<std::string> EpochNames;
  static uint32_t Epoch = 0;
  if (Epoch == 0 || Names != EpochNames) {
    EpochNames = Names;
    ++Epoch;
  }
  return costOf(E.get(), Names, Epoch);
}
