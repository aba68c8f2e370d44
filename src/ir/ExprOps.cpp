//===- ir/ExprOps.cpp - Structural utilities over Expr --------------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "ir/ExprOps.h"

using namespace parsynt;

ExprRef parsynt::substitute(const ExprRef &E, const Substitution &Subst) {
  switch (E->kind()) {
  case ExprKind::IntConst:
  case ExprKind::BoolConst:
    return E;
  case ExprKind::Var: {
    const auto *V = cast<VarExpr>(E);
    auto It = Subst.find(V->name());
    if (It == Subst.end())
      return E;
    assert(It->second->type() == V->type() && "ill-typed substitution");
    return It->second;
  }
  case ExprKind::SeqAccess: {
    const auto *S = cast<SeqAccessExpr>(E);
    ExprRef NewIndex = substitute(S->index(), Subst);
    if (NewIndex.get() == S->index().get())
      return E;
    return SeqAccessExpr::get(S->seqName(), S->type(), std::move(NewIndex));
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    ExprRef NewOp = substitute(U->operand(), Subst);
    if (NewOp.get() == U->operand().get())
      return E;
    return UnaryExpr::get(U->op(), std::move(NewOp));
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    ExprRef NewL = substitute(B->lhs(), Subst);
    ExprRef NewR = substitute(B->rhs(), Subst);
    if (NewL.get() == B->lhs().get() && NewR.get() == B->rhs().get())
      return E;
    return BinaryExpr::get(B->op(), std::move(NewL), std::move(NewR));
  }
  case ExprKind::Ite: {
    const auto *I = cast<IteExpr>(E);
    ExprRef NewC = substitute(I->cond(), Subst);
    ExprRef NewT = substitute(I->thenExpr(), Subst);
    ExprRef NewE = substitute(I->elseExpr(), Subst);
    if (NewC.get() == I->cond().get() && NewT.get() == I->thenExpr().get() &&
        NewE.get() == I->elseExpr().get())
      return E;
    return IteExpr::get(std::move(NewC), std::move(NewT), std::move(NewE));
  }
  }
  return E;
}

ExprRef parsynt::rewriteSeqAccesses(
    const ExprRef &E,
    const std::function<ExprRef(const SeqAccessExpr &)> &Fn) {
  switch (E->kind()) {
  case ExprKind::IntConst:
  case ExprKind::BoolConst:
  case ExprKind::Var:
    return E;
  case ExprKind::SeqAccess: {
    const auto *S = cast<SeqAccessExpr>(E);
    if (ExprRef Replacement = Fn(*S))
      return Replacement;
    ExprRef NewIndex = rewriteSeqAccesses(S->index(), Fn);
    if (NewIndex.get() == S->index().get())
      return E;
    return SeqAccessExpr::get(S->seqName(), S->type(), std::move(NewIndex));
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    return UnaryExpr::get(U->op(), rewriteSeqAccesses(U->operand(), Fn));
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    return BinaryExpr::get(B->op(), rewriteSeqAccesses(B->lhs(), Fn),
                           rewriteSeqAccesses(B->rhs(), Fn));
  }
  case ExprKind::Ite: {
    const auto *I = cast<IteExpr>(E);
    return IteExpr::get(rewriteSeqAccesses(I->cond(), Fn),
                        rewriteSeqAccesses(I->thenExpr(), Fn),
                        rewriteSeqAccesses(I->elseExpr(), Fn));
  }
  }
  return E;
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

/// One pre-order walk accumulating both halves of CostV; \p Depth counts
/// from the root (depth 0).
static void exprCostImpl(const Expr *E, const std::set<std::string> &Names,
                         unsigned Depth, ExprCost &Cost) {
  switch (E->kind()) {
  case ExprKind::IntConst:
  case ExprKind::BoolConst:
    return;
  case ExprKind::Var:
    if (Names.count(cast<VarExpr>(E)->name())) {
      Cost.MaxDepth = std::max(Cost.MaxDepth, Depth);
      ++Cost.Occurrences;
    }
    return;
  case ExprKind::SeqAccess:
    exprCostImpl(cast<SeqAccessExpr>(E)->index().get(), Names, Depth + 1,
                 Cost);
    return;
  case ExprKind::Unary:
    exprCostImpl(cast<UnaryExpr>(E)->operand().get(), Names, Depth + 1, Cost);
    return;
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    exprCostImpl(B->lhs().get(), Names, Depth + 1, Cost);
    exprCostImpl(B->rhs().get(), Names, Depth + 1, Cost);
    return;
  }
  case ExprKind::Ite: {
    const auto *I = cast<IteExpr>(E);
    exprCostImpl(I->cond().get(), Names, Depth + 1, Cost);
    exprCostImpl(I->thenExpr().get(), Names, Depth + 1, Cost);
    exprCostImpl(I->elseExpr().get(), Names, Depth + 1, Cost);
    return;
  }
  }
}

ExprCost parsynt::exprCost(const ExprRef &E,
                           const std::set<std::string> &Names) {
  ExprCost Cost;
  exprCostImpl(E.get(), Names, 0, Cost);
  return Cost;
}

unsigned parsynt::countOccurrences(const ExprRef &E,
                                   const std::set<std::string> &Names) {
  return exprCost(E, Names).Occurrences;
}

unsigned parsynt::maxVarDepth(const ExprRef &E,
                              const std::set<std::string> &Names) {
  return exprCost(E, Names).MaxDepth;
}
