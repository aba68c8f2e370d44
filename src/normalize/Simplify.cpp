//===- normalize/Simplify.cpp - Algebraic simplifier ----------------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "normalize/Simplify.h"
#include "interp/OpSemantics.h"

using namespace parsynt;

namespace {

bool isIntConst(const ExprRef &E, int64_t V) {
  const auto *C = dyn_cast<IntConstExpr>(E);
  return C && C->value() == V;
}

bool isBoolConst(const ExprRef &E, bool V) {
  const auto *C = dyn_cast<BoolConstExpr>(E);
  return C && C->value() == V;
}

/// The raw payload parsynt::ops computes on (booleans as 0/1), for a
/// literal; false for anything else.
bool literalPayload(const ExprRef &E, int64_t &Payload) {
  if (const auto *C = dyn_cast<IntConstExpr>(E)) {
    Payload = C->value();
    return true;
  }
  if (const auto *C = dyn_cast<BoolConstExpr>(E)) {
    Payload = C->value();
    return true;
  }
  return false;
}

/// Constant folding under the operator semantics every evaluator shares
/// (interp/OpSemantics.h). Typing guarantees both literals suit \p Op.
ExprRef foldBinary(BinaryOp Op, const ExprRef &L, const ExprRef &R) {
  int64_t A, B;
  if (!literalPayload(L, A) || !literalPayload(R, B))
    return nullptr;
  int64_t V = ops::applyBinary(Op, A, B);
  return binaryResultType(Op) == Type::Int ? intConst(V) : boolConst(V != 0);
}

/// Identity/absorption rules for a binary node whose children are already
/// simplified. Returns null if nothing applies.
ExprRef reduceBinary(BinaryOp Op, const ExprRef &L, const ExprRef &R) {
  switch (Op) {
  case BinaryOp::Add:
    if (isIntConst(L, 0))
      return R;
    if (isIntConst(R, 0))
      return L;
    // a + (-b) keeps the negation visible to the rewrite rules; no change.
    break;
  case BinaryOp::Sub:
    if (isIntConst(R, 0))
      return L;
    if (isIntConst(L, 0))
      return simplify(neg(R));
    if (L == R)
      return intConst(0);
    break;
  case BinaryOp::Mul:
    if (isIntConst(L, 1))
      return R;
    if (isIntConst(R, 1))
      return L;
    if (isIntConst(L, 0) || isIntConst(R, 0))
      return intConst(0);
    break;
  case BinaryOp::Div:
    if (isIntConst(R, 1))
      return L;
    if (isIntConst(L, 0))
      return intConst(0);
    break;
  case BinaryOp::Min:
  case BinaryOp::Max:
    if (L == R)
      return L;
    break;
  case BinaryOp::Lt:
  case BinaryOp::Ne:
    if (L == R)
      return boolConst(false);
    break;
  case BinaryOp::Gt:
    if (L == R)
      return boolConst(false);
    break;
  case BinaryOp::Le:
  case BinaryOp::Ge:
  case BinaryOp::Eq:
    if (L == R)
      return boolConst(true);
    break;
  case BinaryOp::And:
    if (isBoolConst(L, true))
      return R;
    if (isBoolConst(R, true))
      return L;
    if (isBoolConst(L, false) || isBoolConst(R, false))
      return boolConst(false);
    if (L == R)
      return L;
    break;
  case BinaryOp::Or:
    if (isBoolConst(L, false))
      return R;
    if (isBoolConst(R, false))
      return L;
    if (isBoolConst(L, true) || isBoolConst(R, true))
      return boolConst(true);
    if (L == R)
      return L;
    break;
  }
  return nullptr;
}

/// simplify() without the memo at the root: \p E rebuilt from its simplified
/// children (the same node when none changes), with the identities applied
/// at the root. A rewrite that builds a new root is simplified again, so the
/// result is a fixpoint; each such rewrite shrinks the term, which bounds
/// the recursion.
ExprRef simplifyNode(const ExprRef &E) {
  switch (E->kind()) {
  case ExprKind::IntConst:
  case ExprKind::BoolConst:
  case ExprKind::Var:
    return E;
  case ExprKind::SeqAccess: {
    const auto *S = cast<SeqAccessExpr>(E);
    return SeqAccessExpr::get(S->seqName(), S->type(), simplify(S->index()));
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    ExprRef Operand = simplify(U->operand());
    if (U->op() == UnaryOp::Neg) {
      if (const auto *C = dyn_cast<IntConstExpr>(Operand))
        return intConst(ops::neg(C->value()));
      if (const auto *Inner = dyn_cast<UnaryExpr>(Operand))
        if (Inner->op() == UnaryOp::Neg)
          return Inner->operand();
    } else {
      if (const auto *C = dyn_cast<BoolConstExpr>(Operand))
        return boolConst(ops::logicalNot(C->value()) != 0);
      if (const auto *Inner = dyn_cast<UnaryExpr>(Operand))
        if (Inner->op() == UnaryOp::Not)
          return Inner->operand();
    }
    return UnaryExpr::get(U->op(), std::move(Operand));
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    ExprRef L = simplify(B->lhs());
    ExprRef R = simplify(B->rhs());
    if (ExprRef Folded = foldBinary(B->op(), L, R))
      return Folded;
    if (ExprRef Reduced = reduceBinary(B->op(), L, R))
      return Reduced;
    return BinaryExpr::get(B->op(), std::move(L), std::move(R));
  }
  case ExprKind::Ite: {
    const auto *I = cast<IteExpr>(E);
    ExprRef Cond = simplify(I->cond());
    if (const auto *C = dyn_cast<BoolConstExpr>(Cond))
      return C->value() ? simplify(I->thenExpr()) : simplify(I->elseExpr());
    ExprRef Then = simplify(I->thenExpr());
    ExprRef Else = simplify(I->elseExpr());
    if (Then == Else)
      return Then;
    // ite(!c, a, b) -> ite(c, b, a)
    if (const auto *NotCond = dyn_cast<UnaryExpr>(Cond))
      if (NotCond->op() == UnaryOp::Not)
        return simplify(IteExpr::get(NotCond->operand(), std::move(Else),
                                     std::move(Then)));
    // ite(c, true, false) -> c; ite(c, false, true) -> !c
    if (isBoolConst(Then, true) && isBoolConst(Else, false))
      return Cond;
    if (isBoolConst(Then, false) && isBoolConst(Else, true))
      return simplify(notE(Cond));
    return IteExpr::get(std::move(Cond), std::move(Then), std::move(Else));
  }
  }
  return E;
}

} // namespace

ExprRef parsynt::simplify(const ExprRef &E) {
  Expr::Memo &M = E->memo();
  if (M.SelfSimple)
    return E;
  if (!M.Simplified) {
    ExprRef S = simplifyNode(E);
    if (S == E) {
      M.SelfSimple = true;
      return E;
    }
    M.Simplified = std::move(S);
  }
  return M.Simplified;
}
