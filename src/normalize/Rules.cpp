//===- normalize/Rules.cpp - Figure-6 rewrite rules -----------------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "normalize/Rules.h"
#include "normalize/Simplify.h"

#include <unordered_set>

using namespace parsynt;

namespace {

const BinaryExpr *asBinary(const ExprRef &E, BinaryOp Op) {
  const auto *B = dyn_cast<BinaryExpr>(E);
  return (B && B->op() == Op) ? B : nullptr;
}

bool isMinOrMax(BinaryOp Op) {
  return Op == BinaryOp::Min || Op == BinaryOp::Max;
}

/// min <-> max, and <-> or, < <-> >=, ... used by De Morgan-style rules.
BinaryOp dualOp(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Min:
    return BinaryOp::Max;
  case BinaryOp::Max:
    return BinaryOp::Min;
  case BinaryOp::And:
    return BinaryOp::Or;
  case BinaryOp::Or:
    return BinaryOp::And;
  default:
    return Op;
  }
}

/// !(a < b) == a >= b, etc.
BinaryOp negatedCompare(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Lt:
    return BinaryOp::Ge;
  case BinaryOp::Le:
    return BinaryOp::Gt;
  case BinaryOp::Gt:
    return BinaryOp::Le;
  case BinaryOp::Ge:
    return BinaryOp::Lt;
  case BinaryOp::Eq:
    return BinaryOp::Ne;
  case BinaryOp::Ne:
    return BinaryOp::Eq;
  default:
    return Op;
  }
}

/// a < b == b > a, etc.
BinaryOp swappedCompare(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Lt:
    return BinaryOp::Gt;
  case BinaryOp::Le:
    return BinaryOp::Ge;
  case BinaryOp::Gt:
    return BinaryOp::Lt;
  case BinaryOp::Ge:
    return BinaryOp::Le;
  default:
    return Op; // Eq/Ne are symmetric.
  }
}

/// True for the order comparisons <, <=, >, >= (not Eq/Ne).
bool isOrderCompare(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge:
    return true;
  default:
    return false;
  }
}

/// True if \p Op is satisfied "upward" on its left operand (a >= c and a > c
/// grow more true as a grows).
bool isGeLike(BinaryOp Op) {
  return Op == BinaryOp::Ge || Op == BinaryOp::Gt;
}

//===----------------------------------------------------------------------===//
// Rule bodies. Each takes the root expression and appends rewrites.
//===----------------------------------------------------------------------===//

void ruleCommute(const ExprRef &E, std::vector<ExprRef> &Out) {
  const auto *B = dyn_cast<BinaryExpr>(E);
  if (!B)
    return;
  if (isCommutative(B->op()))
    Out.push_back(binary(B->op(), B->rhs(), B->lhs()));
  else if (isOrderCompare(B->op()))
    Out.push_back(binary(swappedCompare(B->op()), B->rhs(), B->lhs()));
}

void ruleAssociate(const ExprRef &E, std::vector<ExprRef> &Out) {
  const auto *B = dyn_cast<BinaryExpr>(E);
  if (!B || !isAssociative(B->op()))
    return;
  BinaryOp Op = B->op();
  // (a . b) . c -> a . (b . c)
  if (const auto *L = asBinary(B->lhs(), Op))
    Out.push_back(binary(Op, L->lhs(), binary(Op, L->rhs(), B->rhs())));
  // a . (b . c) -> (a . b) . c
  if (const auto *R = asBinary(B->rhs(), Op))
    Out.push_back(binary(Op, binary(Op, B->lhs(), R->lhs()), R->rhs()));
}

void ruleDistributeAddOverMinMax(const ExprRef &E, std::vector<ExprRef> &Out) {
  const auto *B = dyn_cast<BinaryExpr>(E);
  if (!B)
    return;
  if (B->op() == BinaryOp::Add || B->op() == BinaryOp::Sub) {
    // minmax(a,b) +- c -> minmax(a +- c, b +- c)
    if (const auto *L = dyn_cast<BinaryExpr>(B->lhs()))
      if (isMinOrMax(L->op()))
        Out.push_back(binary(L->op(), binary(B->op(), L->lhs(), B->rhs()),
                             binary(B->op(), L->rhs(), B->rhs())));
    if (const auto *R = dyn_cast<BinaryExpr>(B->rhs())) {
      if (isMinOrMax(R->op())) {
        if (B->op() == BinaryOp::Add) {
          // c + minmax(a,b) -> minmax(c + a, c + b)
          Out.push_back(binary(R->op(), add(B->lhs(), R->lhs()),
                               add(B->lhs(), R->rhs())));
        } else {
          // c - minmax(a,b) -> dual(c - a, c - b)
          Out.push_back(binary(dualOp(R->op()), sub(B->lhs(), R->lhs()),
                               sub(B->lhs(), R->rhs())));
        }
      }
    }
  }
}

void ruleFactorAddOutOfMinMax(const ExprRef &E, std::vector<ExprRef> &Out) {
  const auto *B = dyn_cast<BinaryExpr>(E);
  if (!B || !isMinOrMax(B->op()))
    return;
  const auto *L = dyn_cast<BinaryExpr>(B->lhs());
  const auto *R = dyn_cast<BinaryExpr>(B->rhs());
  if (!L || !R || L->op() != R->op())
    return;
  if (L->op() != BinaryOp::Add && L->op() != BinaryOp::Sub)
    return;
  // minmax(a + c, b + c) -> minmax(a, b) + c   (same for -)
  if (exprEquals(L->rhs(), R->rhs()))
    Out.push_back(binary(L->op(), binary(B->op(), L->lhs(), R->lhs()),
                         L->rhs()));
  // max(c + a, c + b) -> c + max(a, b)
  if (L->op() == BinaryOp::Add && exprEquals(L->lhs(), R->lhs()))
    Out.push_back(add(L->lhs(), binary(B->op(), L->rhs(), R->rhs())));
}

void ruleDistributeMul(const ExprRef &E, std::vector<ExprRef> &Out) {
  const auto *B = asBinary(E, BinaryOp::Mul);
  if (B) {
    // (a +- b) * c -> a*c +- b*c ; c * (a +- b) -> c*a +- c*b
    if (const auto *L = dyn_cast<BinaryExpr>(B->lhs()))
      if (L->op() == BinaryOp::Add || L->op() == BinaryOp::Sub)
        Out.push_back(binary(L->op(), mul(L->lhs(), B->rhs()),
                             mul(L->rhs(), B->rhs())));
    if (const auto *R = dyn_cast<BinaryExpr>(B->rhs()))
      if (R->op() == BinaryOp::Add || R->op() == BinaryOp::Sub)
        Out.push_back(binary(R->op(), mul(B->lhs(), R->lhs()),
                             mul(B->lhs(), R->rhs())));
    return;
  }
  const auto *S = dyn_cast<BinaryExpr>(E);
  if (!S || (S->op() != BinaryOp::Add && S->op() != BinaryOp::Sub))
    return;
  const auto *L = asBinary(S->lhs(), BinaryOp::Mul);
  const auto *R = asBinary(S->rhs(), BinaryOp::Mul);
  if (!L || !R)
    return;
  // a*c +- b*c -> (a +- b) * c, and the three operand-order variants.
  if (exprEquals(L->rhs(), R->rhs()))
    Out.push_back(mul(binary(S->op(), L->lhs(), R->lhs()), L->rhs()));
  if (exprEquals(L->lhs(), R->lhs()))
    Out.push_back(mul(L->lhs(), binary(S->op(), L->rhs(), R->rhs())));
  if (exprEquals(L->lhs(), R->rhs()))
    Out.push_back(mul(L->lhs(), binary(S->op(), L->rhs(), R->lhs())));
  if (exprEquals(L->rhs(), R->lhs()))
    Out.push_back(mul(binary(S->op(), L->lhs(), R->rhs()), L->rhs()));
}

void ruleBoolDistribute(const ExprRef &E, std::vector<ExprRef> &Out) {
  const auto *B = dyn_cast<BinaryExpr>(E);
  if (!B || !isBoolOp(B->op()))
    return;
  BinaryOp Op = B->op(), Dual = dualOp(B->op());
  // (a dual b) op c -> (a op c) dual (b op c), both operand positions.
  if (const auto *L = asBinary(B->lhs(), Dual))
    Out.push_back(binary(Dual, binary(Op, L->lhs(), B->rhs()),
                         binary(Op, L->rhs(), B->rhs())));
  if (const auto *R = asBinary(B->rhs(), Dual))
    Out.push_back(binary(Dual, binary(Op, B->lhs(), R->lhs()),
                         binary(Op, B->lhs(), R->rhs())));
  // Factor: (a op c) dual... handled by the same rule with roles swapped on
  // the dual node, so also emit the factored form when both children share a
  // conjunct/disjunct.
  const auto *L = asBinary(B->lhs(), Dual);
  const auto *R2 = asBinary(B->rhs(), Dual);
  if (L && R2) {
    if (exprEquals(L->lhs(), R2->lhs()))
      Out.push_back(binary(Dual, L->lhs(),
                           binary(Op, L->rhs(), R2->rhs())));
    if (exprEquals(L->rhs(), R2->rhs()))
      Out.push_back(binary(Dual, binary(Op, L->lhs(), R2->lhs()),
                           L->rhs()));
  }
}

void ruleNeg(const ExprRef &E, std::vector<ExprRef> &Out) {
  // Expansion direction: -(...) pushed inward.
  if (const auto *U = dyn_cast<UnaryExpr>(E)) {
    if (U->op() != UnaryOp::Neg)
      return;
    if (const auto *B = dyn_cast<BinaryExpr>(U->operand())) {
      switch (B->op()) {
      case BinaryOp::Add: // -(a + b) -> (-a) - b
        Out.push_back(sub(neg(B->lhs()), B->rhs()));
        break;
      case BinaryOp::Sub: // -(a - b) -> b - a
        Out.push_back(sub(B->rhs(), B->lhs()));
        break;
      case BinaryOp::Min: // -min(a,b) -> max(-a,-b)
      case BinaryOp::Max:
        Out.push_back(binary(dualOp(B->op()), neg(B->lhs()), neg(B->rhs())));
        break;
      default:
        break;
      }
    }
    return;
  }
  // Factoring direction: max(-a,-b) -> -min(a,b); (-a) - b -> -(a + b).
  if (const auto *B = dyn_cast<BinaryExpr>(E)) {
    if (isMinOrMax(B->op())) {
      const auto *L = dyn_cast<UnaryExpr>(B->lhs());
      const auto *R = dyn_cast<UnaryExpr>(B->rhs());
      if (L && R && L->op() == UnaryOp::Neg && R->op() == UnaryOp::Neg)
        Out.push_back(neg(binary(dualOp(B->op()), L->operand(),
                                 R->operand())));
    }
    if (B->op() == BinaryOp::Sub) {
      if (const auto *L = dyn_cast<UnaryExpr>(B->lhs()))
        if (L->op() == UnaryOp::Neg)
          Out.push_back(neg(add(L->operand(), B->rhs())));
    }
  }
}

void ruleSubAddNeg(const ExprRef &E, std::vector<ExprRef> &Out) {
  const auto *B = dyn_cast<BinaryExpr>(E);
  if (!B)
    return;
  if (B->op() == BinaryOp::Sub) {
    // a - b -> a + (-b)
    Out.push_back(add(B->lhs(), neg(B->rhs())));
    return;
  }
  if (B->op() == BinaryOp::Add) {
    // a + (-b) -> a - b ; (-a) + b -> b - a
    if (const auto *R = dyn_cast<UnaryExpr>(B->rhs()))
      if (R->op() == UnaryOp::Neg)
        Out.push_back(sub(B->lhs(), R->operand()));
    if (const auto *L = dyn_cast<UnaryExpr>(B->lhs()))
      if (L->op() == UnaryOp::Neg)
        Out.push_back(sub(B->rhs(), L->operand()));
  }
}

void ruleCompareShift(const ExprRef &E, std::vector<ExprRef> &Out) {
  const auto *B = dyn_cast<BinaryExpr>(E);
  if (!B || !isOrderCompare(B->op()))
    return;
  BinaryOp Cmp = B->op();
  // (a + b) cmp c -> a cmp (c - b) and b cmp (c - a)
  if (const auto *L = asBinary(B->lhs(), BinaryOp::Add)) {
    Out.push_back(binary(Cmp, L->lhs(), sub(B->rhs(), L->rhs())));
    Out.push_back(binary(Cmp, L->rhs(), sub(B->rhs(), L->lhs())));
  }
  // (a - b) cmp c -> a cmp (c + b)
  if (const auto *L = asBinary(B->lhs(), BinaryOp::Sub))
    Out.push_back(binary(Cmp, L->lhs(), add(B->rhs(), L->rhs())));
  // a cmp (b + c) -> (a - c) cmp b and (a - b) cmp c
  if (const auto *R = asBinary(B->rhs(), BinaryOp::Add)) {
    Out.push_back(binary(Cmp, sub(B->lhs(), R->rhs()), R->lhs()));
    Out.push_back(binary(Cmp, sub(B->lhs(), R->lhs()), R->rhs()));
  }
  // a cmp (b - c) -> (a + c) cmp b
  if (const auto *R = asBinary(B->rhs(), BinaryOp::Sub))
    Out.push_back(binary(Cmp, add(B->lhs(), R->rhs()), R->lhs()));
  // (-a) cmp c -> (-c) cmp a  (negating both sides flips the order)
  if (const auto *L = dyn_cast<UnaryExpr>(B->lhs()))
    if (L->op() == UnaryOp::Neg)
      Out.push_back(binary(Cmp, neg(B->rhs()), L->operand()));
  if (const auto *R = dyn_cast<UnaryExpr>(B->rhs()))
    if (R->op() == UnaryOp::Neg)
      Out.push_back(binary(Cmp, R->operand(), neg(B->lhs())));
}

void ruleCompareMinMaxExpand(const ExprRef &E, std::vector<ExprRef> &Out) {
  const auto *B = dyn_cast<BinaryExpr>(E);
  if (!B || !isOrderCompare(B->op()))
    return;
  BinaryOp Cmp = B->op();
  // minmax(a,b) cmp c
  if (const auto *L = dyn_cast<BinaryExpr>(B->lhs())) {
    if (isMinOrMax(L->op())) {
      // max(a,b) >= c  <->  a >= c || b >= c ; min: &&. Lt/Le flip.
      bool UseOr = (L->op() == BinaryOp::Max) == isGeLike(Cmp);
      Out.push_back(binary(UseOr ? BinaryOp::Or : BinaryOp::And,
                           binary(Cmp, L->lhs(), B->rhs()),
                           binary(Cmp, L->rhs(), B->rhs())));
    }
  }
  // c cmp minmax(a,b)
  if (const auto *R = dyn_cast<BinaryExpr>(B->rhs())) {
    if (isMinOrMax(R->op())) {
      // c >= max(a,b) <-> c >= a && c >= b ; c >= min(a,b) <-> ||. Lt/Le flip.
      bool UseAnd = (R->op() == BinaryOp::Max) == isGeLike(Cmp);
      Out.push_back(binary(UseAnd ? BinaryOp::And : BinaryOp::Or,
                           binary(Cmp, B->lhs(), R->lhs()),
                           binary(Cmp, B->lhs(), R->rhs())));
    }
  }
}

void ruleCompareMinMaxFactor(const ExprRef &E, std::vector<ExprRef> &Out) {
  const auto *B = dyn_cast<BinaryExpr>(E);
  if (!B || !isBoolOp(B->op()))
    return;
  const auto *L = dyn_cast<BinaryExpr>(B->lhs());
  const auto *R = dyn_cast<BinaryExpr>(B->rhs());
  if (!L || !R || L->op() != R->op() || !isOrderCompare(L->op()))
    return;
  BinaryOp Cmp = L->op();
  bool IsAnd = B->op() == BinaryOp::And;
  // x cmp a && x cmp b -> x cmp minmax(a,b): for >= under &&, x must clear
  // both bounds, so the combined bound is max; under ||, min. Lt/Le dual.
  if (exprEquals(L->lhs(), R->lhs())) {
    BinaryOp Combine = (isGeLike(Cmp) == IsAnd) ? BinaryOp::Max
                                                : BinaryOp::Min;
    Out.push_back(binary(Cmp, L->lhs(), binary(Combine, L->rhs(), R->rhs())));
  }
  // a cmp x && b cmp x -> minmax(a,b) cmp x: for >= under &&, both bounds
  // must clear x, so combine with min. Dual cases accordingly.
  if (exprEquals(L->rhs(), R->rhs())) {
    BinaryOp Combine = (isGeLike(Cmp) == IsAnd) ? BinaryOp::Min
                                                : BinaryOp::Max;
    Out.push_back(binary(Cmp, binary(Combine, L->lhs(), R->lhs()), L->rhs()));
  }
}

void ruleNotPush(const ExprRef &E, std::vector<ExprRef> &Out) {
  const auto *U = dyn_cast<UnaryExpr>(E);
  if (U && U->op() == UnaryOp::Not) {
    if (const auto *B = dyn_cast<BinaryExpr>(U->operand())) {
      if (isBoolOp(B->op())) { // De Morgan
        Out.push_back(binary(dualOp(B->op()), notE(B->lhs()),
                             notE(B->rhs())));
      } else if (isCompareOp(B->op())) {
        Out.push_back(binary(negatedCompare(B->op()), B->lhs(), B->rhs()));
      }
    }
    return;
  }
  // Factoring direction of De Morgan: (!a) op (!b) -> !(a dual b).
  if (const auto *B = dyn_cast<BinaryExpr>(E)) {
    if (!isBoolOp(B->op()))
      return;
    const auto *L = dyn_cast<UnaryExpr>(B->lhs());
    const auto *R = dyn_cast<UnaryExpr>(B->rhs());
    if (L && R && L->op() == UnaryOp::Not && R->op() == UnaryOp::Not)
      Out.push_back(notE(binary(dualOp(B->op()), L->operand(),
                                R->operand())));
  }
}

void ruleIteDistribute(const ExprRef &E, std::vector<ExprRef> &Out) {
  const auto *B = dyn_cast<BinaryExpr>(E);
  if (B) {
    // (c ? x : y) op z -> c ? (x op z) : (y op z), and the mirrored side.
    if (const auto *L = dyn_cast<IteExpr>(B->lhs()))
      Out.push_back(ite(L->cond(), binary(B->op(), L->thenExpr(), B->rhs()),
                        binary(B->op(), L->elseExpr(), B->rhs())));
    if (const auto *R = dyn_cast<IteExpr>(B->rhs()))
      Out.push_back(ite(R->cond(), binary(B->op(), B->lhs(), R->thenExpr()),
                        binary(B->op(), B->lhs(), R->elseExpr())));
    return;
  }
  if (const auto *U = dyn_cast<UnaryExpr>(E)) {
    if (const auto *I = dyn_cast<IteExpr>(U->operand()))
      Out.push_back(ite(I->cond(), UnaryExpr::get(U->op(), I->thenExpr()),
                        UnaryExpr::get(U->op(), I->elseExpr())));
  }
}

void ruleIteFactor(const ExprRef &E, std::vector<ExprRef> &Out) {
  const auto *I = dyn_cast<IteExpr>(E);
  if (!I)
    return;
  const auto *TB = dyn_cast<BinaryExpr>(I->thenExpr());
  const auto *EB = dyn_cast<BinaryExpr>(I->elseExpr());
  if (TB && EB && TB->op() == EB->op()) {
    // c ? (x op z) : (y op z) -> (c ? x : y) op z
    if (exprEquals(TB->rhs(), EB->rhs()))
      Out.push_back(binary(TB->op(), ite(I->cond(), TB->lhs(), EB->lhs()),
                           TB->rhs()));
    // c ? (z op x) : (z op y) -> z op (c ? x : y)
    if (exprEquals(TB->lhs(), EB->lhs()))
      Out.push_back(binary(TB->op(), TB->lhs(),
                           ite(I->cond(), TB->rhs(), EB->rhs())));
  }
  const auto *TU = dyn_cast<UnaryExpr>(I->thenExpr());
  const auto *EU = dyn_cast<UnaryExpr>(I->elseExpr());
  if (TU && EU && TU->op() == EU->op())
    Out.push_back(UnaryExpr::get(
        TU->op(), ite(I->cond(), TU->operand(), EU->operand())));
}

void ruleIteNest(const ExprRef &E, std::vector<ExprRef> &Out) {
  const auto *I = dyn_cast<IteExpr>(E);
  if (!I)
    return;
  // c1 ? (c2 ? x : y) : z -> (c1 && c2) ? x : (c1 ? y : z)
  if (const auto *T = dyn_cast<IteExpr>(I->thenExpr())) {
    Out.push_back(ite(andE(I->cond(), T->cond()), T->thenExpr(),
                      ite(I->cond(), T->elseExpr(), I->elseExpr())));
  }
  // c1 ? x : (c2 ? y : z) -> (c1 || c2) ? (c1 ? x : y) : z
  if (const auto *F = dyn_cast<IteExpr>(I->elseExpr())) {
    Out.push_back(ite(orE(I->cond(), F->cond()),
                      ite(I->cond(), I->thenExpr(), F->thenExpr()),
                      F->elseExpr()));
  }
  // Boolean-typed conditional: c ? x : y -> (c && x) || (!c && y)
  if (I->type() == Type::Bool)
    Out.push_back(orE(andE(I->cond(), I->thenExpr()),
                      andE(notE(I->cond()), I->elseExpr())));
}

void ruleIteAddBare(const ExprRef &E, std::vector<ExprRef> &Out) {
  // ite(c, x + y, x) -> x + ite(c, y, 0): arithmetizes guarded increments
  // (count-1's, max-block-1) so the increment becomes a pure part.
  const auto *I = dyn_cast<IteExpr>(E);
  if (!I || I->type() != Type::Int)
    return;
  auto tryArm = [&](const ExprRef &AddSide, const ExprRef &BareSide,
                    bool AddIsThen) {
    const auto *A = asBinary(AddSide, BinaryOp::Add);
    if (!A)
      return;
    auto emit = [&](const ExprRef &Common, const ExprRef &Guarded) {
      ExprRef Inc = AddIsThen ? ite(I->cond(), Guarded, intConst(0))
                              : ite(I->cond(), intConst(0), Guarded);
      Out.push_back(add(Common, Inc));
    };
    if (exprEquals(A->lhs(), BareSide))
      emit(A->lhs(), A->rhs());
    if (exprEquals(A->rhs(), BareSide))
      emit(A->rhs(), A->lhs());
  };
  tryArm(I->thenExpr(), I->elseExpr(), /*AddIsThen=*/true);
  tryArm(I->elseExpr(), I->thenExpr(), /*AddIsThen=*/false);
}

void ruleCondSplit(const ExprRef &E, std::vector<ExprRef> &Out) {
  // ite(a && b, x, y) -> ite(a, ite(b, x, y), y)   (both operand orders)
  // ite(a || b, x, y) -> ite(a, x, ite(b, x, y))
  // Pulls an unknown-bearing conjunct to its own conditional level so the
  // remaining test becomes a pure part.
  const auto *I = dyn_cast<IteExpr>(E);
  if (!I)
    return;
  if (const auto *C = asBinary(I->cond(), BinaryOp::And)) {
    Out.push_back(ite(C->lhs(), ite(C->rhs(), I->thenExpr(), I->elseExpr()),
                      I->elseExpr()));
    Out.push_back(ite(C->rhs(), ite(C->lhs(), I->thenExpr(), I->elseExpr()),
                      I->elseExpr()));
  }
  if (const auto *C = asBinary(I->cond(), BinaryOp::Or)) {
    Out.push_back(ite(C->lhs(), I->thenExpr(),
                      ite(C->rhs(), I->thenExpr(), I->elseExpr())));
    Out.push_back(ite(C->rhs(), I->thenExpr(),
                      ite(C->lhs(), I->thenExpr(), I->elseExpr())));
  }
}

void ruleMinMaxOfIte(const ExprRef &E, std::vector<ExprRef> &Out) {
  // ite(a cmp b, a, b) <-> min/max(a, b): connects source-level conditional
  // idioms to the min/max algebra.
  if (const auto *I = dyn_cast<IteExpr>(E)) {
    const auto *C = dyn_cast<BinaryExpr>(I->cond());
    if (!C || !isOrderCompare(C->op()) || I->type() != Type::Int)
      return;
    bool CondSelectsGreater = isGeLike(C->op());
    if (exprEquals(C->lhs(), I->thenExpr()) &&
        exprEquals(C->rhs(), I->elseExpr()))
      Out.push_back(binary(CondSelectsGreater ? BinaryOp::Max : BinaryOp::Min,
                           I->thenExpr(), I->elseExpr()));
    if (exprEquals(C->lhs(), I->elseExpr()) &&
        exprEquals(C->rhs(), I->thenExpr()))
      Out.push_back(binary(CondSelectsGreater ? BinaryOp::Min : BinaryOp::Max,
                           I->thenExpr(), I->elseExpr()));
    return;
  }
  if (const auto *B = dyn_cast<BinaryExpr>(E)) {
    if (B->op() == BinaryOp::Max)
      Out.push_back(ite(ge(B->lhs(), B->rhs()), B->lhs(), B->rhs()));
    else if (B->op() == BinaryOp::Min)
      Out.push_back(ite(le(B->lhs(), B->rhs()), B->lhs(), B->rhs()));
  }
}

//===----------------------------------------------------------------------===//
// Engine.
//===----------------------------------------------------------------------===//

/// Rebuilds \p E with child \p Index replaced by \p NewChild.
ExprRef replaceChild(const ExprRef &E, size_t Index, const ExprRef &NewChild) {
  switch (E->kind()) {
  case ExprKind::SeqAccess: {
    const auto *S = cast<SeqAccessExpr>(E);
    assert(Index == 0 && "sequence access has one child");
    return SeqAccessExpr::get(S->seqName(), S->type(), NewChild);
  }
  case ExprKind::Unary:
    assert(Index == 0 && "unary has one child");
    return UnaryExpr::get(cast<UnaryExpr>(E)->op(), NewChild);
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    return Index == 0 ? BinaryExpr::get(B->op(), NewChild, B->rhs())
                      : BinaryExpr::get(B->op(), B->lhs(), NewChild);
  }
  case ExprKind::Ite: {
    const auto *I = cast<IteExpr>(E);
    if (Index == 0)
      return IteExpr::get(NewChild, I->thenExpr(), I->elseExpr());
    if (Index == 1)
      return IteExpr::get(I->cond(), NewChild, I->elseExpr());
    return IteExpr::get(I->cond(), I->thenExpr(), NewChild);
  }
  default:
    assert(false && "leaf has no children");
    return E;
  }
}

/// Collects the raw rewrites of one expression into a single buffer: every
/// rule at every position, positions in pre-order. A rewrite found below
/// the root is rebuilt into a whole expression by replacing the child taken
/// at each ancestor on the way down, innermost first.
class RewriteCollector {
public:
  RewriteCollector(const std::vector<RewriteRule> &Rules,
                   std::vector<uint64_t> *RuleHits, std::vector<ExprRef> &Out)
      : Rules(Rules), RuleHits(RuleHits), Out(Out) {}

  void visit(const ExprRef &E) {
    size_t Start = Out.size();
    for (size_t R = 0; R != Rules.size(); ++R) {
      size_t Before = Out.size();
      Rules[R].Apply(E, Out);
      if (RuleHits)
        (*RuleHits)[R] += Out.size() - Before;
    }
    for (size_t K = Start; K != Out.size(); ++K)
      for (auto Step = Path.rbegin(); Step != Path.rend(); ++Step)
        Out[K] = replaceChild(*Step->first, Step->second, Out[K]);

    switch (E->kind()) {
    case ExprKind::SeqAccess:
      descend(E, 0, cast<SeqAccessExpr>(E)->index());
      break;
    case ExprKind::Unary:
      descend(E, 0, cast<UnaryExpr>(E)->operand());
      break;
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      descend(E, 0, B->lhs());
      descend(E, 1, B->rhs());
      break;
    }
    case ExprKind::Ite: {
      const auto *I = cast<IteExpr>(E);
      descend(E, 0, I->cond());
      descend(E, 1, I->thenExpr());
      descend(E, 2, I->elseExpr());
      break;
    }
    default:
      break;
    }
  }

private:
  void descend(const ExprRef &Parent, size_t Index, const ExprRef &Child) {
    Path.emplace_back(&Parent, Index);
    visit(Child);
    Path.pop_back();
  }

  const std::vector<RewriteRule> &Rules;
  std::vector<uint64_t> *RuleHits;
  std::vector<ExprRef> &Out;
  /// Ancestors of the position being visited, root first, each with the
  /// index of the child the walk descended into.
  std::vector<std::pair<const ExprRef *, size_t>> Path;
};

} // namespace

const std::vector<RewriteRule> &parsynt::figure6Rules() {
  static const std::vector<RewriteRule> Rules = {
      {"commute", ruleCommute},
      {"associate", ruleAssociate},
      {"add-over-minmax", ruleDistributeAddOverMinMax},
      {"factor-add-minmax", ruleFactorAddOutOfMinMax},
      {"mul-distribute", ruleDistributeMul},
      {"bool-distribute", ruleBoolDistribute},
      {"neg-push", ruleNeg},
      {"sub-addneg", ruleSubAddNeg},
      {"compare-shift", ruleCompareShift},
      {"compare-minmax-expand", ruleCompareMinMaxExpand},
      {"compare-minmax-factor", ruleCompareMinMaxFactor},
      {"not-push", ruleNotPush},
      {"ite-distribute", ruleIteDistribute},
      {"ite-factor", ruleIteFactor},
      {"ite-nest", ruleIteNest},
      {"ite-add-bare", ruleIteAddBare},
      {"cond-split", ruleCondSplit},
      {"minmax-ite", ruleMinMaxOfIte},
  };
  return Rules;
}

std::vector<ExprRef> parsynt::allRewrites(const ExprRef &E,
                                          const std::vector<RewriteRule> &Rules,
                                          std::vector<uint64_t> *RuleHits) {
  std::vector<ExprRef> Out;
  RewriteCollector(Rules, RuleHits, Out).visit(E);
  // Simplify and deduplicate in place, keeping first occurrences.
  std::unordered_set<ExprRef, ExprHash, ExprEqual> Seen;
  Seen.reserve(Out.size());
  size_t Kept = 0;
  for (size_t K = 0; K != Out.size(); ++K) {
    ExprRef Simplified = simplify(Out[K]);
    if (Seen.insert(Simplified).second)
      Out[Kept++] = std::move(Simplified);
  }
  Out.resize(Kept);
  return Out;
}
