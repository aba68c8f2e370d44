//===- synth/Sketch.cpp - Sketch compilation C(E) -------------------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "synth/Sketch.h"
#include "ir/ExprOps.h"

#include <set>

using namespace parsynt;

namespace {

class SketchBuilder {
public:
  explicit SketchBuilder(std::vector<Hole> &Holes) : Holes(Holes) {}

  ExprRef compile(const ExprRef &E) {
    switch (E->kind()) {
    case ExprKind::IntConst:
    case ExprKind::BoolConst:
      return makeHole(E->type(), /*RightOnly=*/true);
    case ExprKind::Var: {
      const auto *V = cast<VarExpr>(E);
      return makeHole(V->type(),
                      /*RightOnly=*/V->varClass() != VarClass::State);
    }
    case ExprKind::SeqAccess:
      return makeHole(E->type(), /*RightOnly=*/true);
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      return UnaryExpr::get(U->op(), compile(U->operand()));
    }
    case ExprKind::Binary: {
      // Explicit sequencing: holes are numbered left to right regardless of
      // the compiler's argument evaluation order.
      const auto *B = cast<BinaryExpr>(E);
      ExprRef Lhs = compile(B->lhs());
      ExprRef Rhs = compile(B->rhs());
      return BinaryExpr::get(B->op(), std::move(Lhs), std::move(Rhs));
    }
    case ExprKind::Ite: {
      const auto *I = cast<IteExpr>(E);
      ExprRef Cond = compile(I->cond());
      ExprRef Then = compile(I->thenExpr());
      ExprRef Else = compile(I->elseExpr());
      return IteExpr::get(std::move(Cond), std::move(Then), std::move(Else));
    }
    }
    return E;
  }

private:
  ExprRef makeHole(Type Ty, bool RightOnly) {
    std::string Name = "?h" + std::to_string(Holes.size());
    Holes.push_back({Name, Ty, RightOnly});
    return inputVar(Name, Ty);
  }

  std::vector<Hole> &Holes;
};

} // namespace

Sketch parsynt::compileSketch(const Equation &Eq) {
  Sketch Result;
  SketchBuilder Builder(Result.Holes);
  Result.Body = Builder.compile(Eq.Update);
  return Result;
}

namespace {

/// Pushes a target down through a sketch body whose holes before Known
/// are assigned and the rest unknown.
class TargetPusher {
public:
  TargetPusher(const Sketch &S, size_t Known) {
    for (size_t K = Known; K != S.Holes.size(); ++K)
      Unknown.insert(S.Holes[K].Name);
  }

  /// A term over the known holes, the body's other variables and \p T that
  /// holds on every row where \p E equals \p T.
  ExprRef need(const ExprRef &E, const ExprRef &T) const {
    if (known(E))
      return eq(E, T);
    switch (E->kind()) {
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      return need(U->operand(), U->op() == UnaryOp::Neg ? neg(T) : notE(T));
    }
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      const bool LeftKnown = known(B->lhs());
      if (!LeftKnown && !known(B->rhs()))
        return True;
      // The known operand K and the target decide what the other must be.
      const ExprRef &K = LeftKnown ? B->lhs() : B->rhs();
      const ExprRef &Other = LeftKnown ? B->rhs() : B->lhs();
      switch (B->op()) {
      case BinaryOp::Add:
        return need(Other, sub(T, K));
      case BinaryOp::Sub:
        return need(Other, LeftKnown ? sub(K, T) : add(T, K));
      case BinaryOp::Max: // K below the target: the other operand is it
        return choose(lt(K, T), need(Other, T), eq(K, T));
      case BinaryOp::Min:
        return choose(gt(K, T), need(Other, T), eq(K, T));
      case BinaryOp::And:
        return choose(K, need(Other, T), notE(T));
      case BinaryOp::Or:
        return choose(K, T, need(Other, T));
      default: // `*` and `/` do not invert; a rule for `==`/`!=` spared nothing
        return True;
      }
    }
    case ExprKind::Ite: {
      const auto *I = cast<IteExpr>(E);
      ExprRef Then = need(I->thenExpr(), T);
      ExprRef Else = need(I->elseExpr(), T);
      if (known(I->cond()))
        return choose(I->cond(), Then, Else);
      return Then == True || Else == True ? True : orE(Then, Else);
    }
    default: // an unknown hole
      return True;
    }
  }

private:
  bool known(const ExprRef &E) const {
    bool Known = true;
    forEachNode(E, [&](const ExprRef &Node) {
      if (const auto *V = dyn_cast<VarExpr>(Node))
        Known = Known && !Unknown.count(V->name());
    });
    return Known;
  }

  static ExprRef choose(const ExprRef &C, const ExprRef &A, const ExprRef &B) {
    return A == B ? A : ite(C, A, B);
  }

  std::set<std::string> Unknown;
  const ExprRef True = boolConst(true);
};

} // namespace

std::vector<ExprRef> parsynt::prefixConditions(const Sketch &S,
                                               const ExprRef &Target) {
  std::vector<ExprRef> Conditions;
  for (size_t Known = 1; Known <= S.Holes.size(); ++Known)
    Conditions.push_back(TargetPusher(S, Known).need(S.Body, Target));
  return Conditions;
}

std::string parsynt::sketchToString(const Sketch &S) {
  Substitution Subst;
  for (const Hole &H : S.Holes)
    Subst[H.Name] = inputVar(H.RightOnly ? "??R" : "??LR", H.Ty);
  return exprToString(substitute(S.Body, Subst));
}
