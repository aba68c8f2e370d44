//===- analysis/Verifier.cpp - IR structural invariant checks -------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "ir/ExprOps.h"
#include "observe/Metrics.h"
#include "observe/Tracer.h"

#include <set>
#include <sstream>

using namespace parsynt;

const char *parsynt::verifyPhaseName(VerifyPhase Phase) {
  switch (Phase) {
  case VerifyPhase::AfterFrontend:
    return "after-frontend";
  case VerifyPhase::AfterNormalize:
    return "after-normalize";
  case VerifyPhase::AfterLift:
    return "after-lift";
  case VerifyPhase::BeforeCodegen:
    return "before-codegen";
  }
  return "unknown-phase";
}

std::string VerifierReport::str() const {
  std::ostringstream OS;
  OS << "IR verifier (" << verifyPhaseName(Phase) << "): ";
  if (ok()) {
    OS << "ok";
    return OS.str();
  }
  OS << Violations.size() << " violation(s)\n";
  for (const std::string &V : Violations)
    OS << "  - " << V << "\n";
  return OS.str();
}

namespace {

/// Accumulates violations with a "where" prefix naming the enclosing
/// equation/component, so a report pinpoints the offending expression.
class Checker {
public:
  Checker(VerifierReport &Report) : Report(Report) {}

  void violation(const std::string &Where, const std::string &What) {
    Report.Violations.push_back(Where + ": " + What);
  }

  /// Recursively checks type consistency of every node under \p E. Returns
  /// the node's (cached) type; the recomputation happens per node kind.
  void checkTypes(const std::string &Where, const ExprRef &E) {
    if (!E) {
      violation(Where, "null expression node");
      return;
    }
    switch (E->kind()) {
    case ExprKind::IntConst:
      if (E->type() != Type::Int)
        violation(Where, "integer literal typed " + typeNameOf(E));
      break;
    case ExprKind::BoolConst:
      if (E->type() != Type::Bool)
        violation(Where, "boolean literal typed " + typeNameOf(E));
      break;
    case ExprKind::Var:
      break; // declaration consistency is checked by the name pass
    case ExprKind::SeqAccess: {
      const auto *A = cast<SeqAccessExpr>(E);
      checkTypes(Where, A->index());
      if (A->index() && A->index()->type() != Type::Int)
        violation(Where, "sequence '" + A->seqName() +
                             "' subscripted with a non-integer index");
      break;
    }
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      checkTypes(Where, U->operand());
      Type Expected = U->op() == UnaryOp::Neg ? Type::Int : Type::Bool;
      if (U->operand() && U->operand()->type() != Expected)
        violation(Where, std::string("operand of '") + unaryOpName(U->op()) +
                             "' typed " + typeNameOf(U->operand()));
      if (E->type() != Expected)
        violation(Where, std::string("result of '") + unaryOpName(U->op()) +
                             "' typed " + typeNameOf(E));
      break;
    }
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      checkTypes(Where, B->lhs());
      checkTypes(Where, B->rhs());
      if (!B->lhs() || !B->rhs())
        break;
      Type L = B->lhs()->type(), R = B->rhs()->type();
      const char *Op = binaryOpName(B->op());
      if (isArithOp(B->op()) && (L != Type::Int || R != Type::Int))
        violation(Where, std::string("arithmetic '") + Op +
                             "' over non-integer operands");
      if (isBoolOp(B->op()) && (L != Type::Bool || R != Type::Bool))
        violation(Where, std::string("boolean '") + Op +
                             "' over non-boolean operands");
      if (isCompareOp(B->op())) {
        bool Equality = B->op() == BinaryOp::Eq || B->op() == BinaryOp::Ne;
        if (Equality ? (L != R) : (L != Type::Int || R != Type::Int))
          violation(Where, std::string("comparison '") + Op +
                               "' over incompatible operands");
      }
      if (E->type() != binaryResultType(B->op()))
        violation(Where, std::string("result of '") + Op + "' typed " +
                             typeNameOf(E));
      break;
    }
    case ExprKind::Ite: {
      const auto *I = cast<IteExpr>(E);
      checkTypes(Where, I->cond());
      checkTypes(Where, I->thenExpr());
      checkTypes(Where, I->elseExpr());
      if (I->cond() && I->cond()->type() != Type::Bool)
        violation(Where, "conditional with a non-boolean condition");
      if (I->thenExpr() && I->elseExpr() &&
          I->thenExpr()->type() != I->elseExpr()->type())
        violation(Where, "conditional arms of different types");
      if (I->thenExpr() && E->type() != I->thenExpr()->type())
        violation(Where, "conditional typed unlike its arms");
      break;
    }
    }
  }

  /// Reports every VarClass::Unknown reference under \p E.
  void checkNoUnknowns(const std::string &Where, const ExprRef &E) {
    if (!E)
      return;
    forEachNode(E, [&](const ExprRef &Node) {
      if (const auto *V = dyn_cast<VarExpr>(Node))
        if (V->varClass() == VarClass::Unknown)
          violation(Where, "unknown-marked variable '" + V->name() +
                               "' escaped the lift phase");
    });
  }

private:
  static std::string typeNameOf(const ExprRef &E) {
    return E ? typeName(E->type()) : "<null>";
  }

  VerifierReport &Report;
};

} // namespace

VerifierReport parsynt::verifyLoop(const Loop &L, VerifyPhase Phase) {
  VerifierReport Report;
  Report.Phase = Phase;
  Span VerifySpan("verifyLoop", trace::Analysis);
  VerifySpan.attr("loop", L.Name.empty() ? "<loop>" : L.Name);
  VerifySpan.attr("phase", verifyPhaseName(Phase));
  struct VerifyFinisher {
    Span &S;
    const VerifierReport &R;
    ~VerifyFinisher() {
      S.attr("ok", R.ok());
      S.attr("violations", uint64_t(R.Violations.size()));
      MetricsRegistry &M = MetricsRegistry::global();
      M.counter("analysis.verify.passes").inc();
      M.counter("analysis.verify.violations").add(R.Violations.size());
    }
  } Finish{VerifySpan, Report};
  Checker C(Report);

  // Declaration table and uniqueness.
  std::set<std::string> Declared;
  auto declare = [&](const std::string &Name, const char *What) {
    if (!Declared.insert(Name).second)
      C.violation("loop '" + L.Name + "'",
                  std::string(What) + " '" + Name + "' redeclares a name");
  };
  for (const SeqDecl &S : L.Sequences)
    declare(S.Name, "sequence");
  for (const ParamDecl &P : L.Params)
    declare(P.Name, "parameter");
  declare(L.IndexName, "index");
  std::set<std::string> StateNames, ParamNames;
  for (const Equation &Eq : L.Equations) {
    declare(Eq.Name, "state variable");
    StateNames.insert(Eq.Name);
  }
  for (const ParamDecl &P : L.Params)
    ParamNames.insert(P.Name);
  for (const std::string &Out : L.Outputs)
    if (!StateNames.count(Out))
      C.violation("loop '" + L.Name + "'",
                  "output '" + Out + "' names no state variable");

  for (const Equation &Eq : L.Equations) {
    std::string InitWhere = "init of '" + Eq.Name + "'";
    std::string UpdWhere = "update of '" + Eq.Name + "'";
    if (!Eq.Init || !Eq.Update) {
      C.violation("equation '" + Eq.Name + "'", "null init or update");
      continue;
    }

    // Type consistency, node by node, plus the equation's own type.
    C.checkTypes(InitWhere, Eq.Init);
    C.checkTypes(UpdWhere, Eq.Update);
    if (Eq.Init->type() != Eq.Ty)
      C.violation(InitWhere, std::string("typed ") + typeName(Eq.Init->type()) +
                                 ", equation declares " + typeName(Eq.Ty));
    if (Eq.Update->type() != Eq.Ty)
      C.violation(UpdWhere, std::string("typed ") +
                                typeName(Eq.Update->type()) +
                                ", equation declares " + typeName(Eq.Ty));

    // Unknowns never appear in a Loop, whatever the phase.
    C.checkNoUnknowns(InitWhere, Eq.Init);
    C.checkNoUnknowns(UpdWhere, Eq.Update);

    // Inits run before the first iteration: parameters only.
    for (const std::string &V : collectAllVars(Eq.Init))
      if (!ParamNames.count(V))
        C.violation(InitWhere, "references '" + V + "', not a parameter");
    if (!collectSeqNames(Eq.Init).empty())
      C.violation(InitWhere, "reads a sequence before the loop");

    // Updates: no dangling names, and every variable's recorded type agrees
    // with its declaration.
    forEachNode(Eq.Update, [&](const ExprRef &Node) {
      const auto *V = dyn_cast<VarExpr>(Node);
      if (!V)
        return;
      const std::string &Name = V->name();
      if (const Equation *Def = L.findEquation(Name)) {
        if (V->type() != Def->Ty)
          C.violation(UpdWhere, "reads state '" + Name + "' as " +
                                    typeName(V->type()) + ", declared " +
                                    typeName(Def->Ty));
      } else if (ParamNames.count(Name)) {
        for (const ParamDecl &P : L.Params)
          if (P.Name == Name && V->type() != P.Ty)
            C.violation(UpdWhere, "reads parameter '" + Name + "' as " +
                                      typeName(V->type()) + ", declared " +
                                      typeName(P.Ty));
      } else if (Name != L.IndexName) {
        C.violation(UpdWhere, "dangling reference to '" + Name + "'");
      }
    });

    // Single-pass read-only access: s[<index var>] over a declared sequence.
    forEachNode(Eq.Update, [&](const ExprRef &Node) {
      const auto *A = dyn_cast<SeqAccessExpr>(Node);
      if (!A)
        return;
      if (!L.hasSequence(A->seqName()))
        C.violation(UpdWhere,
                    "reads undeclared sequence '" + A->seqName() + "'");
      const auto *Idx = dyn_cast<VarExpr>(A->index());
      if (!Idx || Idx->name() != L.IndexName)
        C.violation(UpdWhere, "sequence '" + A->seqName() +
                                  "' subscripted by '" +
                                  exprToString(A->index()) +
                                  "', not the loop index (single-pass "
                                  "fragment admits only s[" +
                                  L.IndexName + "])");
    });
  }
  return Report;
}

VerifierReport parsynt::verifyExpr(const ExprRef &E, VerifyPhase Phase,
                                   bool AllowUnknowns) {
  VerifierReport Report;
  Report.Phase = Phase;
  Checker C(Report);
  C.checkTypes("expression", E);
  if (!AllowUnknowns)
    C.checkNoUnknowns("expression", E);
  return Report;
}

VerifierReport parsynt::verifyJoin(const Loop &L,
                                   const std::vector<ExprRef> &Components) {
  VerifierReport Report;
  Report.Phase = VerifyPhase::BeforeCodegen;
  Checker C(Report);

  if (Components.size() != L.Equations.size()) {
    C.violation("join", "has " + std::to_string(Components.size()) +
                            " components for " +
                            std::to_string(L.Equations.size()) + " equations");
    return Report;
  }

  std::set<std::string> Allowed;
  for (const Equation &Eq : L.Equations) {
    Allowed.insert(splitName(Eq.Name, Side::Left));
    Allowed.insert(splitName(Eq.Name, Side::Right));
  }
  for (const ParamDecl &P : L.Params)
    Allowed.insert(P.Name);

  for (size_t I = 0; I != Components.size(); ++I) {
    std::string Where = "join component for '" + L.Equations[I].Name + "'";
    const ExprRef &Comp = Components[I];
    if (!Comp) {
      C.violation(Where, "is null");
      continue;
    }
    C.checkTypes(Where, Comp);
    C.checkNoUnknowns(Where, Comp);
    if (Comp->type() != L.Equations[I].Ty)
      C.violation(Where, std::string("typed ") + typeName(Comp->type()) +
                             ", equation declares " +
                             typeName(L.Equations[I].Ty));
    for (const std::string &V : collectAllVars(Comp))
      if (!Allowed.count(V))
        C.violation(Where, "references '" + V +
                               "', not a split value or parameter");
    if (!collectSeqNames(Comp).empty())
      C.violation(Where, "reads a sequence (joins see only split states)");
  }
  return Report;
}
