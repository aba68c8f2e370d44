//===- proof/DafnyEmit.cpp - Figure-7 Dafny artifact emitter --------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "proof/DafnyEmit.h"
#include "ir/ExprOps.h"

#include <set>
#include <sstream>

using namespace parsynt;

namespace {

/// Dafny-safe identifier for a state variable's model function.
std::string funcName(const std::string &Var) {
  std::string Clean;
  for (char C : Var)
    Clean += (std::isalnum(static_cast<unsigned char>(C)) ? C : '_');
  Clean[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(
      Clean[0])));
  return "F_" + Clean;
}

std::string joinName(const std::string &Var) {
  return "Join_" + funcName(Var).substr(2);
}

std::string dafnyType(Type Ty) { return Ty == Type::Int ? "int" : "bool"; }

/// Renders an expression in Dafny syntax. \p StateRef maps a state-variable
/// read; \p SeqElem renders a sequence element access.
class DafnyPrinter {
public:
  std::function<std::string(const std::string &)> VarRef;

  std::string print(const ExprRef &E) const {
    switch (E->kind()) {
    case ExprKind::IntConst:
      return std::to_string(cast<IntConstExpr>(E)->value());
    case ExprKind::BoolConst:
      return cast<BoolConstExpr>(E)->value() ? "true" : "false";
    case ExprKind::Var:
      return VarRef(cast<VarExpr>(E)->name());
    case ExprKind::SeqAccess:
      // Inside a rightwards model the element read is the last one.
      return cast<SeqAccessExpr>(E)->seqName() + "[|" +
             cast<SeqAccessExpr>(E)->seqName() + "|-1]";
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      return std::string(U->op() == UnaryOp::Neg ? "-" : "!") + "(" +
             print(U->operand()) + ")";
    }
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      if (B->op() == BinaryOp::Min || B->op() == BinaryOp::Max)
        return std::string(B->op() == BinaryOp::Min ? "MinI" : "MaxI") + "(" +
               print(B->lhs()) + ", " + print(B->rhs()) + ")";
      // Appended piece by piece: GCC 12 reports a false -Wrestrict overlap
      // on the inlined `"(" + std::string&&` in a Release build.
      std::string Out = "(";
      Out += print(B->lhs());
      Out += " ";
      Out += binaryOpName(B->op());
      Out += " ";
      Out += print(B->rhs());
      Out += ")";
      return Out;
    }
    case ExprKind::Ite: {
      const auto *I = cast<IteExpr>(E);
      return "(if " + print(I->cond()) + " then " + print(I->thenExpr()) +
             " else " + print(I->elseExpr()) + ")";
    }
    }
    return "?";
  }
};

} // namespace

std::string parsynt::emitDafnyProof(const Loop &L,
                                    const std::vector<ExprRef> &Join) {
  std::ostringstream OS;
  OS << "// Auto-generated homomorphism proof for loop '" << L.Name
     << "'\n";
  OS << "// (Figure-7 template of 'Synthesis of Divide and Conquer "
        "Parallelism for Loops', PLDI 2017)\n\n";
  OS << "function MinI(a: int, b: int): int { if a < b then a else b }\n";
  OS << "function MaxI(a: int, b: int): int { if a > b then a else b }\n\n";

  // Function signature pieces shared by every model function: one seq<int>
  // per loop sequence plus the scalar parameters.
  std::string SeqArgs, SeqActualsS, SeqActualsT, SeqPrefixT;
  for (const SeqDecl &S : L.Sequences) {
    if (!SeqArgs.empty()) {
      SeqArgs += ", ";
      SeqActualsS += ", ";
      SeqActualsT += ", ";
      SeqPrefixT += ", ";
    }
    SeqArgs += S.Name + ": seq<int>";
    SeqActualsS += S.Name + "_s";
    SeqActualsT += S.Name + "_t";
    SeqPrefixT += S.Name + "_t[..|" + S.Name + "_t|-1]";
  }
  std::string ParamArgs, ParamActuals;
  for (const ParamDecl &P : L.Params) {
    ParamArgs += ", " + P.Name + ": " + dafnyType(P.Ty);
    ParamActuals += ", " + P.Name;
  }

  const std::string Seq0 = L.Sequences.front().Name;

  // Model functions: F_v(s) == value of v after running the loop over s.
  std::string PrefixCall; // actuals "s[..|s|-1], ..."
  for (const SeqDecl &S : L.Sequences) {
    if (!PrefixCall.empty())
      PrefixCall += ", ";
    PrefixCall += S.Name + "[..|" + S.Name + "|-1]";
  }
  for (const Equation &Eq : L.Equations) {
    DafnyPrinter Printer;
    Printer.VarRef = [&](const std::string &Name) -> std::string {
      if (L.findEquation(Name))
        return funcName(Name) + "(" + PrefixCall + ParamActuals + ")";
      if (Name == L.IndexName)
        return "(|" + Seq0 + "|-1)";
      return Name; // parameter
    };
    OS << "function " << funcName(Eq.Name) << "(" << SeqArgs << ParamArgs
       << "): " << dafnyType(Eq.Ty) << "\n";
    OS << "{\n  if |" << Seq0 << "| == 0 then "
       << DafnyPrinter{[](const std::string &N) { return N; }}.print(Eq.Init)
       << "\n  else " << Printer.print(Eq.Update) << "\n}\n\n";
  }

  // Join functions: one per state variable, over all left/right values.
  std::string JoinArgs, JoinActualsST;
  for (const Equation &Eq : L.Equations) {
    if (!JoinArgs.empty()) {
      JoinArgs += ", ";
      JoinActualsST += ", ";
    }
    JoinArgs += Eq.Name + "_l: " + dafnyType(Eq.Ty);
    JoinActualsST += funcName(Eq.Name) + "(" + SeqActualsS + ParamActuals +
                     ")";
  }
  for (const Equation &Eq : L.Equations) {
    JoinArgs += ", " + Eq.Name + "_r: " + dafnyType(Eq.Ty);
    JoinActualsST +=
        ", " + funcName(Eq.Name) + "(" + SeqActualsT + ParamActuals + ")";
  }
  for (size_t I = 0; I != L.Equations.size(); ++I) {
    DafnyPrinter Printer;
    Printer.VarRef = [](const std::string &Name) { return Name; };
    OS << "function " << joinName(L.Equations[I].Name) << "(" << JoinArgs
       << ParamArgs << "): " << dafnyType(L.Equations[I].Ty) << "\n{\n  "
       << Printer.print(Join[I]) << "\n}\n\n";
  }

  // Homomorphism lemmas, one per state variable, by induction on |t|.
  std::string LemmaSeqArgs, ConcatActuals, RecCallActuals;
  for (const SeqDecl &S : L.Sequences) {
    if (!LemmaSeqArgs.empty()) {
      LemmaSeqArgs += ", ";
      ConcatActuals += ", ";
      RecCallActuals += ", ";
    }
    LemmaSeqArgs += S.Name + "_s: seq<int>, " + S.Name + "_t: seq<int>";
    ConcatActuals += S.Name + "_s + " + S.Name + "_t";
    RecCallActuals +=
        S.Name + "_s, " + S.Name + "_t[..|" + S.Name + "_t|-1]";
  }
  for (size_t I = 0; I != L.Equations.size(); ++I) {
    const Equation &Eq = L.Equations[I];
    // Dependency rule: recall the homomorphism lemma of every state
    // variable the update or the join component reads.
    std::set<std::string> Deps;
    for (const std::string &V : collectVars(Eq.Update, VarClass::State))
      if (V != Eq.Name)
        Deps.insert(V);
    for (const std::string &V : collectAllVars(Join[I])) {
      for (const Equation &Other : L.Equations) {
        if (Other.Name == Eq.Name)
          continue;
        if (V == splitName(Other.Name, Side::Left) ||
            V == splitName(Other.Name, Side::Right))
          Deps.insert(Other.Name);
      }
    }

    OS << "lemma Hom_" << funcName(Eq.Name).substr(2) << "(" << LemmaSeqArgs
       << ParamArgs << ")\n";
    if (L.Sequences.size() > 1) {
      OS << "  requires ";
      for (size_t S = 1; S != L.Sequences.size(); ++S)
        OS << "|" << L.Sequences[0].Name << "_s| == |"
           << L.Sequences[S].Name << "_s| && |" << L.Sequences[0].Name
           << "_t| == |" << L.Sequences[S].Name << "_t|";
      OS << "\n";
    }
    OS << "  ensures " << funcName(Eq.Name) << "(" << ConcatActuals
       << ParamActuals << ") ==\n          " << joinName(Eq.Name) << "("
       << JoinActualsST << ParamActuals << ")\n";
    OS << "{\n";
    OS << "  if " << Seq0 << "_t == [] {\n";
    for (const SeqDecl &S : L.Sequences)
      OS << "    assert " << S.Name << "_s + [] == " << S.Name << "_s;\n";
    OS << "  } else {\n";
    OS << "    // Induction step: peel off the last element of t.\n";
    for (const SeqDecl &S : L.Sequences)
      OS << "    assert (" << S.Name << "_s + " << S.Name << "_t[..|"
         << S.Name << "_t|-1]) + [" << S.Name << "_t[|" << S.Name
         << "_t|-1]] == " << S.Name << "_s + " << S.Name << "_t;\n";
    OS << "    Hom_" << funcName(Eq.Name).substr(2) << "(" << RecCallActuals
       << ParamActuals << ");\n";
    for (const std::string &Dep : Deps)
      OS << "    Hom_" << funcName(Dep).substr(2) << "(" << RecCallActuals
         << ParamActuals << ");\n";
    OS << "  }\n}\n\n";
  }
  return OS.str();
}
