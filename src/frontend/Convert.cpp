//===- frontend/Convert.cpp - Imperative -> equations (Appendix A) --------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "frontend/Convert.h"
#include "analysis/Lint.h"
#include "analysis/Verifier.h"
#include "ir/ExprOps.h"
#include "observe/Metrics.h"
#include "observe/Tracer.h"

#include <map>
#include <set>

using namespace parsynt;
using namespace parsynt::surface;

namespace {

/// Carries the conversion state: symbol classes, inferred types, and the
/// current symbolic value of each state variable.
class Converter {
public:
  Converter(const SProgram &Program, std::string LoopName,
            DiagnosticEngine &Diags)
      : Program(Program), LoopName(std::move(LoopName)), Diags(Diags) {}

  std::optional<Loop> run();

private:
  void error(const std::string &Message, unsigned Line, unsigned Column) {
    Diags.error(Message, Line, Column);
    Ok = false;
  }

  /// Collects the names assigned anywhere in \p Stmts into StateNames, in
  /// first-assignment order.
  void collectAssigned(const std::vector<SStmt> &Stmts);

  /// Infers the type of \p E bottom-up. Registers unknown names as int
  /// parameters. Returns nullopt after reporting an error.
  std::optional<Type> inferType(const SExpr &E);

  /// Converts \p E to IR under the current-value map \p Cur (state-variable
  /// reads resolve through Cur).
  ExprRef convertExpr(const SExpr &E,
                      const std::map<std::string, ExprRef> &Cur);

  /// Processes a statement list per Appendix A, updating \p Cur in place.
  bool convertStmts(const std::vector<SStmt> &Stmts,
                    std::map<std::string, ExprRef> &Cur);

  const SProgram &Program;
  std::string LoopName;
  DiagnosticEngine &Diags;
  bool Ok = true;

  std::vector<std::string> StateNames; // first-assignment order (loop body)
  std::set<std::string> StateSet;
  std::set<std::string> ParamSet;
  std::set<std::string> SeqSet;
  std::map<std::string, Type> Types; // state vars and params
};

void Converter::collectAssigned(const std::vector<SStmt> &Stmts) {
  for (const SStmt &S : Stmts) {
    if (S.Kind == SStmtKind::Assign) {
      if (S.TargetIndex) {
        // Backstop for callers that skip the linter; lintProgram reports
        // sequence writes with a richer message before conversion runs.
        error("sequence '" + S.Target + "' is written", S.Line, S.Column);
        continue;
      }
      if (StateSet.insert(S.Target).second)
        StateNames.push_back(S.Target);
      continue;
    }
    collectAssigned(S.Then);
    collectAssigned(S.Else);
  }
}

std::optional<Type> Converter::inferType(const SExpr &E) {
  switch (E.Kind) {
  case SExprKind::IntLit:
    return Type::Int;
  case SExprKind::BoolLit:
    return Type::Bool;
  case SExprKind::Name: {
    if (E.Name == "MAX_INT" || E.Name == "MIN_INT")
      return Type::Int;
    if (E.Name == Program.IndexName)
      return Type::Int;
    auto It = Types.find(E.Name);
    if (It != Types.end())
      return It->second;
    if (StateSet.count(E.Name)) {
      error("state variable '" + E.Name + "' used before initialization",
            E.Line, E.Column);
      return std::nullopt;
    }
    // Unknown read-only name: an implicit int parameter.
    ParamSet.insert(E.Name);
    Types[E.Name] = Type::Int;
    return Type::Int;
  }
  case SExprKind::Subscript: {
    SeqSet.insert(E.Name);
    auto IndexTy = inferType(*E.Args[0]);
    if (!IndexTy)
      return std::nullopt;
    if (*IndexTy != Type::Int) {
      error("sequence index must be an integer", E.Line, E.Column);
      return std::nullopt;
    }
    return Type::Int;
  }
  case SExprKind::Unary: {
    auto OperandTy = inferType(*E.Args[0]);
    if (!OperandTy)
      return std::nullopt;
    Type Expected = E.OpText == "-" ? Type::Int : Type::Bool;
    if (*OperandTy != Expected) {
      error("operand of '" + E.OpText + "' has the wrong type", E.Line,
            E.Column);
      return std::nullopt;
    }
    return Expected;
  }
  case SExprKind::Binary: {
    auto LhsTy = inferType(*E.Args[0]);
    auto RhsTy = inferType(*E.Args[1]);
    if (!LhsTy || !RhsTy)
      return std::nullopt;
    const std::string &Op = E.OpText;
    if (Op == "+" || Op == "-" || Op == "*" || Op == "/") {
      if (*LhsTy != Type::Int || *RhsTy != Type::Int) {
        error("arithmetic on non-integer operands", E.Line, E.Column);
        return std::nullopt;
      }
      return Type::Int;
    }
    if (Op == "&&" || Op == "||") {
      if (*LhsTy != Type::Bool || *RhsTy != Type::Bool) {
        error("boolean operator on non-boolean operands", E.Line, E.Column);
        return std::nullopt;
      }
      return Type::Bool;
    }
    if (Op == "==" || Op == "!=") {
      if (*LhsTy != *RhsTy) {
        error("equality between values of different types", E.Line,
              E.Column);
        return std::nullopt;
      }
      return Type::Bool;
    }
    // <, <=, >, >=
    if (*LhsTy != Type::Int || *RhsTy != Type::Int) {
      error("comparison on non-integer operands", E.Line, E.Column);
      return std::nullopt;
    }
    return Type::Bool;
  }
  case SExprKind::Ternary: {
    auto CondTy = inferType(*E.Args[0]);
    auto ThenTy = inferType(*E.Args[1]);
    auto ElseTy = inferType(*E.Args[2]);
    if (!CondTy || !ThenTy || !ElseTy)
      return std::nullopt;
    if (*CondTy != Type::Bool || *ThenTy != *ElseTy) {
      error("ill-typed conditional expression", E.Line, E.Column);
      return std::nullopt;
    }
    return *ThenTy;
  }
  case SExprKind::Call: {
    if ((E.Name == "min" || E.Name == "max") && E.Args.size() == 2) {
      auto ATy = inferType(*E.Args[0]);
      auto BTy = inferType(*E.Args[1]);
      if (!ATy || !BTy)
        return std::nullopt;
      if (*ATy != Type::Int || *BTy != Type::Int) {
        error(E.Name + " expects integer arguments", E.Line, E.Column);
        return std::nullopt;
      }
      return Type::Int;
    }
    if (E.Name == "abs" && E.Args.size() == 1) {
      auto ATy = inferType(*E.Args[0]);
      if (!ATy)
        return std::nullopt;
      if (*ATy != Type::Int) {
        error("abs expects an integer argument", E.Line, E.Column);
        return std::nullopt;
      }
      return Type::Int;
    }
    error("unknown function '" + E.Name + "'", E.Line, E.Column);
    return std::nullopt;
  }
  }
  return std::nullopt;
}

ExprRef Converter::convertExpr(const SExpr &E,
                               const std::map<std::string, ExprRef> &Cur) {
  switch (E.Kind) {
  case SExprKind::IntLit:
    return intConst(E.IntValue);
  case SExprKind::BoolLit:
    return boolConst(E.BoolValue);
  case SExprKind::Name: {
    if (E.Name == "MAX_INT")
      return intConst(MaxIntSentinel);
    if (E.Name == "MIN_INT")
      return intConst(MinIntSentinel);
    if (E.Name == Program.IndexName)
      return inputVar(E.Name, Type::Int);
    auto It = Cur.find(E.Name);
    if (It != Cur.end())
      return It->second;
    assert(ParamSet.count(E.Name) && "name resolution out of sync");
    return inputVar(E.Name, Types.at(E.Name));
  }
  case SExprKind::Subscript:
    return seqAccess(E.Name, convertExpr(*E.Args[0], Cur), Type::Int);
  case SExprKind::Unary: {
    ExprRef Operand = convertExpr(*E.Args[0], Cur);
    return E.OpText == "-" ? neg(Operand) : notE(Operand);
  }
  case SExprKind::Binary: {
    ExprRef L = convertExpr(*E.Args[0], Cur);
    ExprRef R = convertExpr(*E.Args[1], Cur);
    const std::string &Op = E.OpText;
    if (Op == "+")
      return add(L, R);
    if (Op == "-")
      return sub(L, R);
    if (Op == "*")
      return mul(L, R);
    if (Op == "/")
      return binary(BinaryOp::Div, L, R);
    if (Op == "&&")
      return andE(L, R);
    if (Op == "||")
      return orE(L, R);
    if (Op == "==")
      return eq(L, R);
    if (Op == "!=")
      return ne(L, R);
    if (Op == "<")
      return lt(L, R);
    if (Op == "<=")
      return le(L, R);
    if (Op == ">")
      return gt(L, R);
    assert(Op == ">=" && "unknown binary operator");
    return ge(L, R);
  }
  case SExprKind::Ternary:
    return ite(convertExpr(*E.Args[0], Cur), convertExpr(*E.Args[1], Cur),
               convertExpr(*E.Args[2], Cur));
  case SExprKind::Call: {
    if (E.Name == "min")
      return minE(convertExpr(*E.Args[0], Cur), convertExpr(*E.Args[1], Cur));
    if (E.Name == "max")
      return maxE(convertExpr(*E.Args[0], Cur), convertExpr(*E.Args[1], Cur));
    assert(E.Name == "abs" && "unknown call survived type checking");
    ExprRef A = convertExpr(*E.Args[0], Cur);
    return maxE(A, neg(A));
  }
  }
  return nullptr;
}

bool Converter::convertStmts(const std::vector<SStmt> &Stmts,
                             std::map<std::string, ExprRef> &Cur) {
  for (const SStmt &S : Stmts) {
    if (S.Kind == SStmtKind::Assign) {
      if (S.TargetIndex)
        return false; // sequence write, diagnosed in collectAssigned
      auto ValueTy = inferType(*S.Value);
      if (!ValueTy)
        return false;
      auto TypeIt = Types.find(S.Target);
      assert(TypeIt != Types.end() && "state variable without a type");
      if (TypeIt->second != *ValueTy) {
        error("assignment changes the type of '" + S.Target + "'", S.Line,
              S.Column);
        return false;
      }
      Cur[S.Target] = convertExpr(*S.Value, Cur);
      continue;
    }
    // Conditional: evaluate the condition against the pre-branch state and
    // phi-merge the two arms (Appendix A).
    auto CondTy = inferType(*S.Cond);
    if (!CondTy)
      return false;
    if (*CondTy != Type::Bool) {
      error("if condition must be boolean", S.Line, S.Column);
      return false;
    }
    ExprRef Cond = convertExpr(*S.Cond, Cur);
    std::map<std::string, ExprRef> ThenCur = Cur;
    std::map<std::string, ExprRef> ElseCur = Cur;
    if (!convertStmts(S.Then, ThenCur) || !convertStmts(S.Else, ElseCur))
      return false;
    for (const std::string &Name : StateNames) {
      const ExprRef &ThenVal = ThenCur.at(Name);
      const ExprRef &ElseVal = ElseCur.at(Name);
      if (ThenVal == ElseVal)
        Cur[Name] = ThenVal;
      else
        Cur[Name] = ite(Cond, ThenVal, ElseVal);
    }
  }
  return true;
}

std::optional<Loop> Converter::run() {
  collectAssigned(Program.Body);
  if (StateNames.empty()) {
    Diags.error("loop body assigns no variables");
    return std::nullopt;
  }
  for (const std::string &P : Program.Params) {
    ParamSet.insert(P);
    Types[P] = Type::Int;
  }
  SeqSet.insert(Program.BoundSeqName);

  // Process the initialization statements in order; their targets must cover
  // all state variables. Initializations of non-state names define derived
  // parameters and are folded into subsequent expressions.
  std::map<std::string, ExprRef> InitValues;
  for (const SStmt &S : Program.Inits) {
    assert(S.Kind == SStmtKind::Assign && "checked by the parser");
    if (S.TargetIndex) {
      error("sequence '" + S.Target + "' is written before the loop", S.Line,
            S.Column);
      return std::nullopt;
    }
    auto ValueTy = inferType(*S.Value);
    if (!ValueTy)
      return std::nullopt;
    auto Existing = Types.find(S.Target);
    if (Existing != Types.end() && Existing->second != *ValueTy) {
      error("initialization changes the type of '" + S.Target + "'", S.Line,
            S.Column);
      return std::nullopt;
    }
    Types[S.Target] = *ValueTy;
    InitValues[S.Target] = convertExpr(*S.Value, InitValues);
  }
  for (const std::string &Name : StateNames) {
    if (!InitValues.count(Name)) {
      Diags.error("state variable '" + Name +
                  "' is not initialized before the loop");
      return std::nullopt;
    }
  }

  // Convert the body with the identity current-value map. Initialized names
  // that are never assigned in the body are derived constants; their init
  // expressions (over parameters only) are folded into the body directly.
  std::map<std::string, ExprRef> Cur;
  for (const auto &[Name, Init] : InitValues)
    if (!StateSet.count(Name))
      Cur[Name] = Init;
  for (const std::string &Name : StateNames)
    Cur[Name] = stateVar(Name, Types.at(Name));
  if (!convertStmts(Program.Body, Cur) || !Ok)
    return std::nullopt;

  Loop Result;
  Result.Name = LoopName;
  Result.IndexName = Program.IndexName;
  for (const std::string &Seq : SeqSet)
    Result.Sequences.push_back({Seq, Type::Int});
  for (const std::string &P : ParamSet)
    Result.Params.push_back({P, Types.at(P)});
  for (const std::string &Name : StateNames) {
    Equation Eq;
    Eq.Name = Name;
    Eq.Ty = Types.at(Name);
    Eq.Init = InitValues.at(Name);
    Eq.Update = Cur.at(Name);
    Result.Equations.push_back(std::move(Eq));
  }
  // Phase contract: the converter hands the pipeline a fully well-formed
  // equation system. The IR verifier checks that claim node by node.
  VerifierReport Verified = verifyLoop(Result, VerifyPhase::AfterFrontend);
  if (!Verified.ok()) {
    for (const std::string &V : Verified.Violations)
      Diags.error("conversion produced an invalid loop: " + V);
    return std::nullopt;
  }
  return Result;
}

} // namespace

std::optional<Loop> parsynt::convertProgram(const SProgram &Program,
                                            const std::string &Name,
                                            DiagnosticEngine &Diags) {
  Span ConvertSpan("convertProgram", trace::Frontend);
  ConvertSpan.attr("loop", Name.empty() ? "<loop>" : Name);
  Converter C(Program, Name, Diags);
  std::optional<Loop> Result = C.run();
  ConvertSpan.attr("ok", Result.has_value());
  if (Result) {
    ConvertSpan.attr("equations", uint64_t(Result->Equations.size()));
    ConvertSpan.attr("sequences", uint64_t(Result->Sequences.size()));
  }
  MetricsRegistry &M = MetricsRegistry::global();
  M.counter("frontend.converts").inc();
  if (!Result)
    M.counter("frontend.convert_errors").inc();
  return Result;
}

std::optional<Loop> parsynt::parseLoop(const std::string &Source,
                                       const std::string &Name,
                                       DiagnosticEngine &Diags) {
  Span ParseSpan("parseLoop", trace::Frontend);
  ParseSpan.attr("loop", Name.empty() ? "<loop>" : Name);
  ParseSpan.attr("source_bytes", uint64_t(Source.size()));
  auto Program = parseProgram(Source, Diags);
  MetricsRegistry::global().counter("frontend.parses").inc();
  if (!Program) {
    MetricsRegistry::global().counter("frontend.parse_errors").inc();
    ParseSpan.attr("ok", false);
    return std::nullopt;
  }
  // Fragment conformance first: the linter rejects out-of-fragment inputs
  // (sequence writes, non-affine subscripts, ...) with source locations the
  // converter cannot reconstruct. Warnings are kept but do not abort.
  {
    Span LintSpan("lintProgram", trace::Frontend);
    LintSummary Lint = lintProgram(*Program, Diags);
    LintSpan.attr("ok", Lint.ok());
    if (!Lint.ok()) {
      ParseSpan.attr("ok", false);
      return std::nullopt;
    }
  }
  return convertProgram(*Program, Name, Diags);
}
