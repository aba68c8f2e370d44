//===- tests/analysis_test.cpp - Static analysis layer tests --------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Covers the analysis layer: the IR verifier (corrupted loops are caught,
// well-formed ones pass at every phase), the state-variable dependence
// classification, and the fragment-conformance linter's diagnostics.
//
//===----------------------------------------------------------------------===//

#include "analysis/DependenceGraph.h"
#include "analysis/Lint.h"
#include "analysis/Verifier.h"
#include "lift/Lift.h"
#include "lift/Unfold.h"
#include "suite/Benchmarks.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace parsynt;
using namespace parsynt::test;

namespace {

/// A minimal well-formed loop: sum = sum + s[i].
Loop sumLoop() {
  Loop L;
  L.Name = "sum";
  L.Sequences.push_back({"s", Type::Int});
  Equation Eq;
  Eq.Name = "sum";
  Eq.Ty = Type::Int;
  Eq.Init = intConst(0);
  Eq.Update = add(stateVar("sum"), seqAccess("s", inputVar("i")));
  L.Equations.push_back(Eq);
  return L;
}

bool reportMentions(const VerifierReport &Report, const std::string &Text) {
  return std::any_of(Report.Violations.begin(), Report.Violations.end(),
                     [&](const std::string &V) {
                       return V.find(Text) != std::string::npos;
                     });
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

TEST(Verifier, WellFormedLoopPasses) {
  VerifierReport Report = verifyLoop(sumLoop(), VerifyPhase::AfterFrontend);
  EXPECT_TRUE(Report.ok()) << Report.str();
}

TEST(Verifier, CatchesDanglingVariable) {
  Loop L = sumLoop();
  L.Equations[0].Update = add(stateVar("sum"), stateVar("ghost"));
  VerifierReport Report = verifyLoop(L, VerifyPhase::AfterFrontend);
  ASSERT_FALSE(Report.ok());
  EXPECT_TRUE(reportMentions(Report, "ghost")) << Report.str();
}

TEST(Verifier, CatchesEquationTypeMismatch) {
  Loop L = sumLoop();
  // Update computes a bool for an int-typed equation.
  L.Equations[0].Update = boolConst(true);
  VerifierReport Report = verifyLoop(L, VerifyPhase::AfterFrontend);
  ASSERT_FALSE(Report.ok());
  EXPECT_TRUE(reportMentions(Report, "sum")) << Report.str();
}

TEST(Verifier, CatchesDeclaredTypeDisagreement) {
  // A read of `flag` as int when its equation declares bool.
  Loop L = sumLoop();
  Equation Flag;
  Flag.Name = "flag";
  Flag.Ty = Type::Bool;
  Flag.Init = boolConst(false);
  Flag.Update = stateVar("flag", Type::Bool);
  L.Equations.push_back(Flag);
  L.Equations[0].Update =
      add(stateVar("sum"), stateVar("flag", Type::Int)); // wrong type
  VerifierReport Report = verifyLoop(L, VerifyPhase::AfterFrontend);
  ASSERT_FALSE(Report.ok());
  EXPECT_TRUE(reportMentions(Report, "flag")) << Report.str();
}

TEST(Verifier, CatchesLeakedUnknown) {
  Loop L = sumLoop();
  L.Equations[0].Update =
      add(unknownVar("sum@0"), seqAccess("s", inputVar("i")));
  VerifierReport Report = verifyLoop(L, VerifyPhase::AfterLift);
  ASSERT_FALSE(Report.ok());
  EXPECT_TRUE(reportMentions(Report, "sum@0")) << Report.str();
}

TEST(Verifier, CatchesStatefulInit) {
  Loop L = sumLoop();
  L.Equations[0].Init = stateVar("sum");
  VerifierReport Report = verifyLoop(L, VerifyPhase::AfterFrontend);
  ASSERT_FALSE(Report.ok());
  EXPECT_TRUE(reportMentions(Report, "init")) << Report.str();
}

TEST(Verifier, CatchesNonIndexSubscript) {
  Loop L = sumLoop();
  L.Equations[0].Update =
      add(stateVar("sum"), seqAccess("s", add(inputVar("i"), intConst(1))));
  VerifierReport Report = verifyLoop(L, VerifyPhase::AfterFrontend);
  ASSERT_FALSE(Report.ok());
  EXPECT_TRUE(reportMentions(Report, "s")) << Report.str();
}

TEST(Verifier, ExprUnknownsGatedByPhase) {
  ExprRef E = add(unknownVar("sum@0"), intConst(1));
  EXPECT_TRUE(
      verifyExpr(E, VerifyPhase::AfterNormalize, /*AllowUnknowns=*/true).ok());
  EXPECT_FALSE(
      verifyExpr(E, VerifyPhase::AfterNormalize, /*AllowUnknowns=*/false)
          .ok());
}

TEST(Verifier, JoinChecks) {
  Loop L = sumLoop();
  std::vector<ExprRef> Good = {add(inputVar("sum_l"), inputVar("sum_r"))};
  EXPECT_TRUE(verifyJoin(L, Good).ok());

  // A join may not touch the sequences.
  std::vector<ExprRef> ReadsSeq = {
      add(inputVar("sum_l"), seqAccess("s", inputVar("i")))};
  EXPECT_FALSE(verifyJoin(L, ReadsSeq).ok());

  // One component per equation.
  EXPECT_FALSE(verifyJoin(L, {}).ok());

  // Unsplit state reads are dangling in a join.
  std::vector<ExprRef> Unsplit = {add(stateVar("sum"), inputVar("sum_r"))};
  EXPECT_FALSE(verifyJoin(L, Unsplit).ok());
}

TEST(Verifier, SuiteCleanAtEveryPhase) {
  for (const Benchmark &B : allBenchmarks()) {
    Loop L = parseBenchmark(B);
    VerifierReport Frontend = verifyLoop(L, VerifyPhase::AfterFrontend);
    EXPECT_TRUE(Frontend.ok()) << B.Name << ": " << Frontend.str();
    Loop M = materializeIndex(L);
    VerifierReport Normalized = verifyLoop(M, VerifyPhase::AfterNormalize);
    EXPECT_TRUE(Normalized.ok()) << B.Name << ": " << Normalized.str();
  }
}

TEST(Verifier, LiftedLoopClean) {
  Loop L = parseBenchmark(*findBenchmark("mts"));
  LiftResult Lift = liftLoop(L);
  VerifierReport Report = verifyLoop(Lift.Lifted, VerifyPhase::AfterLift);
  EXPECT_TRUE(Report.ok()) << Report.str();
}

//===----------------------------------------------------------------------===//
// Dependence classification
//===----------------------------------------------------------------------===//

DepClass classOf(const DependenceInfo &Info, const std::string &Name) {
  const VarDependence *V = Info.find(Name);
  EXPECT_NE(V, nullptr) << Name;
  return V ? V->Class : DepClass::PrefixDependent;
}

TEST(Dependence, SumIsIndependentFoldWithTrivialJoin) {
  DependenceInfo Info =
      analyzeDependences(parseBenchmark(*findBenchmark("sum")));
  EXPECT_EQ(classOf(Info, "sum"), DepClass::IndependentFold);
  const VarDependence *Sum = Info.find("sum");
  ASSERT_NE(Sum, nullptr);
  ASSERT_NE(Sum->TrivialJoin, nullptr);
  EXPECT_EQ(exprToString(Sum->TrivialJoin), "(sum_l + sum_r)");
}

TEST(Dependence, MinMaxFoldsAreTrivial) {
  DependenceInfo Info =
      analyzeDependences(parseBenchmark(*findBenchmark("min")));
  EXPECT_EQ(classOf(Info, "m"), DepClass::IndependentFold);
  ASSERT_NE(Info.find("m")->TrivialJoin, nullptr);
  EXPECT_EQ(exprToString(Info.find("m")->TrivialJoin), "min(m_l, m_r)");
}

TEST(Dependence, MpsIsPrefixDependentOnSum) {
  DependenceInfo Info =
      analyzeDependences(parseBenchmark(*findBenchmark("mps")));
  EXPECT_EQ(classOf(Info, "sum"), DepClass::IndependentFold);
  EXPECT_EQ(classOf(Info, "mps"), DepClass::PrefixDependent);
  const VarDependence *Mps = Info.find("mps");
  ASSERT_NE(Mps, nullptr);
  EXPECT_TRUE(Mps->Reads.count("sum"));
  EXPECT_EQ(Mps->TrivialJoin, nullptr);
}

TEST(Dependence, MtsNonAssociativeSelfRecurrenceIsPrefixDependent) {
  // mts = max(mts + s[i], 0) is self-only but NOT a fold by an associative
  // operator — the value depends on where the prefix ends.
  DependenceInfo Info =
      analyzeDependences(parseBenchmark(*findBenchmark("mts")));
  EXPECT_EQ(classOf(Info, "mts"), DepClass::PrefixDependent);
  EXPECT_TRUE(Info.find("mts")->SelfRecursive);
}

TEST(Dependence, BalancedParensIsConditional) {
  DependenceInfo Info =
      analyzeDependences(parseBenchmark(*findBenchmark("balanced-()")));
  EXPECT_EQ(classOf(Info, "ofs"), DepClass::Conditional);
  EXPECT_EQ(classOf(Info, "bal"), DepClass::Conditional);
}

TEST(Dependence, PolyMultiplicativeFoldNeedsIdentityInit) {
  DependenceInfo Info =
      analyzeDependences(parseBenchmark(*findBenchmark("poly")));
  const VarDependence *P = Info.find("p");
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->Class, DepClass::IndependentFold);
  // p0 = 1 is the multiplicative identity, so p_l * p_r is safe to seed.
  ASSERT_NE(P->TrivialJoin, nullptr);
  EXPECT_EQ(exprToString(P->TrivialJoin), "(p_l * p_r)");
  EXPECT_EQ(classOf(Info, "res"), DepClass::PrefixDependent);
}

TEST(Dependence, AdditiveFoldWithNonzeroInitIsNotSeeded) {
  // acc = acc + s[i] with acc0 = 5: summing the init twice would be wrong,
  // so no trivial join may be offered.
  Loop L = mustParse("acc = 5;\n"
                     "for (i = 0; i < |s|; i++) { acc = acc + s[i]; }\n");
  DependenceInfo Info = analyzeDependences(L);
  EXPECT_EQ(classOf(Info, "acc"), DepClass::IndependentFold);
  EXPECT_EQ(Info.find("acc")->TrivialJoin, nullptr);
}

TEST(Dependence, SccTopologicalOrder) {
  Loop L = parseBenchmark(*findBenchmark("mss"));
  DependenceInfo Info = analyzeDependences(L);
  // Every variable's SCC id must be >= those of the SCCs it reads from.
  for (const VarDependence &V : Info.Vars)
    for (const std::string &R : V.Reads)
      EXPECT_GE(V.SccId, Info.find(R)->SccId) << V.Name << " reads " << R;
}

//===----------------------------------------------------------------------===//
// Linter diagnostics
//===----------------------------------------------------------------------===//

struct LintOutcome {
  bool Parsed = false;
  std::vector<Diagnostic> Diags;

  /// True if some diagnostic contains \p Text at the given position
  /// (0 = any).
  bool has(const std::string &Text, unsigned Line = 0,
           unsigned Column = 0) const {
    return std::any_of(Diags.begin(), Diags.end(), [&](const Diagnostic &D) {
      return D.Message.find(Text) != std::string::npos &&
             (Line == 0 || D.Line == Line) &&
             (Column == 0 || D.Column == Column);
    });
  }
};

LintOutcome lint(const std::string &Source) {
  DiagnosticEngine Diags;
  LintOutcome Out;
  Out.Parsed = parseLoop(Source, "lint-test", Diags).has_value();
  Out.Diags = Diags.diagnostics();
  return Out;
}

TEST(Lint, RejectsSequenceWrite) {
  LintOutcome Out = lint("sum = 0;\n"
                         "for (i = 0; i < |s|; i++) {\n"
                         "  s[i] = sum;\n"
                         "}\n");
  EXPECT_FALSE(Out.Parsed);
  EXPECT_TRUE(Out.has("sequence 's' is written", 3, 3));
}

TEST(Lint, RejectsNonIndexSubscript) {
  LintOutcome Out = lint("sum = 0;\n"
                         "for (i = 0; i < |s|; i++) {\n"
                         "  sum = sum + s[i + 1];\n"
                         "}\n");
  EXPECT_FALSE(Out.Parsed);
  EXPECT_TRUE(Out.has("subscripted", 3));
}

TEST(Lint, RejectsUninitializedState) {
  LintOutcome Out = lint("for (i = 0; i < |s|; i++) {\n"
                         "  acc = acc + s[i];\n"
                         "}\n");
  EXPECT_FALSE(Out.Parsed);
  EXPECT_TRUE(Out.has("'acc' is not initialized", 2, 3));
}

TEST(Lint, RejectsIndexAssignment) {
  LintOutcome Out = lint("sum = 0;\n"
                         "for (i = 0; i < |s|; i++) {\n"
                         "  i = i + 2;\n"
                         "  sum = sum + s[i];\n"
                         "}\n");
  EXPECT_FALSE(Out.Parsed);
  EXPECT_TRUE(Out.has("loop index 'i' may not be assigned", 3, 3));
}

TEST(Lint, RejectsParameterAssignment) {
  LintOutcome Out = lint("param x;\n"
                         "acc = 0;\n"
                         "for (i = 0; i < |s|; i++) {\n"
                         "  x = x + 1;\n"
                         "  acc = acc + s[i] * x;\n"
                         "}\n");
  EXPECT_FALSE(Out.Parsed);
  EXPECT_TRUE(Out.has("parameter 'x' is read-only", 4, 3));
}

TEST(Lint, WarnsOnPositionDependence) {
  // Reading the index outside a subscript is legal but forces index
  // materialization; the linter explains this with a warning while the
  // program still parses.
  LintOutcome Out = lint("cnt = 0;\n"
                         "for (i = 0; i < |s|; i++) {\n"
                         "  if (cnt == i && s[i] > 0) { cnt = cnt + 1; }\n"
                         "}\n");
  EXPECT_TRUE(Out.Parsed);
  EXPECT_TRUE(Out.has("position/bound"));
}

TEST(Lint, CleanProgramHasNoDiagnostics) {
  LintOutcome Out = lint("sum = 0;\n"
                         "for (i = 0; i < |s|; i++) { sum = sum + s[i]; }\n");
  EXPECT_TRUE(Out.Parsed);
  EXPECT_TRUE(Out.Diags.empty());
}

} // namespace
