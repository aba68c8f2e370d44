//===- tests/lift_test.cpp - Unfolding / normal forms / lifting tests -----===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "lift/Lift.h"
#include "lift/NormalForms.h"
#include "lift/Unfold.h"
#include "normalize/Normalizer.h"
#include "observe/Metrics.h"
#include "suite/Benchmarks.h"
#include "support/FaultInjector.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <set>
#include <thread>

using namespace parsynt;
using namespace parsynt::test;

namespace {

TEST(Unfold, SumFromUnknowns) {
  Loop L = mustParse("sum = 0;\n"
                     "for (i = 0; i < |s|; i++) { sum = sum + s[i]; }");
  Unfolding U = unfoldLoop(L, 3, /*FromUnknowns=*/true);
  EXPECT_EQ(exprToString(U.ValuesAtStep.at("sum")[0]), "sum@0");
  EXPECT_EQ(exprToString(U.ValuesAtStep.at("sum")[1]), "(sum@0 + s@1)");
  EXPECT_EQ(exprToString(U.ValuesAtStep.at("sum")[2]),
            "((sum@0 + s@1) + s@2)");
}

TEST(Unfold, FromInitEvaluatesConcretely) {
  Loop L = mustParse("sum = 0;\n"
                     "for (i = 0; i < |s|; i++) { sum = sum + s[i]; }");
  Unfolding U = unfoldLoop(L, 2, /*FromUnknowns=*/false);
  // Step 0 is the init; the simplifier folds 0 + s@1.
  EXPECT_EQ(exprToString(U.ValuesAtStep.at("sum")[0]), "0");
  EXPECT_EQ(exprToString(U.ValuesAtStep.at("sum")[1]), "s@1");
}

TEST(Unfold, NodeCeilingTruncatesTheUnfolding) {
  // Step 3 of the from-unknowns unfolding would pass the ceiling: the
  // result stops at step 2 instead of exhausting memory.
  Unfolding U = unfoldLoop(nodeCeilingLoop(), 3, /*FromUnknowns=*/true);
  EXPECT_TRUE(U.Exceeded);
  EXPECT_EQ(U.Steps, 2u);
  EXPECT_EQ(U.ValuesAtStep.at("a").size(), 3u);
}

TEST(Unfold, MaterializeIndexOnlyWhenRead) {
  Loop Pure = mustParse("sum = 0;\n"
                        "for (i = 0; i < |s|; i++) { sum = sum + s[i]; }");
  EXPECT_FALSE(readsIndex(Pure));
  EXPECT_EQ(materializeIndex(Pure).Equations.size(), 1u);

  Loop Indexed = mustParse("cnt = 0;\n"
                           "for (i = 0; i < |s|; i++) {\n"
                           "  if (cnt == i && s[i] > 0) { cnt = cnt + 1; }\n"
                           "}");
  EXPECT_TRUE(readsIndex(Indexed));
  Loop Mat = materializeIndex(Indexed);
  ASSERT_EQ(Mat.Equations.size(), 2u);
  EXPECT_EQ(Mat.Equations[1].Name, "_pos");
  EXPECT_TRUE(Mat.Equations[1].IsAuxiliary);
  EXPECT_FALSE(readsIndex(Mat));

  // Semantics preserved: _pos mirrors the index.
  Rng R(11);
  for (int Round = 0; Round != 30; ++Round) {
    SeqEnv Seqs;
    std::vector<Value> Elems;
    for (int I = 0, N = static_cast<int>(R.intIn(0, 10)); I != N; ++I)
      Elems.push_back(Value::ofInt(R.intIn(-5, 5)));
    Seqs["s"] = Elems;
    EXPECT_EQ(runLoop(Indexed, Seqs)[0], runLoop(Mat, Seqs)[0]);
  }
}

TEST(TropicalNormalForm, GroupsUnknowns) {
  // max(max(u + a, 0) + b, 0) -> max(u + max(a+b, b-family...), pure):
  // the unknown must occur exactly once.
  ExprRef U = unknownVar("u");
  ExprRef A = inputVar("a"), B = inputVar("b");
  ExprRef E = maxE(add(maxE(add(U, A), intConst(0)), B), intConst(0));
  ExprRef NF = tropicalNormalize(E, {"u"});
  ASSERT_NE(NF, nullptr);
  EXPECT_EQ(exprCost(NF, {"u"}).Occurrences, 1u);
  expectEquivalent(E, NF);
}

TEST(TropicalNormalForm, StableAcrossDepths) {
  // The prefix-sum residual family extends on the right: the k-1 form is a
  // subterm of the k form (what fold-back depends on).
  ExprRef U = unknownVar("u");
  auto X = [](int I) { return inputVar("s@" + std::to_string(I)); };
  ExprRef E2 = maxE(add(U, X(1)), add(U, add(X(1), X(2))));
  ExprRef E3 = maxE(E2, add(U, add(add(X(1), X(2)), X(3))));
  ExprRef NF2 = tropicalNormalize(E2, {"u"});
  ExprRef NF3 = tropicalNormalize(E3, {"u"});
  ASSERT_NE(NF2, nullptr);
  ASSERT_NE(NF3, nullptr);
  // NF2's residual part appears verbatim inside NF3. Strip the grouping
  // prefix "(u + " and the closing parenthesis to obtain the residual.
  std::string S2 = exprToString(NF2), S3 = exprToString(NF3);
  size_t From = S2.find("max");
  ASSERT_NE(From, std::string::npos) << S2;
  std::string Residual2 = S2.substr(From, S2.size() - From - 1);
  EXPECT_NE(S3.find(Residual2), std::string::npos)
      << "NF2: " << S2 << "\nNF3: " << S3;
}

TEST(TropicalNormalForm, RejectsForeignOperators) {
  ExprRef U = unknownVar("u");
  EXPECT_EQ(tropicalNormalize(binary(BinaryOp::Div, U, intConst(2)), {"u"}),
            nullptr);
  EXPECT_EQ(tropicalNormalize(mul(U, U), {"u"}), nullptr);
}

TEST(BooleanNormalForm, GroupsClausesByUnknownLiteral) {
  // (!u | a) & (!u | b) groups to !u | (a & b).
  ExprRef U = unknownVar("u", Type::Bool);
  ExprRef A = eq(inputVar("s@1"), intConst(0));
  ExprRef B = eq(inputVar("s@2"), intConst(0));
  ExprRef E = andE(orE(notE(U), notE(A)), orE(notE(U), notE(B)));
  ExprRef NF = booleanNormalize(E, {"u"});
  ASSERT_NE(NF, nullptr);
  EXPECT_EQ(exprCost(NF, {"u"}).Occurrences, 1u);
  expectEquivalent(E, NF);
}

TEST(BooleanNormalForm, ExpandsBooleanIte) {
  ExprRef U = unknownVar("u", Type::Bool);
  ExprRef C = eq(inputVar("s@1"), intConst(1));
  ExprRef E = ite(C, boolConst(true), U); // seen1-style update
  ExprRef NF = booleanNormalize(E, {"u"});
  ASSERT_NE(NF, nullptr);
  expectEquivalent(E, NF);
}

TEST(BooleanNormalForm, RefusesCompositeUnknownAtoms) {
  // ofs@0 >= 0 has the unknown inside an arithmetic atom: the CNF grouping
  // cannot help, so the generic engine must be used instead.
  ExprRef E = ge(unknownVar("ofs@0"), intConst(0));
  EXPECT_EQ(booleanNormalize(E, {"ofs@0"}), nullptr);
}

TEST(Lift, MtsDiscoversTheRunningSum) {
  Loop L = mustParse("mts = 0;\n"
                     "for (i = 0; i < |s|; i++) { mts = max(mts + s[i], 0); }",
                     "mts");
  LiftResult R = liftLoop(L);
  ASSERT_GE(R.Auxiliaries.size(), 1u);
  // One discovered accumulator must be the plain running sum.
  bool FoundSum = false;
  for (const AuxAccumulator &Aux : R.Auxiliaries) {
    ExprRef Expected = add(stateVar(Aux.Name), seqAccess("s", inputVar("i")));
    if (Aux.Update == Expected && Aux.Init == intConst(0))
      FoundSum = true;
  }
  EXPECT_TRUE(FoundSum) << R.Lifted.str();

  // The lifted loop preserves the original state variable's semantics.
  Rng Rand(23);
  for (int Round = 0; Round != 30; ++Round) {
    SeqEnv Seqs;
    std::vector<Value> Elems;
    for (int I = 0, N = static_cast<int>(Rand.intIn(0, 12)); I != N; ++I)
      Elems.push_back(Value::ofInt(Rand.intIn(-9, 9)));
    Seqs["s"] = Elems;
    EXPECT_EQ(runLoop(L, Seqs)[0], runLoop(R.Lifted, Seqs)[0]);
  }
}

TEST(Lift, BalancedParensDiscoversPrefixBound) {
  Loop L = mustParse("bal = true;\nofs = 0;\n"
                     "for (i = 0; i < |s|; i++) {\n"
                     "  if (s[i] == '(') { ofs = ofs + 1; }\n"
                     "  else { ofs = ofs - 1; }\n"
                     "  bal = bal && (ofs >= 0);\n"
                     "}",
                     "balanced");
  LiftResult R = liftLoop(L);
  EXPECT_EQ(R.Auxiliaries.size(), 1u);
  EXPECT_TRUE(R.Unresolved.empty());
}

TEST(Lift, IsSortedUsesGuardedFirstElement) {
  Loop L = mustParse("sorted = true;\nprev = MIN_INT;\n"
                     "for (i = 0; i < |s|; i++) {\n"
                     "  sorted = sorted && (prev <= s[i]);\n"
                     "  prev = s[i];\n"
                     "}",
                     "is-sorted");
  LiftResult R = liftLoop(L);
  ASSERT_EQ(R.Auxiliaries.size(), 1u);
  // The accumulator is initialization-guarded (first element).
  EXPECT_TRUE(isa<IteExpr>(R.Auxiliaries[0].Update))
      << exprToString(R.Auxiliaries[0].Update);
}

TEST(Lift, AtoiDiscoversTheConstantFamily) {
  Loop L = mustParse("res = 0;\n"
                     "for (i = 0; i < |s|; i++) { res = res * 10 + (s[i] - "
                     "'0'); }",
                     "atoi");
  LiftResult R = liftLoop(L);
  ASSERT_EQ(R.Auxiliaries.size(), 1u);
  // p10' = p10 * 10, init 1.
  EXPECT_EQ(exprToString(R.Auxiliaries[0].Update),
            "(" + R.Auxiliaries[0].Name + " * 10)");
  EXPECT_TRUE(R.Auxiliaries[0].Init == intConst(1));
}

Loop maxBlock1() {
  return mustParse("best = 0;\ncur = 0;\n"
                   "for (i = 0; i < |s|; i++) {\n"
                   "  if (s[i] == 1) { cur = cur + 1; } else { cur = 0; }\n"
                   "  best = max(best, cur);\n"
                   "}",
                   "max-block-1");
}

TEST(Lift, MaxBlock1ReproducesThePaperFailure) {
  LiftResult R = liftLoop(maxBlock1());
  // Table 1's footnote: the rule set cannot resolve all of max-block-1's
  // needed accumulators; some collected parts stay unresolved.
  EXPECT_FALSE(R.Unresolved.empty());
}

TEST(Lift, UnresolvedPartsAreListedOnce) {
  // A part collected twice from one normal form is derived, and reported,
  // once.
  LiftResult R = liftLoop(maxBlock1());
  ASSERT_FALSE(R.Unresolved.empty());
  std::set<std::string> Distinct(R.Unresolved.begin(), R.Unresolved.end());
  EXPECT_EQ(Distinct.size(), R.Unresolved.size());
}

TEST(Lift, NodeCeilingReportsBudgetExhausted) {
  LiftResult R = liftLoop(nodeCeilingLoop());
  EXPECT_EQ(R.Failure.Kind, FailureKind::BudgetExhausted) << R.Failure.str();
  EXPECT_NE(R.Failure.Message.find(std::to_string(UnfoldNodeCeiling)),
            std::string::npos)
      << R.Failure.Message;
  EXPECT_TRUE(R.Auxiliaries.empty());
}

TEST(Lift, ExpiredDeadlineReportsTimeout) {
  Deadline Timeout = Deadline::after(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  LiftResult R = liftLoop(maxBlock1(), Timeout);
  EXPECT_EQ(R.Failure.Kind, FailureKind::Timeout) << R.Failure.str();
}

TEST(Lift, DeadlineIsPolledInsideNormalization) {
  // max-block-1's unfoldings go to the generic normalizer, each search
  // running to its 4000-expansion budget. Forcing the 100th deadline poll
  // to report expiry must stop lifting inside the first such search, not
  // after it.
  MetricsRegistry &M = MetricsRegistry::global();
  uint64_t Before = M.counter("normalize.expanded").value();
  LiftResult R;
  {
    FaultScope Scope("deadline.expire:after=100");
    R = liftLoop(maxBlock1());
  }
  uint64_t Expanded = M.counter("normalize.expanded").value() - Before;
  EXPECT_EQ(R.Failure.Kind, FailureKind::Timeout) << R.Failure.str();
  EXPECT_NE(R.Failure.Message.find("normalizing"), std::string::npos)
      << R.Failure.str();
  EXPECT_LT(Expanded, 4000u);
}

//===----------------------------------------------------------------------===//
// Lifting's frames: compiled columns against the reference semantics.
//===----------------------------------------------------------------------===//

/// The bindings of frame \p F of \p Frames, laid out over \p L's parameters
/// and the step inputs of its sequences up to step \p K.
Env frameEnv(const Loop &L, const LiftFrames &Frames, unsigned K, size_t F) {
  auto typed = [](Type Ty, int64_t Raw) {
    return Ty == Type::Int ? Value::ofInt(Raw) : Value::ofBool(Raw != 0);
  };
  const int64_t *Row = Frames.row(F);
  Env Vars;
  for (const ParamDecl &P : L.Params)
    Vars[P.Name] = typed(P.Ty, *Row++);
  for (const SeqDecl &S : L.Sequences)
    for (unsigned Step = 1; Step <= K; ++Step)
      Vars[stepInputName(S.Name, Step)] = typed(S.ElemTy, *Row++);
  return Vars;
}

/// The maximal unknown-free subterms of \p E: every part lifting collects
/// from a normal form is one of them.
void unknownFreeSubterms(const ExprRef &E, std::vector<ExprRef> &Out) {
  if (!containsVarClass(E, VarClass::Unknown)) {
    Out.push_back(E);
    return;
  }
  for (const ExprRef &Child : children(E))
    unknownFreeSubterms(Child, Out);
}

class LiftFrameColumns : public ::testing::TestWithParam<size_t> {};

TEST_P(LiftFrameColumns, MatchTheReferenceFrameByFrame) {
  // Lifting decides coverage, fold-back and validation on compiled columns
  // over [params | s@1..s@K]. Every expression it evaluates there (the
  // parts of each normalized unfolding, and each from-initialization value
  // of the lifted loop) must agree with the reference in every frame.
  const Benchmark &B = allBenchmarks()[GetParam()];
  const unsigned K = 3;
  Loop Work = materializeIndex(parseBenchmark(B));
  LiftFrames Frames(Work, K);
  ASSERT_EQ(Frames.names().size(),
            Work.Params.size() + K * Work.Sequences.size());
  std::vector<Env> Envs;
  for (size_t F = 0; F != Frames.size(); ++F)
    Envs.push_back(frameEnv(Work, Frames, K, F));
  size_t Checked = 0;
  auto expectReference = [&](const ExprRef &E) {
    std::vector<int64_t> Column = Frames.column(E);
    ASSERT_EQ(Column.size(), Frames.size());
    for (size_t F = 0; F != Frames.size(); ++F)
      ASSERT_EQ(Column[F], evalExpr(E, Envs[F]).raw())
          << B.Name << ": " << exprToString(E) << " in frame " << F;
    ++Checked;
  };

  Unfolding FromInit =
      unfoldLoop(liftLoop(parseBenchmark(B)).Lifted, K, /*FromUnknowns=*/false);
  for (const auto &[Var, Steps] : FromInit.ValuesAtStep)
    for (const ExprRef &E : Steps)
      expectReference(E);

  Unfolding FromUnknown = unfoldLoop(Work, K, /*FromUnknowns=*/true);
  std::set<std::string> Unknowns;
  for (const Equation &Eq : Work.Equations)
    Unknowns.insert(unknownName(Eq.Name));
  for (const Equation &Eq : Work.Equations) {
    if (Eq.IsAuxiliary)
      continue;
    for (unsigned Step = 1; Step <= K; ++Step) {
      ExprRef Tau = FromUnknown.ValuesAtStep.at(Eq.Name)[Step];
      ExprRef Ell = tropicalNormalize(Tau, Unknowns);
      if (!Ell)
        Ell = booleanNormalize(Tau, Unknowns);
      if (!Ell)
        Ell = normalizeExpr(Tau, Unknowns);
      std::vector<ExprRef> Parts;
      unknownFreeSubterms(Ell, Parts);
      for (const ExprRef &Part : Parts)
        expectReference(Part);
    }
  }
  EXPECT_GT(Checked, 0u);
}

/// The Table-1 loops the pipeline lifts: those that need an auxiliary
/// beyond the materialized index (whose loops phase 1 already joins).
std::vector<size_t> liftingBenchmarks() {
  std::vector<size_t> Indices;
  for (size_t I = 0; I != allBenchmarks().size(); ++I)
    if (allBenchmarks()[I].ExpectAuxRequired &&
        !readsIndex(parseBenchmark(allBenchmarks()[I])))
      Indices.push_back(I);
  return Indices;
}

std::string benchmarkName(const ::testing::TestParamInfo<size_t> &Info) {
  std::string Clean;
  for (char C : allBenchmarks()[Info.param].Name)
    Clean += std::isalnum(static_cast<unsigned char>(C)) ? C : '_';
  return Clean;
}

INSTANTIATE_TEST_SUITE_P(Table1, LiftFrameColumns,
                         ::testing::ValuesIn(liftingBenchmarks()),
                         benchmarkName);

} // namespace
