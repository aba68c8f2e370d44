//===- tests/proof_test.cpp - Proof obligation / Dafny emitter tests ------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "observe/Tracer.h"
#include "pipeline/Parallelizer.h"
#include "proof/DafnyEmit.h"
#include "proof/ProofCheck.h"
#include "suite/Benchmarks.h"
#include "Goldens.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace parsynt;
using namespace parsynt::test;

namespace {

/// The state variables of \p L in equation order, space-separated.
std::string equationNames(const Loop &L) {
  std::string Names;
  for (const Equation &Eq : L.Equations)
    Names += (Names.empty() ? "" : " ") + Eq.Name;
  return Names;
}

Loop sumLoop() {
  return mustParse("sum = 0;\n"
                   "for (i = 0; i < |s|; i++) { sum = sum + s[i]; }",
                   "sum");
}

TEST(ProofCheck, AcceptsCorrectJoin) {
  Loop L = sumLoop();
  std::vector<ExprRef> Join = {add(inputVar("sum_l"), inputVar("sum_r"))};
  ProofReport Report = checkHomomorphismProof(L, Join);
  EXPECT_TRUE(Report.Verified) << Report.str();
  EXPECT_GT(Report.BaseChecks, 0u);
  EXPECT_GT(Report.StepChecks, 0u);
}

TEST(ProofCheck, RejectsWrongJoinWithWitness) {
  Loop L = sumLoop();
  std::vector<ExprRef> Join = {maxE(inputVar("sum_l"), inputVar("sum_r"))};
  ProofReport Report = checkHomomorphismProof(L, Join);
  ASSERT_FALSE(Report.Verified);
  EXPECT_EQ(Report.Failure->StateVar, "sum");
  // The sampler is deterministic: the first sample refutes the base case.
  EXPECT_EQ(Report.Failure->Obligation, "base");
  EXPECT_EQ(Report.Failure->Details, "u = {sum=-24}, join(u, init) gave 0");
  EXPECT_EQ(Report.BaseChecks, 1u);
  EXPECT_EQ(Report.StepChecks, 0u);
}

TEST(ProofCheck, RejectsTheClassicSecondMinMistake) {
  // The paper's Section-2 "novice" join: m2 = min(m2_l, m2_r) alone.
  Loop L = mustParse("m = MAX_INT;\nm2 = MAX_INT;\n"
                     "for (i = 0; i < |s|; i++) {\n"
                     "  m2 = min(m2, max(m, s[i]));\n"
                     "  m = min(m, s[i]);\n"
                     "}");
  std::vector<ExprRef> Wrong = {
      minE(inputVar("m2_l"), inputVar("m2_r")),
      minE(inputVar("m_l"), inputVar("m_r")),
  };
  EXPECT_FALSE(checkHomomorphismProof(L, Wrong).Verified);

  std::vector<ExprRef> Right = {
      minE(minE(inputVar("m2_l"), inputVar("m2_r")),
           maxE(inputVar("m_l"), inputVar("m_r"))),
      minE(inputVar("m_l"), inputVar("m_r")),
  };
  EXPECT_TRUE(checkHomomorphismProof(L, Right).Verified);
}

TEST(ProofCheck, RejectsTheMtsJoinWithSidesSwapped) {
  // mts lifted with its running sum: the join is not symmetric, so
  // exchanging every _l and _r operand must fail an obligation.
  Loop L = mustParse("mts = 0;\nsum = 0;\n"
                     "for (i = 0; i < |s|; i++) {\n"
                     "  mts = max(mts + s[i], 0);\n"
                     "  sum = sum + s[i];\n"
                     "}",
                     "mts");
  auto join = [](Side A, Side B) {
    auto v = [](const char *Var, Side S) {
      return inputVar(splitName(Var, S));
    };
    return std::vector<ExprRef>{
        maxE(add(v("mts", A), v("sum", B)), v("mts", B)),
        add(v("sum", A), v("sum", B))};
  };
  EXPECT_TRUE(
      checkHomomorphismProof(L, join(Side::Left, Side::Right)).Verified);
  ProofReport Swapped =
      checkHomomorphismProof(L, join(Side::Right, Side::Left));
  ASSERT_FALSE(Swapped.Verified);
  EXPECT_EQ(Swapped.Failure->StateVar, "mts") << Swapped.str();
  EXPECT_EQ(Swapped.Failure->Obligation, "step");
  EXPECT_EQ(Swapped.Failure->Details, "u = {mts=0, sum=-24}, v = {mts=0, "
                                      "sum=-12}, a = s:1 -> lhs 0 vs rhs 1");
  EXPECT_EQ(Swapped.BaseChecks, 1u);
  EXPECT_EQ(Swapped.StepChecks, 1u);
}

/// The exact witnesses of refutations found further into the sample
/// stream: bool-valued state, parameters, sentinel initial values and two
/// sequences. Any change to the order or the values of the sampler's draws
/// shows here.
TEST(ProofCheck, WitnessesArePinned) {
  struct Case {
    const char *What;
    ProofReport Report;
    const char *Obligation, *StateVar, *Details;
    uint64_t BaseChecks, StepChecks;
  };
  Loop SecondMin = parseBenchmark(*findBenchmark("2nd-min"));
  Loop Sorted = parseBenchmark(*findBenchmark("is-sorted"));
  Loop Poly = parseBenchmark(*findBenchmark("poly"));
  Loop Dot = mustParse("d = 0;\n"
                       "for (i = 0; i < |s|; i++) { d = d + s[i] * t[i]; }");
  ASSERT_EQ(equationNames(SecondMin), "m2 m");
  ASSERT_EQ(equationNames(Sorted), "sorted prev");
  ASSERT_EQ(equationNames(Poly), "res p");
  auto v = [](const char *Name, Type Ty = Type::Int) {
    return inputVar(Name, Ty);
  };
  const Case Cases[] = {
      {"2nd-min, the novice join",
       checkHomomorphismProof(SecondMin, {minE(v("m2_l"), v("m2_r")),
                                          minE(v("m_l"), v("m_r"))}),
       "step", "m2",
       "u = {m2=-2, m=-11}, v = {m2=1099511627776, m=3}, a = s:-11 -> lhs "
       "-2 vs rhs -11",
       8, 44},
      {"is-sorted, prev joined from the right alone",
       checkHomomorphismProof(
           Sorted, {andE(v("sorted_l", Type::Bool), v("sorted_r", Type::Bool)),
                    v("prev_r")}),
       "base", "prev",
       "u = {sorted=false, prev=-11}, join(u, init) gave -1099511627776", 1,
       0},
      {"poly, res without the power of x",
       checkHomomorphismProof(Poly, {add(v("res_l"), v("res_r")),
                                     mul(v("p_l"), v("p_r"))}),
       "step", "res",
       "u = {res=-297, p=81}, v = {res=-13, p=27}, a = s:-11 -> lhs -607 vs "
       "rhs -24367",
       1, 1},
      {"poly, p clamped from below",
       checkHomomorphismProof(
           Poly, {add(v("res_l"), mul(v("res_r"), v("p_l"))),
                  maxE(mul(v("p_l"), v("p_r")), intConst(-100))}),
       "step", "p",
       "u = {res=210455, p=59049}, v = {res=0, p=1}, a = s:0 -> lhs -100 vs "
       "rhs -177147",
       4, 19},
      {"dot product, clamped from below",
       checkHomomorphismProof(Dot,
                              {maxE(add(v("d_l"), v("d_r")), intConst(-60))}),
       "step", "d",
       "u = {d=-56}, v = {d=-27}, a = s:3 t:3 -> lhs -60 vs rhs -51", 1, 1},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.What);
    ASSERT_FALSE(C.Report.Verified);
    EXPECT_EQ(C.Report.Failure->Obligation, C.Obligation);
    EXPECT_EQ(C.Report.Failure->StateVar, C.StateVar);
    EXPECT_EQ(C.Report.Failure->Details, C.Details);
    EXPECT_EQ(C.Report.BaseChecks, C.BaseChecks);
    EXPECT_EQ(C.Report.StepChecks, C.StepChecks);
  }
}

/// Every Table-1 proof report, verified or refuted, as recorded in
/// ProofGoldens: the golden join and its side-swapped and left-only
/// variants on each final loop. The report pins the sampler's draw order
/// and its first failure across the whole stream, as WitnessesArePinned
/// does for the refutations further in.
TEST(ProofCheck, Table1ReportsArePinned) {
  size_t Checked = 0;
  for (const Benchmark &B : allBenchmarks()) {
    if (!B.ExpectFullSuccess)
      continue;
    GoldenParallelization Golden = goldenParallelization(B);
    const Loop &L = Golden.Final;
    const std::pair<const char *, std::vector<ExprRef>> Variants[] = {
        {"golden", Golden.Join},
        {"swapped", swapSides(L, Golden.Join)},
        {"left-only", leftOnlyJoin(L)}};
    for (const auto &[Variant, Join] : Variants) {
      SCOPED_TRACE(B.Name + ", " + Variant);
      const ProofGolden *Expected = nullptr;
      for (const ProofGolden &G : ProofGoldens)
        if (B.Name == G.Name && std::string(Variant) == G.Variant)
          Expected = &G;
      ASSERT_NE(Expected, nullptr) << "no proof golden";
      ++Checked;
      ProofReport Report = checkHomomorphismProof(L, Join);
      EXPECT_EQ(Report.BaseChecks, Expected->BaseChecks);
      EXPECT_EQ(Report.StepChecks, Expected->StepChecks);
      if (!Expected->Obligation) {
        EXPECT_TRUE(Report.Verified) << Report.str();
        continue;
      }
      ASSERT_FALSE(Report.Verified);
      EXPECT_EQ(Report.Failure->Obligation, Expected->Obligation);
      EXPECT_EQ(Report.Failure->StateVar, Expected->StateVar);
      EXPECT_EQ(Report.Failure->Details, Expected->Details);
      EXPECT_EQ(Report.Failure->Split.LeftLen, Expected->LeftLen);
      EXPECT_EQ(Report.Failure->Split.RightLen, Expected->RightLen);
    }
  }
  EXPECT_EQ(Checked, std::size(ProofGoldens));
}

/// The proof's span counts the samples it evaluated in lanes, including
/// those its chunk evaluated past the first failure: all 800 when the join
/// verifies; the first three chunks (1 + 3 + 12 samples) for 2nd-min's
/// novice join, refuted by its eighth sample.
TEST(ProofCheck, SpanCountsTheLanesEvaluated) {
  Tracer::instance().reset();
  Tracer::setEnabled(true);
  Loop SecondMin = parseBenchmark(*findBenchmark("2nd-min"));
  auto v = [](const char *Name) { return inputVar(Name); };
  ProofReport Verified = checkHomomorphismProof(
      sumLoop(), {add(inputVar("sum_l"), inputVar("sum_r"))});
  ProofReport Refuted = checkHomomorphismProof(
      SecondMin, {minE(v("m2_l"), v("m2_r")), minE(v("m_l"), v("m_r"))});
  Tracer::setEnabled(false);
  std::vector<TraceEvent> Events = Tracer::instance().drain();
  Tracer::instance().reset();
  ASSERT_TRUE(Verified.Verified);
  ASSERT_EQ(Refuted.BaseChecks, 8u);
  std::vector<std::string> Lanes;
  for (const TraceEvent &E : Events)
    if (std::string(E.Name) == "checkHomomorphismProof")
      for (const TraceAttr &A : E.Attrs)
        if (A.Key == "lanes")
          Lanes.push_back(A.Value);
  EXPECT_EQ(Lanes, (std::vector<std::string>{"800", "16"}));
}

/// The sequences of \p Chunk, a proof split's chunk of \p Len elements per
/// sequence, by name.
SeqEnv chunkSeqs(const Loop &L, const std::vector<int64_t> &Chunk,
                 size_t Len) {
  SeqEnv Seqs;
  for (size_t K = 0; K != L.Sequences.size(); ++K) {
    std::vector<Value> &Seq = Seqs[L.Sequences[K].Name];
    for (size_t J = 0; J != Len; ++J)
      Seq.push_back(Value::ofInt(Chunk[K * Len + J]));
  }
  return Seqs;
}

/// A refutation's split is what CEGIS adds to the oracle's tests, so it
/// must be a real counterexample: fE(x • y) != join(fE(x), fE(y)). Checked
/// on every Table-1 join whose side-swapped or left-only variant the proof
/// refutes, with the loop interpreter and the compiled join.
TEST(ProofCheck, RefutationsCarryACounterexample) {
  unsigned Refuted = 0, StepSplits = 0;
  for (const Benchmark &B : allBenchmarks()) {
    if (!B.ExpectFullSuccess)
      continue;
    SCOPED_TRACE(B.Name);
    GoldenParallelization Golden = goldenParallelization(B);
    const Loop &L = Golden.Final;
    const CompiledJoin Identity(JoinLayout(L), Golden.Join);
    for (const std::vector<ExprRef> &Wrong :
         {swapSides(L, Golden.Join), leftOnlyJoin(L)}) {
      ProofReport Report = checkHomomorphismProof(L, Wrong);
      if (Report.Verified)
        continue;
      ++Refuted;
      const ProofSplit &Split = Report.Failure->Split;
      StepSplits += Report.Failure->Obligation == "step";
      Env Params;
      for (size_t P = 0; P != L.Params.size(); ++P)
        Params[L.Params[P].Name] =
            Value::ofRaw(L.Params[P].Ty, Split.Params[P]);
      SeqEnv X = chunkSeqs(L, Split.Left, Split.LeftLen);
      SeqEnv Y = chunkSeqs(L, Split.Right, Split.RightLen);
      SeqEnv Whole = X;
      for (auto &[Name, Values] : Whole)
        Values.insert(Values.end(), Y[Name].begin(), Y[Name].end());
      StateTuple Left = runLoop(L, X, Params), Right = runLoop(L, Y, Params);
      StateTuple Expected = runLoop(L, Whole, Params);
      EXPECT_NE(CompiledJoin(JoinLayout(L), Wrong).apply(Left, Right, Params),
                Expected)
          << Report.str();
      // The golden join is right on it.
      EXPECT_EQ(Identity.apply(Left, Right, Params), Expected);
    }
  }
  // 35 refutations, every one by a failed step.
  EXPECT_EQ(Refuted, 35u);
  EXPECT_EQ(StepSplits, 35u);
}

/// Each way a split is resolved, on length's join made wrong on one right
/// state, n_r == K: for K = 0 the base obligation fails and the split is
/// (x, []); for K = 4 a step fails with v at K, and the split is (x, t');
/// for K = 5 a step fails with step(v, a) at K, and the split is
/// (x, t' • a). The join is wrong exactly when |y| = K.
TEST(ProofCheck, SplitsFollowTheFailedObligation) {
  Loop L = mustParse("n = 0;\nfor (i = 0; i < |s|; i++) { n = n + 1; }",
                     "length");
  auto v = [](const char *Name) { return inputVar(Name); };
  struct Case {
    int64_t K;
    const char *Obligation;
    const char *V;
  };
  for (const Case &C : {Case{0, "base", ""}, Case{4, "step", "v = {n=4}"},
                        Case{5, "step", "v = {n=4}"}}) {
    SCOPED_TRACE(C.K);
    ExprRef Sum = add(v("n_l"), v("n_r"));
    ProofReport Report = checkHomomorphismProof(
        L, {ite(eq(v("n_r"), intConst(C.K)), add(Sum, intConst(1)), Sum)});
    ASSERT_FALSE(Report.Verified);
    EXPECT_EQ(Report.Failure->Obligation, C.Obligation);
    EXPECT_NE(Report.Failure->Details.find(C.V), std::string::npos)
        << Report.str();
    const ProofSplit &Split = Report.Failure->Split;
    EXPECT_EQ(Split.LeftLen, 10u);
    EXPECT_EQ(Split.Left.size(), Split.LeftLen);
    EXPECT_EQ(Split.RightLen, static_cast<size_t>(C.K));
    EXPECT_EQ(Split.Right.size(), Split.RightLen);
  }
}

/// The pipeline's proof report is the final CEGIS round's check of the join
/// it returns: a lifted loop's, the report of the redundancy-removal retry
/// that was accepted last (line-sight drops two auxiliaries), and none at
/// all for a sequential fallback (max-block-1, whose lifted loop has no
/// join).
TEST(ProofCheck, PipelineReportsTheAcceptedJoinsProof) {
  struct Case {
    const char *Name;
    bool Verified;
    size_t Redundant;
  };
  const Case Cases[] = {{"mts", true, 0},
                        {"line-sight", true, 2},
                        {"max-block-1", false, 0}};
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    PipelineResult Result =
        parallelizeLoop(parseBenchmark(*findBenchmark(C.Name)));
    size_t Redundant = 0;
    for (const std::string &Dropped : Result.DroppedAux)
      Redundant += Dropped.find("(redundant)") != std::string::npos;
    EXPECT_EQ(Redundant, C.Redundant) << Result.report();
    if (!C.Verified) {
      EXPECT_TRUE(Result.SequentialFallback);
      EXPECT_FALSE(Result.Join.Proof.Verified);
      EXPECT_EQ(Result.Join.Proof.BaseChecks, 0u);
      EXPECT_EQ(Result.Join.Proof.StepChecks, 0u);
      continue;
    }
    ProofReport Fresh =
        checkHomomorphismProof(Result.Final, Result.Join.Components);
    EXPECT_TRUE(Result.Join.Proof.Verified) << Result.Join.Proof.str();
    EXPECT_EQ(Result.Join.Proof.Verified, Fresh.Verified);
    EXPECT_EQ(Result.Join.Proof.BaseChecks, Fresh.BaseChecks);
    EXPECT_EQ(Result.Join.Proof.StepChecks, Fresh.StepChecks);
  }
}

TEST(DafnyEmit, MatchesFigure7Structure) {
  Loop L = mustParse("mts = 0;\nsum = 0;\n"
                     "for (i = 0; i < |s|; i++) {\n"
                     "  mts = max(mts + s[i], 0);\n"
                     "  sum = sum + s[i];\n"
                     "}",
                     "mts");
  std::vector<ExprRef> Join = {
      maxE(inputVar("mts_r"), add(inputVar("mts_l"), inputVar("sum_r"))),
      add(inputVar("sum_l"), inputVar("sum_r"))};
  std::string Dafny = emitDafnyProof(L, Join);

  // Model functions with the base/recursive split.
  EXPECT_NE(Dafny.find("function F_Mts(s: seq<int>): int"),
            std::string::npos);
  EXPECT_NE(Dafny.find("if |s| == 0 then 0"), std::string::npos);
  // Join functions.
  EXPECT_NE(Dafny.find("function Join_Mts("), std::string::npos);
  // Lemmas with the generic induction guidance.
  EXPECT_NE(Dafny.find("lemma Hom_Mts("), std::string::npos);
  EXPECT_NE(Dafny.find("ensures F_Mts(s_s + s_t)"), std::string::npos);
  EXPECT_NE(Dafny.find("assert s_s + [] == s_s;"), std::string::npos);
  // The dependency rule: mts depends on sum, so Hom_Mts recalls Hom_Sum.
  size_t MtsLemma = Dafny.find("lemma Hom_Mts(");
  size_t SumRecall = Dafny.find("Hom_Sum(s_s, s_t[..|s_t|-1]);", MtsLemma);
  EXPECT_NE(SumRecall, std::string::npos);
}

TEST(DafnyEmit, HandlesParameters) {
  Loop L = mustParse("res = 0;\np = 1;\n"
                     "for (i = 0; i < |s|; i++) {\n"
                     "  res = res + s[i] * p;\n  p = p * x;\n}",
                     "poly");
  std::vector<ExprRef> Join = {
      add(inputVar("res_l"), mul(inputVar("p_l"), inputVar("res_r"))),
      mul(inputVar("p_l"), inputVar("p_r"))};
  std::string Dafny = emitDafnyProof(L, Join);
  EXPECT_NE(Dafny.find(", x: int)"), std::string::npos);
}

} // namespace
