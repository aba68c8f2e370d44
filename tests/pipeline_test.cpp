//===- tests/pipeline_test.cpp - Full-pipeline benchmark sweep ------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The integration test of record: every Table-1 benchmark runs through the
// complete pipeline (join synthesis -> lifting -> join synthesis ->
// redundancy removal), the outcome is checked against the paper's
// qualitative claims, every synthesized join is re-validated on fresh
// random inputs far beyond the synthesis bound, and every checked-in
// Figure-8 kernel (src/suite/generated/) must equal the emitter's output for
// the result. ProofSweep re-checks the pinned joins' proofs without
// synthesizing.
//
//===----------------------------------------------------------------------===//

#include "codegen/EmitCpp.h"
#include "observe/Report.h"
#include "pipeline/Parallelizer.h"
#include "proof/ProofCheck.h"
#include "runtime/InterpReduce.h"
#include "suite/Benchmarks.h"
#include "Goldens.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace parsynt;
using namespace parsynt::test;

namespace {

/// Checks that \p B's checked-in Figure-8 kernel is what the emitter
/// writes for \p Original, \p Lifted and \p Join.
void expectKernelUpToDate(const Benchmark &B, const Loop &Original,
                          const Loop &Lifted,
                          const std::vector<ExprRef> &Join) {
  std::string Path = std::string(PARSYNT_SRC_DIR "/suite/generated/") +
                     kernelIdentifier(B.Name) + ".inc";
  std::ifstream In(Path);
  std::ostringstream CheckedIn;
  CheckedIn << In.rdbuf();
  EXPECT_TRUE(CheckedIn.str() ==
              emitNativeKernel(Original, Lifted, Join, B.Result))
      << Path << " differs from the emitter's output for " << B.Name
      << "; regenerate it with tools/ci/regen_kernels.sh";
}

class PipelineSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(PipelineSweep, MatchesPaperExpectations) {
  const Benchmark &B = allBenchmarks()[GetParam()];
  Loop L = parseBenchmark(B);
  MetricsRegistry::Snapshot Before = MetricsRegistry::global().snapshot();
  PipelineResult Result = parallelizeLoop(L);
  auto Deltas =
      counterDeltas(Before, MetricsRegistry::global().snapshot());
  auto deltaOf = [&](const std::string &Name) -> uint64_t {
    for (const auto &KV : Deltas)
      if (KV.first == Name)
        return KV.second;
    return 0;
  };

  const JoinGolden *Golden = goldenFor(B.Name);
  ASSERT_NE(Golden, nullptr) << "no golden join for " << B.Name;
  EXPECT_EQ(joinToString(Result.Final, Result.Join.Components), Golden->Join);
  EXPECT_EQ(Result.Join.Stats.SketchAssignmentsTried,
            Golden->SketchAssignments);
  EXPECT_EQ(Result.Join.Stats.EnumeratedCandidates,
            Golden->EnumeratedCandidates);
  EXPECT_EQ(deltaOf("normalize.expanded"), Golden->NormalizeExpanded);
  EXPECT_EQ(deltaOf("normalize.rule_hits"), Golden->NormalizeRuleHits);
  EXPECT_EQ(Result.AuxCount, Golden->AuxCount);
  EXPECT_EQ(deltaOf("pipeline.lift_attempts"), Golden->LiftAttempts);

  // The compiled runtime against the evalExpr reference, on wrap-around
  // edge inputs: the original loop sequentially, the final loop in
  // parallel (a failed search's empty join runs it sequentially) on one and
  // four threads over the identical join tree.
  {
    Rng R(0xd1ff + GetParam());
    const std::vector<int64_t> Domain = {-50, -7, 1,  2,  9,
                                         40,  41, 48, 57, 100};
    SeqEnv Seqs = edgeInputs(L, 1500, Domain, R);
    Env Params;
    for (const ParamDecl &P : L.Params)
      Params[P.Name] = Value::ofInt(R.chance(1, 2) ? -1 : INT64_MIN);
    EXPECT_EQ(runLoop(L, Seqs, Params), referenceRunLoop(L, Seqs, Params));
    const Loop &F = Result.Final;
    const std::vector<ExprRef> &Join = Result.Join.Components;
    StateTuple Expected = referenceParallelRun(F, Join, Seqs, 64, Params);
    for (unsigned Threads : {1u, 4u}) {
      TaskPool Pool(Threads);
      EXPECT_EQ(parallelRunLoop(F, Join, Seqs, Pool, 64, Params), Expected)
          << Threads << " threads";
    }
  }

  if (!B.ExpectFullSuccess) {
    // max-block-1: the paper's tool finds 1 of 2 auxiliaries and fails;
    // ours must fail the same way, having made partial progress.
    EXPECT_FALSE(Result.Success) << Result.report();
    EXPECT_TRUE(Result.AuxRequired);
    EXPECT_GE(Result.AuxDiscovered, 1u);
    // Phase 1 is refuted by two of its oracle's tests, and the failure
    // names them, in the report and in its --report json form.
    EXPECT_EQ(Result.Refuted, 1u);
    const std::string Witness = "before lifting, no join exists: the tests {x";
    EXPECT_NE(Result.report().find(Witness), std::string::npos)
        << Result.report();
    EXPECT_NE(makeBenchmarkEntry(B.Name, Result).Failure.toJson().find(Witness),
              std::string::npos);
    // Its Figure-8 kernel comes from the hand lifting, whose join must
    // discharge both proof obligations.
    std::optional<HandLifting> Hand = handLifting(B);
    ASSERT_TRUE(Hand.has_value());
    ProofReport Proof = checkHomomorphismProof(Hand->Lifted, Hand->Join);
    EXPECT_TRUE(Proof.Verified) << Proof.str();
    expectKernelUpToDate(B, L, Hand->Lifted, Hand->Join);
    return;
  }
  expectKernelUpToDate(B, L, Result.Final, Result.Join.Components);

  ASSERT_TRUE(Result.Success) << Result.report();
  EXPECT_EQ(Result.AuxRequired, B.ExpectAuxRequired) << Result.report();
  // The final CEGIS round's proof accepted the synthesized join.
  EXPECT_TRUE(Result.Join.Proof.Verified)
      << B.Name << ": " << Result.Join.Proof.str();
  if (B.ExpectedAux >= 0) {
    EXPECT_EQ(Result.AuxCount, static_cast<unsigned>(B.ExpectedAux))
        << Result.report();
  }

  // Independent validation: the homomorphism property on fresh inputs with
  // lengths and values well beyond the synthesis oracle's bound.
  const Loop &F = Result.Final;
  Rng R(0x515 + GetParam());
  std::vector<int64_t> Pool = {-50, -7, -1, 0, 1, 2, 9, 40, 41, 48, 57, 100};
  for (unsigned Round = 0; Round != 120; ++Round) {
    SeqEnv Left, Right, Whole;
    size_t LenL = static_cast<size_t>(R.intIn(0, 16));
    size_t LenR = static_cast<size_t>(R.intIn(0, 16));
    for (const SeqDecl &S : F.Sequences) {
      std::vector<Value> Lv, Rv;
      for (size_t I = 0; I != LenL; ++I)
        Lv.push_back(Value::ofInt(Pool[R.index(Pool.size())]));
      for (size_t I = 0; I != LenR; ++I)
        Rv.push_back(Value::ofInt(Pool[R.index(Pool.size())]));
      std::vector<Value> Wv = Lv;
      Wv.insert(Wv.end(), Rv.begin(), Rv.end());
      Left[S.Name] = std::move(Lv);
      Right[S.Name] = std::move(Rv);
      Whole[S.Name] = std::move(Wv);
    }
    Env Params;
    for (const ParamDecl &P : F.Params)
      Params[P.Name] = Value::ofInt(R.intIn(-3, 3));

    StateTuple Joined =
        referenceJoin(F, Result.Join.Components, runLoop(F, Left, Params),
                      runLoop(F, Right, Params), Params);
    StateTuple Expected = runLoop(F, Whole, Params);
    for (size_t I = 0; I != F.Equations.size(); ++I) {
      ASSERT_EQ(Joined[I], Expected[I])
          << B.Name << " component " << F.Equations[I].Name << " = "
          << exprToString(Result.Join.Components[I]);
    }
  }
}

std::string sweepName(const ::testing::TestParamInfo<size_t> &Info) {
  std::string Name = allBenchmarks()[Info.param].Name;
  std::string Clean;
  for (char C : Name)
    Clean += std::isalnum(static_cast<unsigned char>(C)) ? C : '_';
  return Clean;
}

INSTANTIATE_TEST_SUITE_P(Table1, PipelineSweep,
                         ::testing::Range<size_t>(0, allBenchmarks().size()),
                         sweepName);

/// Property sweep: every golden join passes the proof obligations on its
/// final loop. No synthesis runs here: PipelineSweep checks that the
/// pipeline synthesizes these joins and that their CEGIS proofs accepted
/// them.
class ProofSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(ProofSweep, SynthesizedJoinsVerify) {
  const Benchmark &B = allBenchmarks()[GetParam()];
  if (!B.ExpectFullSuccess)
    GTEST_SKIP() << "paper-known lifting failure";
  GoldenParallelization Golden = goldenParallelization(B);
  ASSERT_EQ(Golden.Join.size(), Golden.Final.Equations.size());
  ProofReport Report = checkHomomorphismProof(Golden.Final, Golden.Join);
  EXPECT_TRUE(Report.Verified) << B.Name << ": " << Report.str();
}

INSTANTIATE_TEST_SUITE_P(Table1, ProofSweep,
                         ::testing::Range<size_t>(0, allBenchmarks().size()),
                         sweepName);

TEST(IsSortedJoin, HoldsOnElementsBelowMinInt) {
  // is-sorted's prev join reads prev_r == MIN_INT, the initial value, as
  // "the right block is empty". The size-6 free-grammar join it replaced,
  // prev_r <= MIN_INT, read a block ending below MIN_INT as empty too, and
  // kept the left block's prev: on [-2^42, -2^41, -2^41 - 5] in three
  // blocks it ended with prev = -2^42, not the last element. (sorted is
  // false either way: the loop compares the first element with MIN_INT.)
  GoldenParallelization Golden =
      goldenParallelization(*findBenchmark("is-sorted"));
  const Loop &F = Golden.Final;
  const int64_t Below = -(int64_t(1) << 41);
  SeqEnv Seqs;
  Seqs["s"] = {Value::ofInt(2 * Below), Value::ofInt(Below),
               Value::ofInt(Below - 5)};
  const StateTuple Expected = runLoop(F, Seqs);
  const size_t Prev = F.findEquation("prev") - F.Equations.data();
  ASSERT_EQ(Expected[Prev].asInt(), Below - 5);

  std::string OldJoin = goldenFor("is-sorted")->Join;
  const std::string PrevLine = "prev = ((prev_r == ";
  ASSERT_NE(OldJoin.find(PrevLine), std::string::npos);
  OldJoin.replace(OldJoin.find(PrevLine), PrevLine.size(),
                  "prev = ((prev_r <= ");
  // Grain 1: one block per element.
  TaskPool Pool(2);
  EXPECT_EQ(parallelRunLoop(F, Golden.Join, Seqs, Pool, /*Grain=*/1),
            Expected);
  EXPECT_EQ(parallelRunLoop(F, parseJoin(F, OldJoin), Seqs, Pool,
                            /*Grain=*/1)[Prev]
                .asInt(),
            2 * Below);
}

TEST(Pipeline, ReportIsInformative) {
  Loop L = parseBenchmark(*findBenchmark("mts"));
  PipelineResult Result = parallelizeLoop(L);
  ASSERT_TRUE(Result.Success);
  std::string Report = Result.report();
  EXPECT_NE(Report.find("aux required: yes"), std::string::npos);
  EXPECT_NE(Report.find("join:"), std::string::npos);
}

} // namespace
