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
// the result.
//
//===----------------------------------------------------------------------===//

#include "codegen/EmitCpp.h"
#include "observe/Report.h"
#include "pipeline/Parallelizer.h"
#include "proof/ProofCheck.h"
#include "runtime/InterpReduce.h"
#include "suite/Benchmarks.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace parsynt;
using namespace parsynt::test;

namespace {

/// The final join and the exact search counters of its synthesis call, per
/// Table-1 loop, plus the rewriter's work over the whole pipeline call and
/// the auxiliary count. Evaluator and enumerator changes must keep the
/// enumeration order and the first match; rewriter changes must keep the
/// Figure-6 search order and its closed set; so every field stays
/// identical. (max-block-1 fails as in the paper: an empty join, the
/// failing call's counters.)
struct JoinGolden {
  const char *Name;
  const char *Join;
  uint64_t SketchAssignments;
  uint64_t EnumeratedCandidates;
  uint64_t NormalizeExpanded;
  uint64_t NormalizeRuleHits;
  unsigned AuxCount;
};

const JoinGolden Goldens[] = {
    {"sum",
     "sum = (sum_l + sum_r)\n",
     0, 0,
     0, 0, 0},
    {"min",
     "m = min(m_l, m_r)\n",
     0, 0,
     0, 0, 0},
    {"max",
     "m = max(m_l, m_r)\n",
     0, 0,
     0, 0, 0},
    {"average",
     "sum = (sum_l + sum_r)\n"
     "cnt = (cnt_l + cnt_r)\n",
     0, 0,
     0, 0, 0},
    {"hamming",
     "ham = ((ham_r != -1) ? (ham_l + ham_r) : ham_l)\n",
     101, 548,
     0, 0, 0},
    {"length",
     "len = (len_l + len_r)\n",
     0, 0,
     0, 0, 0},
    {"2nd-min",
     "m2 = min(m2_l, max(min(m2_r, m_l), m_r))\n"
     "m = min(m_l, m_r)\n",
     1673, 5292,
     0, 0, 0},
    {"mps",
     "sum = (sum_l + sum_r)\n"
     "mps = max(mps_l, (sum_l + mps_r))\n",
     72, 3727,
     0, 0, 0},
    {"mts",
     "mts = max((mts_l + aux0_r), mts_r)\n"
     "aux0 = (aux0_l + aux0_r)\n",
     6, 3651,
     0, 0, 1},
    {"mss",
     "mss = max(max(mss_l, mss_r), (mts_l + aux1_r))\n"
     "mts = max((mts_l + aux0_r), mts_r)\n"
     "aux0 = (aux0_l + aux0_r)\n"
     "aux1 = max(aux1_l, (aux0_l + aux1_r))\n",
     41592, 31167,
     0, 0, 2},
    {"mts-p",
     "mts = max((mts_l + sum_r), mts_r)\n"
     "sum = (sum_l + sum_r)\n"
     "pos = ((max((mts_l + sum_r), mts_r) == mts_r) ? (_pos_l + pos_r) : "
     "pos_l)\n"
     "_pos = (_pos_l + _pos_r)\n",
     3576157, 26398,
     0, 0, 1},
    {"mps-p",
     "sum = (sum_l + sum_r)\n"
     "mps = (((sum_l + mps_r) > mps_l) ? (sum_l + mps_r) : mps_l)\n"
     "pos = (((sum_l + mps_r) > mps_l) ? (_pos_l + pos_r) : pos_l)\n"
     "_pos = (_pos_l + _pos_r)\n",
     22525, 22326,
     0, 0, 1},
    {"poly",
     "res = (res_l + (res_r * p_l))\n"
     "p = (p_l * p_r)\n",
     3, 7405,
     0, 0, 0},
    {"is-sorted",
     "sorted = ((prev_r == -1099511627776) ? sorted_l : "
     "((sorted_l && sorted_r) && (prev_l <= aux0_r)))\n"
     "prev = ((prev_r <= -1099511627776) ? prev_l : prev_r)\n"
     "aux0 = ((prev_l == -1099511627776) ? aux0_r : aux0_l)\n",
     7429813, 80150,
     1012, 7928, 1},
    {"atoi",
     "res = ((res_l * aux0_r) + res_r)\n"
     "aux0 = (aux0_l * aux0_r)\n",
     53, 6976,
     0, 0, 1},
    {"dropwhile",
     "cnt = (((cnt_l == _pos_l) && (cnt_r > -1)) ? (cnt_l + cnt_r) : cnt_l)\n"
     "_pos = (_pos_l + _pos_r)\n",
     12741, 2909,
     0, 0, 1},
    {"balanced-()",
     "ofs = (ofs_l + ofs_r)\n"
     "bal = (bal_l && (ofs_l >= aux0_r))\n"
     "aux0 = max(aux0_l, (aux0_r - ofs_l))\n",
     42440, 10399,
     20016, 369094, 1},
    {"0*1*",
     "ok = (seen1_l ? (ok_l && aux0_r) : ok_r)\n"
     "seen1 = (seen1_l || seen1_r)\n"
     "aux0 = (aux0_l && aux0_r)\n",
     43162, 634,
     0, 0, 1},
    {"count-1's",
     "cnt = ((cnt_l + cnt_r) + ((prev1_l && aux1_r) ? -1 : 0))\n"
     "prev1 = ((_pos_r <= 0) ? prev1_l : prev1_r)\n"
     "_pos = (_pos_l + _pos_r)\n"
     "aux1 = (((aux1_r ? _pos_l : -1) == 0) ? true : aux1_l)\n",
     8223180, 40755,
     12000, 259621, 2},
    {"line-sight",
     "vis = ((m_r == -1099511627776) ? vis_l : "
     "(m_r >= (vis_r ? m_l : 1099511627776)))\n"
     "m = max(m_l, m_r)\n",
     46465, 23395,
     8002, 116111, 0},
    {"0after1",
     "res = ((res_l || res_r) || (seen1_l && aux0_r))\n"
     "seen1 = (seen1_l || seen1_r)\n"
     "aux0 = (aux0_l || aux0_r)\n",
     10532, 1148,
     0, 0, 1},
    {"max-block-1",
     "",
     14978666, 40083,
     88016, 1637748, 3},
};

const JoinGolden *goldenFor(const std::string &Name) {
  for (const JoinGolden &G : Goldens)
    if (Name == G.Name)
      return &G;
  return nullptr;
}

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

TEST(Pipeline, ReportIsInformative) {
  Loop L = parseBenchmark(*findBenchmark("mts"));
  PipelineResult Result = parallelizeLoop(L);
  ASSERT_TRUE(Result.Success);
  std::string Report = Result.report();
  EXPECT_NE(Report.find("aux required: yes"), std::string::npos);
  EXPECT_NE(Report.find("join:"), std::string::npos);
}

TEST(Pipeline, NoLiftOptionStopsEarly) {
  PipelineOptions Opts;
  Opts.TryLift = false;
  Loop L = parseBenchmark(*findBenchmark("mts"));
  PipelineResult Result = parallelizeLoop(L, Opts);
  EXPECT_FALSE(Result.Success);
  EXPECT_TRUE(Result.AuxRequired);
}

} // namespace
