//===- tests/parallel_synth_test.cpp - Schedule-independent join synthesis ===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The join search runs its large enumeration levels and sketch sweeps on the
// shared task pool. These tests pin its results to the sequential search:
// candidate pools equal the reference enumeration candidate by candidate,
// and joins and counters equal the figures of the sequential search. Every
// case runs under three schedules made with the existing fault points: the
// default, every spawn degraded to an inline call on the calling thread
// (pool.alloc), and every third steal attempt failing (pool.steal).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "suite/Benchmarks.h"
#include "support/FaultInjector.h"
#include "synth/HomOracle.h"
#include "synth/JoinSynth.h"

#include <gtest/gtest.h>

#include <set>

using namespace parsynt;
using namespace parsynt::test;

namespace {

struct Schedule {
  const char *Name;
  const char *Faults;
};

const Schedule Schedules[] = {
    {"default", ""},
    {"inline", "pool.alloc"},
    {"steal3", "pool.steal:every=3"},
};

void PrintTo(const Schedule &S, std::ostream *OS) { *OS << S.Name; }

/// The fault spec of \p S plus \p Extra clauses.
std::string faultSpec(const Schedule &S, const std::string &Extra = "") {
  std::string Spec = S.Faults;
  if (!Extra.empty())
    Spec = Spec.empty() ? Extra : Extra + "," + Spec;
  return Spec;
}

/// Feeds \p Into the leaves synthesis gives a join search's left-right pool
/// for \p L: both split values of every state variable, the parameters, the
/// loop's integer constants with 0 / 1 / -1, and the booleans.
template <typename EnumeratorT>
void addJoinLeaves(const Loop &L, const HomOracle &Oracle,
                   EnumeratorT &Into) {
  std::vector<ExprRef> Leaves;
  for (const Equation &Eq : L.Equations) {
    Leaves.push_back(inputVar(splitName(Eq.Name, Side::Left), Eq.Ty));
    Leaves.push_back(inputVar(splitName(Eq.Name, Side::Right), Eq.Ty));
  }
  for (const ParamDecl &P : L.Params)
    Leaves.push_back(inputVar(P.Name, P.Ty));
  std::set<int64_t> Constants = {0, 1, -1};
  for (const Equation &Eq : L.Equations)
    for (const ExprRef &Root : {Eq.Update, Eq.Init})
      forEachNode(Root, [&](const ExprRef &Node) {
        if (const auto *C = dyn_cast<IntConstExpr>(Node))
          Constants.insert(C->value());
      });
  for (int64_t C : Constants)
    Leaves.push_back(intConst(C));
  Leaves.push_back(boolConst(true));
  Leaves.push_back(boolConst(false));
  for (const ExprRef &Leaf : Leaves)
    Into.addLeaf(Leaf, Oracle.column(Leaf));
}

void expectSamePools(const Enumerator &E, const ReferenceEnumerator &R,
                     const std::string &What) {
  for (Type Ty : {Type::Int, Type::Bool}) {
    const std::vector<Candidate> &Got = E.candidates(Ty);
    const auto &Want = R.candidates(Ty);
    ASSERT_EQ(Got.size(), Want.size()) << What << ": pool size";
    for (size_t I = 0; I != Want.size(); ++I) {
      ASSERT_EQ(exprToString(E.expr(Got[I])), exprToString(Want[I].E))
          << What << ": candidate " << I;
      ASSERT_EQ(std::vector<int64_t>(Got[I].Values,
                                     Got[I].Values + E.numTests()),
                Want[I].Values)
          << What << ": column of candidate " << I;
    }
  }
}

/// Grows both enumerators the way synthesis grows its left-right pool: to the
/// sketch tiers' size 5, then to the free grammar's size 7. Returns the
/// integer pool's size after each step.
std::vector<size_t> growAndCompare(const std::string &Benchmark,
                                   size_t MaxPerType) {
  Loop L = parseBenchmark(*findBenchmark(Benchmark));
  HomOracle Oracle(L);
  EnumeratorOptions Options;
  Options.MaxPerType = MaxPerType;
  Enumerator E(Oracle.tests().size(), Options);
  ReferenceEnumerator R(Options);
  addJoinLeaves(L, Oracle, E);
  addJoinLeaves(L, Oracle, R);
  std::vector<size_t> IntPoolSizes;
  for (unsigned MaxSize : {5u, 7u}) {
    E.growTo(MaxSize);
    R.growTo(MaxSize);
    expectSamePools(E, R,
                    Benchmark + " up to size " + std::to_string(MaxSize));
    IntPoolSizes.push_back(E.candidates(Type::Int).size());
  }
  // The comparison covered levels large enough to be split over the pool.
  EXPECT_GT(E.parallelCombinations(), 0u) << Benchmark;
  EXPECT_LE(E.parallelCombinations(), E.combinations()) << Benchmark;
  return IntPoolSizes;
}

class ParallelEnumerator : public ::testing::TestWithParam<Schedule> {};

TEST_P(ParallelEnumerator, PoolsMatchSequentialReference) {
  FaultScope Scope(faultSpec(GetParam()));
  for (const char *Benchmark : {"mts", "mts-p", "line-sight"})
    growAndCompare(Benchmark, EnumeratorOptions().MaxPerType);
}

TEST_P(ParallelEnumerator, CapFallingMidWaveMatchesReference) {
  // mts's size-7 level (42 356 combinations, split over the pool) brings the
  // integer pool from 636 candidates to far more than this cap admits, so
  // the cap is reached while the caller inserts one wave's survivors, and
  // the later waves skip integer combinations.
  FaultScope Scope(faultSpec(GetParam()));
  std::vector<size_t> IntPoolSizes = growAndCompare("mts", 1500);
  EXPECT_LT(IntPoolSizes[0], 1500u);
  EXPECT_EQ(IntPoolSizes[1], 1500u);
}

TEST(EnumeratorStorage, ExpressionsAreBuiltOnDemand) {
  // Growing line-sight's left-right pool to the free grammar's size 7 keeps
  // tens of thousands of candidates but interns no expression node; expr()
  // builds each one from its recipe, as the reference printed it.
  Loop L = parseBenchmark(*findBenchmark("line-sight"));
  HomOracle Oracle(L);
  EnumeratorOptions Options;
  Enumerator E(Oracle.tests().size(), Options);
  ReferenceEnumerator R(Options);
  addJoinLeaves(L, Oracle, E);
  addJoinLeaves(L, Oracle, R);
  const size_t NodesBefore = liveExprCount();
  E.growTo(7);
  const size_t NodesGrown = liveExprCount() - NodesBefore;
  EXPECT_GT(E.totalCandidates(), 10000u);
  EXPECT_LT(NodesGrown * 100, E.totalCandidates());
  R.growTo(7);
  for (Type Ty : {Type::Int, Type::Bool}) {
    const std::vector<Candidate> &Got = E.candidates(Ty);
    const auto &Want = R.candidates(Ty);
    ASSERT_EQ(Got.size(), Want.size());
    for (size_t I = 0; I != Want.size(); ++I)
      ASSERT_EQ(exprToString(E.expr(Got[I])), exprToString(Want[I].E))
          << "candidate " << I;
  }
}

TEST(EnumeratorStorage, ColumnsStayPutWhenGrowing) {
  // A column taken after the size-5 run is still at the same address, with
  // the same values, after growing to size 7 (which adds slabs and moves
  // the candidate arrays).
  Loop L = parseBenchmark(*findBenchmark("mts-p"));
  HomOracle Oracle(L);
  Enumerator E(Oracle.tests().size());
  addJoinLeaves(L, Oracle, E);
  E.growTo(5);
  std::vector<const int64_t *> Pointers;
  std::vector<std::vector<int64_t>> Columns;
  for (Type Ty : {Type::Int, Type::Bool})
    for (const Candidate &C : E.candidates(Ty)) {
      Pointers.push_back(C.Values);
      Columns.emplace_back(C.Values, C.Values + E.numTests());
    }
  const size_t Before = E.totalCandidates();
  E.growTo(7);
  ASSERT_GT(E.totalCandidates(), Before);
  size_t K = 0;
  for (Type Ty : {Type::Int, Type::Bool}) {
    const std::vector<Candidate> &Cands = E.candidates(Ty);
    for (size_t I = 0; K != Pointers.size() && I != Cands.size() &&
                       Cands[I].Size <= 5;
         ++I, ++K) {
      ASSERT_EQ(Cands[I].Values, Pointers[K]) << "candidate " << K;
      ASSERT_EQ(std::vector<int64_t>(Pointers[K], Pointers[K] + E.numTests()),
                Columns[K])
          << "candidate " << K;
    }
  }
  EXPECT_EQ(K, Pointers.size());
}

TEST(EnumeratorStorage, GrowingInStepsMatchesOneGrowth) {
  // Join synthesis grows its left-right pool a sketch tier or a free-grammar
  // level at a time. Each level is built from smaller ones only, so stopping
  // at every step builds the very pool that one growth to size 7 builds:
  // the same candidates, columns and sizes, in the same order.
  for (const char *Benchmark : {"line-sight", "mts-p"}) {
    Loop L = parseBenchmark(*findBenchmark(Benchmark));
    HomOracle Oracle(L);
    Enumerator Steps(Oracle.tests().size());
    Enumerator Once(Oracle.tests().size());
    addJoinLeaves(L, Oracle, Steps);
    addJoinLeaves(L, Oracle, Once);
    for (unsigned Size : {1u, 3u, 5u, 6u, 7u}) {
      Steps.growTo(Size);
      EXPECT_EQ(Steps.builtSize(), Size) << Benchmark;
    }
    Once.growTo(1);
    Once.growTo(7);
    EXPECT_EQ(Steps.combinations(), Once.combinations()) << Benchmark;
    for (Type Ty : {Type::Int, Type::Bool}) {
      const std::vector<Candidate> &Got = Steps.candidates(Ty);
      const std::vector<Candidate> &Want = Once.candidates(Ty);
      ASSERT_EQ(Got.size(), Want.size()) << Benchmark;
      for (size_t I = 0; I != Want.size(); ++I) {
        ASSERT_EQ(Got[I].Size, Want[I].Size)
            << Benchmark << ": candidate " << I;
        ASSERT_EQ(exprToString(Steps.expr(Got[I])),
                  exprToString(Once.expr(Want[I])))
            << Benchmark << ": candidate " << I;
        ASSERT_EQ(std::vector<int64_t>(Got[I].Values,
                                       Got[I].Values + Steps.numTests()),
                  std::vector<int64_t>(Want[I].Values,
                                       Want[I].Values + Once.numTests()))
            << Benchmark << ": column of candidate " << I;
      }
    }
  }
}

/// The figures of the sequential search for one synthesizeJoin call.
struct Expected {
  const char *Benchmark;
  const char *Join;
  uint64_t SketchAssignments;
  uint64_t EnumeratedCandidates;
  unsigned CegisIterations;
  unsigned TestsUsed;
  /// Schedule-independent split counters of the parallel search, and the
  /// combinations the free grammar's last-level scans walked.
  uint64_t Combinations, ParallelCombinations, ParallelAssignments, Scanned;
  /// The search space: with the empty-guard sketch (lifted loops), or the
  /// paper's C(E) and free grammar alone (original loops).
  bool AllowEmptyGuard = true;
};

JoinResult synthesize(const Loop &L, const Expected &X) {
  JoinSynthOptions Options;
  Options.AllowEmptyGuard = X.AllowEmptyGuard;
  return synthesizeJoin(L, Options);
}

void expectStats(const JoinResult &R, const Loop &L, const Expected &X) {
  EXPECT_EQ(joinToString(L, R.Components), X.Join) << X.Benchmark;
  EXPECT_EQ(R.Stats.SketchAssignmentsTried, X.SketchAssignments)
      << X.Benchmark;
  EXPECT_EQ(R.Stats.EnumeratedCandidates, X.EnumeratedCandidates)
      << X.Benchmark;
  EXPECT_EQ(R.Stats.CegisIterations, X.CegisIterations) << X.Benchmark;
  EXPECT_EQ(R.Stats.TestsUsed, X.TestsUsed) << X.Benchmark;
  EXPECT_EQ(R.Stats.EnumeratedCombinations, X.Combinations) << X.Benchmark;
  EXPECT_EQ(R.Stats.ParallelCombinations, X.ParallelCombinations)
      << X.Benchmark;
  EXPECT_EQ(R.Stats.ParallelAssignments, X.ParallelAssignments)
      << X.Benchmark;
  EXPECT_EQ(R.Stats.ScannedCombinations, X.Scanned) << X.Benchmark;
  // The caller's in-order merge is a part of the enumeration's wall time.
  EXPECT_GT(R.Stats.MergeNanos, 0u) << X.Benchmark;
  EXPECT_LE(R.Stats.MergeNanos, R.Stats.EnumerateNanos) << X.Benchmark;
}

class ParallelJoinSynth : public ::testing::TestWithParam<Schedule> {};

TEST_P(ParallelJoinSynth, JoinsAndStatsMatchSequentialSearch) {
  // The original loops, before lifting: atoi has no join for its value and
  // no witness in the oracle's tests, so its failing search runs every
  // sweep, those of its last tiers capped at the 2,000,000-assignment
  // budget, and grows its pool through a pool-sized level (size 6).
  // line-sight's vis takes the empty-guard sketch, tried before the free
  // grammar grows the pool past the sketch tiers, so no level is
  // pool-sized; without the guard (the pipeline's search on an original
  // loop) the free grammar grows the pool to size 6 and finds nothing. In
  // both failing searches the scan of the free grammar's last level (size
  // 7: 328327 and 146631 combinations) misses, so that level is never
  // built (building it took the counts to 363188 and 174076 combinations
  // and 25429 and 23395 candidates). The figures are the sequential
  // search's.
  const Expected Cases[] = {
      {"atoi", "res = <unsolved>\n", 9399527, 5280, 0, 233, 34861, 33334,
       9317636, 328327},
      {"line-sight",
       "vis = ((m_r == -1099511627776) ? vis_l : (m_r >= (vis_r ? m_l : "
       "1099511627776)))\nm = max(m_l, m_r)\n",
       46466, 1413, 0, 233, 7871, 0, 23348, 0},
      {"line-sight", "vis = <unsolved>\nm = <unsolved>\n", 37391, 4597, 0,
       233, 27445, 19574, 23348, 146631, /*AllowEmptyGuard=*/false},
  };
  FaultScope Scope(faultSpec(GetParam()));
  for (const Expected &X : Cases) {
    Loop L = parseBenchmark(*findBenchmark(X.Benchmark));
    expectStats(synthesize(L, X), L, X);
  }
}

TEST_P(ParallelJoinSynth, RejectedWinnersResumeTheSweep) {
  // The first three passing assignments are refused; each sweep resumes
  // after its refused winner, exactly where the sequential search went on.
  // line-sight's refused winners lie in sweeps that run on the pool, which
  // the larger share of pool-sized assignments shows (70044 vs 23348).
  const Expected X = {"line-sight", "vis = <unsolved>\nm = <unsolved>\n",
                      112173, 4597, 0, 233, 27445, 19574, 70044, 146631};
  FaultScope Scope(faultSpec(GetParam(), "synth.reject:limit=3"));
  Loop L = parseBenchmark(*findBenchmark(X.Benchmark));
  expectStats(synthesize(L, X), L, X);
  EXPECT_EQ(FaultInjector::instance().fireCount("synth.reject"), 3u);
}

std::string scheduleName(const ::testing::TestParamInfo<Schedule> &Info) {
  return Info.param.Name;
}

INSTANTIATE_TEST_SUITE_P(Schedules, ParallelEnumerator,
                         ::testing::ValuesIn(Schedules), scheduleName);
INSTANTIATE_TEST_SUITE_P(Schedules, ParallelJoinSynth,
                         ::testing::ValuesIn(Schedules), scheduleName);

} // namespace
