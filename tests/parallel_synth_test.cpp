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
// joins and counters equal the figures of the sequential search, and the
// lane sweep over random sketches picks the winner that a brute-force sweep
// in index order picks. Every case runs under three schedules made with the
// existing fault points: the default, every spawn degraded to an inline call
// on the calling thread (pool.alloc), and every third steal attempt failing
// (pool.steal).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "ir/ExprOps.h"
#include "normalize/Simplify.h"
#include "suite/Benchmarks.h"
#include "support/FaultInjector.h"
#include "support/Random.h"
#include "synth/HomOracle.h"
#include "synth/JoinSynth.h"
#include "synth/SketchSearch.h"

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

//===----------------------------------------------------------------------===//
// The lane sweep against a brute-force sweep in index order.
//===----------------------------------------------------------------------===//

/// One random sweep: a sketch, its tests, leaf pools and a budget.
struct SweepCase {
  Sketch S;
  std::vector<Env> Rows;
  std::vector<int64_t> Target;
  /// Per hole: its candidates, whose columns live in Columns.
  std::vector<std::vector<Candidate>> Candidates;
  std::vector<std::vector<int64_t>> Columns;
  unsigned MaxHoleSize = 3;
  uint64_t Budget = 0;
  unsigned Rejections = 0;

  std::vector<HolePool> pools() const {
    std::vector<HolePool> Pools;
    for (const std::vector<Candidate> &Cands : Candidates) {
      HolePool &Pool = Pools.emplace_back();
      Pool.BySize.resize(MaxHoleSize + 1);
      for (const Candidate &C : Cands)
        Pool.BySize[C.Size].push_back(&C);
      for (unsigned Size = MaxHoleSize; Size >= 1; --Size)
        if (!Pool.BySize[Size].empty())
          Pool.MinSize = Size;
    }
    return Pools;
  }

  /// The raw value of the body on row \p T under \p Assignment, by the
  /// tree-walking reference.
  int64_t eval(const std::vector<const Candidate *> &Assignment,
               size_t T) const {
    Env Row = Rows[T];
    for (size_t H = 0; H != S.Holes.size(); ++H) {
      const int64_t V = Assignment[H]->Values[T];
      Row[S.Holes[H].Name] = S.Holes[H].Ty == Type::Int ? Value::ofInt(V)
                                                        : Value::ofBool(V);
    }
    return test::evalExpr(S.Body, Row).raw();
  }
};

SweepCase randomSweepCase(Rng &R, unsigned Case) {
  SweepCase C;
  const std::vector<std::pair<std::string, Type>> Others = {{"x", Type::Int},
                                                            {"p", Type::Bool}};
  const size_t NumHoles = 1 + Case % 4;
  // Every fourth case is large enough for the sweeps to run on the pool.
  const bool Large = NumHoles >= 3 && Case % 8 >= 4;
  std::vector<std::pair<std::string, Type>> Vars;
  for (size_t H = 0; H != NumHoles; ++H) {
    const Type Ty = R.chance(2, 3) ? Type::Int : Type::Bool;
    C.S.Holes.push_back({"?h" + std::to_string(H), Ty, false});
    Vars.emplace_back(C.S.Holes.back().Name, Ty);
  }
  Vars.insert(Vars.end(), Others.begin(), Others.end());
  const Type BodyTy = R.flip() ? Type::Int : Type::Bool;
  // Bodies that read every hole, as C(E)'s do, where a few draws find one.
  for (unsigned Try = 0; Try != 20; ++Try) {
    C.S.Body = test::randomExpr(R, 2 + R.index(2), BodyTy, Vars);
    bool All = true;
    for (const Hole &H : C.S.Holes)
      All = All && containsVar(C.S.Body, H.Name);
    if (All)
      break;
  }
  const size_t NumTests = 1 + R.index(6);
  for (size_t T = 0; T != NumTests; ++T)
    C.Rows.push_back({{"x", Value::ofInt(R.chance(1, 8) ? INT64_MIN
                                                        : R.intIn(-2, 2))},
                      {"p", Value::ofBool(R.flip())}});
  // Leaf candidates: small expressions over x and p with their columns.
  C.Candidates.resize(NumHoles);
  C.Columns.reserve(NumHoles * 150);
  for (size_t H = 0; H != NumHoles; ++H) {
    const size_t Count =
        Large ? 60 + R.index(91) : (R.chance(1, 12) ? 0 : R.index(41));
    for (size_t K = 0; K != Count; ++K) {
      Candidate &Cand = C.Candidates[H].emplace_back();
      Cand.LeafExpr = test::randomExpr(R, R.index(2), C.S.Holes[H].Ty, Others);
      Cand.Size = 1 + static_cast<unsigned>(R.index(C.MaxHoleSize));
      std::vector<int64_t> &Column = C.Columns.emplace_back();
      for (const Env &Row : C.Rows)
        Column.push_back(test::evalExpr(Cand.LeafExpr, Row).raw());
      Cand.Values = Column.data();
    }
  }
  // Mostly a target some assignment meets, so that sweeps find passes.
  std::vector<const Candidate *> Planted;
  for (const std::vector<Candidate> &Cands : C.Candidates)
    if (!Cands.empty())
      Planted.push_back(&Cands[R.index(Cands.size())]);
  for (size_t T = 0; T != NumTests; ++T)
    C.Target.push_back(Planted.size() == NumHoles && R.chance(3, 4)
                           ? C.eval(Planted, T)
                       : BodyTy == Type::Int ? R.intIn(-2, 2)
                                             : R.intIn(0, 1));
  // Budgets from a few assignments (cutting inside a lane block) to more
  // than a small case has.
  C.Budget = Large ? 20000 + R.index(40000)
                   : (R.flip() ? 1 + R.index(300) : 2000000);
  C.Rejections = R.chance(1, 3) ? 1 + static_cast<unsigned>(R.index(3)) : 0;
  return C;
}

/// The brute-force sweep: every assignment of each weight in index order,
/// each checked on every row with the reference evaluator; the first
/// Rejections passes are refused, as synth.reject refuses them.
struct BruteForce {
  explicit BruteForce(const SweepCase &C)
      : C(C), Pools(C.pools()), Assignment(C.S.Holes.size()),
        Rejections(C.Rejections) {}

  const SweepCase &C;
  std::vector<HolePool> Pools;
  std::vector<const Candidate *> Assignment;
  unsigned Rejections;
  uint64_t Tried = 0, Limit = 0, Count = 0;
  std::vector<const Candidate *> Winner;

  /// Visits the assignments of holes H.. weighing \p Remaining; true when
  /// the sweep is done (a winner, or the budget).
  bool visit(size_t H, unsigned Remaining) {
    if (H == C.S.Holes.size()) {
      if (Remaining != 0)
        return false;
      if (Count == Limit)
        return true;
      const uint64_t Index = Count++;
      for (size_t T = 0; T != C.Rows.size(); ++T)
        if (C.eval(Assignment, T) != C.Target[T])
          return false;
      if (Rejections) {
        --Rejections;
        return false;
      }
      Winner = Assignment;
      Tried += Index + 1;
      return true;
    }
    for (unsigned Size = 1; Size <= Remaining && Size <= C.MaxHoleSize;
         ++Size)
      for (const Candidate *Cand : Pools[H].BySize[Size]) {
        Assignment[H] = Cand;
        if (visit(H + 1, Remaining - Size))
          return true;
      }
    return false;
  }

  void run() {
    unsigned MinTotal = 0;
    for (const HolePool &Pool : Pools) {
      if (Pool.MinSize == 0)
        return;
      MinTotal += Pool.MinSize;
    }
    const unsigned MaxTotal =
        static_cast<unsigned>(C.S.Holes.size()) * C.MaxHoleSize;
    for (unsigned W = MinTotal; W <= MaxTotal && Tried < C.Budget; ++W) {
      Limit = C.Budget - Tried;
      Count = 0;
      if (visit(0, W))
        if (!Winner.empty())
          return;
      Tried += Count;
    }
  }
};

class SketchSweep : public ::testing::TestWithParam<Schedule> {};

TEST_P(SketchSweep, MatchesABruteForceSweepInIndexOrder) {
  // Random sketches with 1-4 holes (bodies over every operator, `+ - neg !
  // ite && || max min * / >= == <`) over random leaf pools of 0-150
  // candidates: the lane sweep's winner, its component and its assignment
  // count are those of checking every assignment in index order with the
  // tree-walking reference, with budgets that cut inside lane blocks and
  // refused winners that resume inside them.
  Rng R(0x5ee9);
  unsigned Won = 0, Parallel = 0, Rejected = 0;
  for (unsigned Case = 0; Case != 48; ++Case) {
    const SweepCase C = randomSweepCase(R, Case);
    SCOPED_TRACE("case " + std::to_string(Case) + ": " +
                 exprToString(C.S.Body));
    BruteForce Want(C);
    Want.run();
    const std::string Rejections =
        C.Rejections ? "synth.reject:limit=" + std::to_string(C.Rejections)
                     : "";
    FaultScope Scope(faultSpec(GetParam(), Rejections));
    CompiledSketch Compiled(
        C.S, C.Rows.size(),
        [&](const std::string &Name) {
          std::vector<int64_t> Column;
          for (const Env &Row : C.Rows)
            Column.push_back(Row.at(Name).raw());
          return Column;
        },
        C.Target);
    JoinStats Stats;
    SketchMatch Got = runSketchSearch(Compiled, C.pools(), C.MaxHoleSize,
                                      C.Budget, Stats, Deadline());
    EXPECT_EQ(Stats.SketchAssignmentsTried, Want.Tried);
    ASSERT_EQ(Got.Component != nullptr, !Want.Winner.empty());
    Parallel += Stats.ParallelAssignments != 0;
    Rejected += FaultInjector::instance().fireCount("synth.reject") != 0;
    if (!Got.Component)
      continue;
    ++Won;
    EXPECT_EQ(Got.Assignment, Want.Winner);
    Substitution Subst;
    for (size_t H = 0; H != C.S.Holes.size(); ++H)
      Subst[C.S.Holes[H].Name] = Want.Winner[H]->LeafExpr;
    EXPECT_EQ(exprToString(Got.Component),
              exprToString(simplify(substitute(C.S.Body, Subst))));
  }
  // The cases reached what they are for.
  EXPECT_GE(Won, 10u);
  EXPECT_GE(Parallel, 3u);
  EXPECT_GE(Rejected, 5u);
}

std::string scheduleName(const ::testing::TestParamInfo<Schedule> &Info) {
  return Info.param.Name;
}

INSTANTIATE_TEST_SUITE_P(Schedules, ParallelEnumerator,
                         ::testing::ValuesIn(Schedules), scheduleName);
INSTANTIATE_TEST_SUITE_P(Schedules, ParallelJoinSynth,
                         ::testing::ValuesIn(Schedules), scheduleName);
INSTANTIATE_TEST_SUITE_P(Schedules, SketchSweep,
                         ::testing::ValuesIn(Schedules), scheduleName);

} // namespace
