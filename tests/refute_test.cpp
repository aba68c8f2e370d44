//===- tests/refute_test.cpp - Join refutation by conflicting tests -------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Two oracle tests with equal split states but different joined states are
// a witness that no join exists (HomOracle::witness). These tests check
// that each witness is real, that every Table-1 search it refutes ends
// before any search, that no loop with a join has one, and that a
// redundancy retry takes the components it keeps from the accepted join.
//
//===----------------------------------------------------------------------===//

#include "lift/Unfold.h"
#include "observe/Metrics.h"
#include "observe/Tracer.h"
#include "pipeline/Parallelizer.h"
#include "suite/Benchmarks.h"
#include "synth/JoinSynth.h"
#include "Goldens.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace parsynt;
using namespace parsynt::test;

namespace {

/// \p L without state variable \p Name.
Loop without(Loop L, const std::string &Name) {
  auto It = std::find_if(L.Equations.begin(), L.Equations.end(),
                         [&](const Equation &Eq) { return Eq.Name == Name; });
  EXPECT_NE(It, L.Equations.end()) << Name;
  if (It != L.Equations.end())
    L.Equations.erase(It);
  return L;
}

/// A failed Table-1 join search whose oracle tests hold a witness.
struct RefutedSearch {
  std::string Label;
  Loop L;
};

/// The searches the pipeline runs and the witness refutes: phase 1 on the
/// index-materialized loop, and each redundancy retry that drops an
/// auxiliary the final loop keeps (the final loop without it; count-1's
/// retry drops aux1 from its lifted loop, which still has aux0).
std::vector<RefutedSearch> refutedSearches() {
  std::vector<RefutedSearch> Searches;
  for (const char *Name : {"mts", "mss", "is-sorted", "0*1*", "count-1's",
                           "0after1", "max-block-1"})
    Searches.push_back({std::string(Name) + " phase 1",
                        materializeIndex(parseBenchmark(*findBenchmark(Name)))});
  for (const char *Name : {"mts", "is-sorted", "0*1*", "0after1"})
    Searches.push_back(
        {std::string(Name) + " without aux0",
         without(mustParse(LiftedSources.at(Name), Name), "aux0")});
  Searches.push_back(
      {"count-1's without aux1",
       mustParse("cnt = 0;\nprev1 = false;\n_pos = 0;\naux0 = 0;\n"
                 "for (i = 0; i < |s|; i++) {\n"
                 "  aux0 = _pos == 0 ? cnt : (s[i] == 1 ? 1 : aux0);\n"
                 "  if (s[i] == 1 && !prev1) { cnt = cnt + 1; }\n"
                 "  prev1 = s[i] == 1;\n"
                 "  _pos = _pos + 1;\n}\n",
                 "count-1's")});
  return Searches;
}

/// x • y, sequence by sequence.
SeqEnv concat(const SeqEnv &X, const SeqEnv &Y) {
  SeqEnv Whole = X;
  for (auto &[Name, Elements] : Whole)
    Elements.insert(Elements.end(), Y.at(Name).begin(), Y.at(Name).end());
  return Whole;
}

TEST(Refute, EveryWitnessIsReal) {
  // Run the loop again on both tests' sequences: the split states and
  // parameters agree, and the joined states differ in the named variable.
  for (const RefutedSearch &S : refutedSearches()) {
    SCOPED_TRACE(S.Label);
    HomOracle Oracle(S.L);
    std::optional<JoinWitness> W = Oracle.witness();
    ASSERT_TRUE(W.has_value());
    ASSERT_NE(W->First, W->Second);
    const CompiledLoop Code(S.L);
    const JoinExample &A = Oracle.tests()[W->First];
    const JoinExample &B = Oracle.tests()[W->Second];
    EXPECT_EQ(A.Params, B.Params);
    EXPECT_EQ(Code.run(A.LeftSeqs, A.Params), Code.run(B.LeftSeqs, B.Params));
    EXPECT_EQ(Code.run(A.RightSeqs, A.Params),
              Code.run(B.RightSeqs, B.Params));
    StateTuple JoinedA = Code.run(concat(A.LeftSeqs, A.RightSeqs), A.Params);
    StateTuple JoinedB = Code.run(concat(B.LeftSeqs, B.RightSeqs), B.Params);
    EXPECT_NE(JoinedA[W->Equation], JoinedB[W->Equation]);
    EXPECT_EQ(JoinedA, A.Expected);
    EXPECT_EQ(JoinedB, B.Expected);
  }
}

TEST(Refute, RefutedSearchesEndBeforeSearching) {
  for (const RefutedSearch &S : refutedSearches()) {
    SCOPED_TRACE(S.Label);
    MetricsRegistry::Snapshot Before = MetricsRegistry::global().snapshot();
    JoinResult R = synthesizeJoin(S.L);
    MetricsRegistry::Snapshot After = MetricsRegistry::global().snapshot();
    auto delta = [&](const char *Name) {
      return After.counterOr0(Name) - Before.counterOr0(Name);
    };
    EXPECT_FALSE(R.Success);
    EXPECT_TRUE(R.Stats.Refuted);
    EXPECT_EQ(R.Failure.Kind, FailureKind::NotHomomorphic);
    EXPECT_EQ(R.Stats.SketchAssignmentsTried, 0u);
    EXPECT_EQ(R.Stats.EnumeratedCandidates, 0u);
    EXPECT_EQ(delta("synth.refuted"), 1u);
    EXPECT_EQ(delta("synth.cegis.rounds"), 0u);
    EXPECT_EQ(delta("synth.calls"), 1u);
    // The message names both tests' chunks.
    EXPECT_NE(R.Failure.Message.find("no join exists: the tests {x = ["),
              std::string::npos)
        << R.Failure.Message;
    EXPECT_NE(R.Failure.Message.find("} and {x = ["), std::string::npos)
        << R.Failure.Message;
  }
}

TEST(Refute, NoLoopWithAJoinHasAWitness) {
  // Soundness: a witness would refute the golden join of every final loop,
  // and the join of max-block-1's hand lifting.
  for (const Benchmark &B : allBenchmarks()) {
    SCOPED_TRACE(B.Name);
    if (!B.ExpectFullSuccess) {
      std::optional<HandLifting> Hand = handLifting(B);
      ASSERT_TRUE(Hand.has_value());
      EXPECT_FALSE(HomOracle(Hand->Lifted).witness().has_value());
      continue;
    }
    GoldenParallelization Golden = goldenParallelization(B);
    EXPECT_FALSE(HomOracle(Golden.Final).witness().has_value());
  }
}

TEST(Refute, RedundancyRetryTakesTheComponentsItKeeps) {
  // line-sight's lifted loop has a join over vis, m, aux0 and aux1. None of
  // the first three reads aux1, so the retry that drops aux1 accepts all
  // three as seeds and searches nothing.
  Tracer::instance().reset();
  Tracer::setEnabled(true);
  PipelineResult Result =
      parallelizeLoop(parseBenchmark(*findBenchmark("line-sight")));
  Tracer::setEnabled(false);
  std::vector<TraceEvent> Events = Tracer::instance().drain();
  Tracer::instance().reset();
  ASSERT_TRUE(Result.Success) << Result.report();

  std::vector<const TraceEvent *> Calls;
  for (const TraceEvent &E : Events)
    if (std::string(E.Name) == "synthesizeJoin")
      Calls.push_back(&E);
  // Phase 1, the lifted loop, the retry without aux1, the one without aux0.
  ASSERT_EQ(Calls.size(), 4u);
  auto attr = [](const TraceEvent &E, const std::string &Key) {
    for (const TraceAttr &A : E.Attrs)
      if (A.Key == Key)
        return A.Value;
    return std::string("<none>");
  };
  const TraceEvent &Retry = *Calls[2];
  EXPECT_EQ(attr(Retry, "equations"), "3");
  EXPECT_EQ(attr(Retry, "success"), "true");
  EXPECT_EQ(attr(Retry, "seeds_accepted"), "3");
  EXPECT_EQ(attr(Retry, "assignments"), "0");
}

} // namespace
