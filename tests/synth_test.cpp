//===- tests/synth_test.cpp - Join synthesis tests ------------------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "frontend/Convert.h"
#include "interp/Interp.h"
#include "ir/ExprOps.h"
#include "lift/Lift.h"
#include "lift/Unfold.h"
#include "observe/Metrics.h"
#include "observe/Tracer.h"
#include "support/Random.h"
#include "synth/JoinSynth.h"
#include "synth/Sketch.h"
#include "Goldens.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace parsynt;

namespace {

Loop mustParse(const std::string &Source, const std::string &Name) {
  DiagnosticEngine Diags;
  auto L = parseLoop(Source, Name, Diags);
  EXPECT_TRUE(L.has_value()) << Diags.str();
  return *L;
}

/// Checks a synthesized join against the homomorphism property on fresh
/// random inputs well beyond the synthesis bound.
void expectJoinCorrect(const Loop &L, const JoinResult &Join,
                       unsigned Rounds = 200, unsigned MaxLen = 12) {
  ASSERT_TRUE(Join.Success) << Join.Failure;
  Rng R(0xABCD);
  for (unsigned Round = 0; Round != Rounds; ++Round) {
    SeqEnv Left, Right, Whole;
    size_t LenL = static_cast<size_t>(R.intIn(0, MaxLen));
    size_t LenR = static_cast<size_t>(R.intIn(0, MaxLen));
    for (const SeqDecl &S : L.Sequences) {
      std::vector<Value> Lv, Rv;
      for (size_t I = 0; I != LenL; ++I)
        Lv.push_back(Value::ofInt(R.intIn(-50, 50)));
      for (size_t I = 0; I != LenR; ++I)
        Rv.push_back(Value::ofInt(R.intIn(-50, 50)));
      std::vector<Value> Wv = Lv;
      Wv.insert(Wv.end(), Rv.begin(), Rv.end());
      Left[S.Name] = Lv;
      Right[S.Name] = Rv;
      Whole[S.Name] = Wv;
    }
    Env Params;
    for (const ParamDecl &P : L.Params)
      Params[P.Name] = Value::ofInt(R.intIn(-3, 3));
    StateTuple Joined =
        test::referenceJoin(L, Join.Components, runLoop(L, Left, Params),
                      runLoop(L, Right, Params), Params);
    StateTuple Expected = runLoop(L, Whole, Params);
    for (size_t I = 0; I != L.Equations.size(); ++I)
      ASSERT_EQ(Joined[I], Expected[I])
          << "component " << L.Equations[I].Name << " = "
          << exprToString(Join.Components[I]);
  }
}

TEST(JoinSynth, Sum) {
  Loop L = mustParse("sum = 0;\n"
                     "for (i = 0; i < |s|; i++) { sum = sum + s[i]; }",
                     "sum");
  JoinResult Join = synthesizeJoin(L);
  expectJoinCorrect(L, Join);
}

TEST(JoinSynth, SecondSmallest) {
  Loop L = mustParse("m = MAX_INT;\n"
                     "m2 = MAX_INT;\n"
                     "for (i = 0; i < |s|; i++) {\n"
                     "  m2 = min(m2, max(m, s[i]));\n"
                     "  m = min(m, s[i]);\n"
                     "}",
                     "2nd-min");
  JoinResult Join = synthesizeJoin(L);
  expectJoinCorrect(L, Join);
}

TEST(JoinSynth, MtsHasNoJoin) {
  Loop L = mustParse("mts = 0;\n"
                     "for (i = 0; i < |s|; i++) {\n"
                     "  mts = max(mts + s[i], 0);\n"
                     "}",
                     "mts");
  JoinResult Join = synthesizeJoin(L);
  EXPECT_FALSE(Join.Success);
}

TEST(JoinSynth, MtsLiftedByHand) {
  Loop L = mustParse("mts = 0;\n"
                     "sum = 0;\n"
                     "for (i = 0; i < |s|; i++) {\n"
                     "  mts = max(mts + s[i], 0);\n"
                     "  sum = sum + s[i];\n"
                     "}",
                     "mts-lifted");
  JoinResult Join = synthesizeJoin(L);
  expectJoinCorrect(L, Join);
}

/// The term size the left-right pool of \p Join's last CEGIS round reached.
int64_t leftRightPoolSize() {
  return MetricsRegistry::global().gauge("synth.sketch.max_lr").value();
}

TEST(JoinSynth, JoinsAmongTheLeavesEnumerateNothing) {
  // The pools grow a sketch tier at a time: a join whose holes all take
  // leaves is found at tier {1, 1}, before any size level is built.
  for (const char *Name : {"mps-p", "mts"}) {
    Loop L = mustParse(test::LiftedSources.at(Name), Name);
    JoinResult Join = synthesizeJoin(L);
    expectJoinCorrect(L, Join);
    EXPECT_EQ(Join.Stats.EnumeratedCombinations, 0u) << Name;
    EXPECT_GT(Join.Stats.EnumeratedCandidates, 0u) << Name;
    EXPECT_EQ(leftRightPoolSize(), 1) << Name;
  }
}

/// The "stage", "free_size" and "free_scan" attributes the traced equation
/// span of state variable \p Name has.
std::map<std::string, std::string> equationSpan(const std::string &Name) {
  std::map<std::string, std::string> Attrs;
  for (const TraceEvent &E : Tracer::instance().drain()) {
    if (std::string(E.Name) != "equation")
      continue;
    std::map<std::string, std::string> Span;
    for (const TraceAttr &A : E.Attrs)
      Span[A.Key] = A.Value;
    if (Span["name"] != Name)
      continue;
    Attrs.clear();
    for (const char *Key : {"stage", "free_size", "free_scan"})
      if (Span.count(Key))
        Attrs[Key] = Span[Key];
  }
  return Attrs;
}

TEST(JoinSynth, FreeGrammarStopsAtItsFirstMatch) {
  // Lifted count-1's prev1 has no sketch join, none in the pool as the
  // sketches left it (size 5) and no empty-guard join; the free grammar
  // then grows the pool a level at a time and matches it at size 6, so the
  // left-right pool never builds its size-7 level, nor scans it.
  Loop L = mustParse(test::LiftedSources.at("count-1's"), "count-1's");
  const test::JoinGolden *Golden = test::goldenFor("count-1's");
  Tracer::instance().reset();
  Tracer::setEnabled(true);
  JoinResult Join = synthesizeJoin(L);
  Tracer::setEnabled(false);
  expectJoinCorrect(L, Join);
  // The components are the pipeline's.
  for (size_t I = 0; I != L.Equations.size(); ++I) {
    const std::string Line = L.Equations[I].Name + " = " +
                             exprToString(Join.Components[I]) + "\n";
    EXPECT_NE(std::string(Golden->Join).find(Line), std::string::npos)
        << Line;
  }
  EXPECT_EQ(equationSpan("prev1"),
            (std::map<std::string, std::string>{{"stage", "free"},
                                                {"free_size", "6"}}));
  EXPECT_EQ(leftRightPoolSize(), 6);
  Tracer::instance().reset();
}

TEST(JoinSynth, GuardSketchRunsBeforeFreeGrammarGrowth) {
  // line-sight's vis has no sketch join and no free-grammar match up to
  // size 5; the empty-guard sketch, whose holes stay within the sketch
  // tiers, solves it before the free grammar grows the pool any further.
  // Without the guard the free grammar grows the pool to size 6 and finds
  // nothing; the scan of its last level, size 7, walks all 146631
  // combinations, misses, and leaves the level unbuilt.
  Loop L = parseBenchmark(*findBenchmark("line-sight"));
  JoinResult Guarded = synthesizeJoin(L);
  expectJoinCorrect(L, Guarded);
  EXPECT_EQ(joinToString(L, Guarded.Components),
            test::goldenFor("line-sight")->Join);
  EXPECT_EQ(leftRightPoolSize(), 5);

  JoinSynthOptions Options;
  Options.AllowEmptyGuard = false;
  Tracer::instance().reset();
  Tracer::setEnabled(true);
  JoinResult Free = synthesizeJoin(L, Options);
  Tracer::setEnabled(false);
  EXPECT_FALSE(Free.Success);
  EXPECT_EQ(equationSpan("vis"),
            (std::map<std::string, std::string>{{"free_scan", "miss"}}));
  EXPECT_EQ(Free.Stats.ScannedCombinations, 146631u);
  EXPECT_EQ(leftRightPoolSize(), 6);
  Tracer::instance().reset();
}

TEST(JoinSynth, RefutedSeedBecomesATestAndTheSearchRecovers) {
  // Lifted balanced-(), as the pipeline's second phase searches it: its
  // first CEGIS round assembles a join whose bal
  // compares the whole offset, not the left one, with the right chunk's
  // prefix bound: it passes every initial test, and the proof refutes it.
  // Planted as seeds, that join is accepted without any search. The
  // round's proof refutes it, the split behind the failed obligation
  // becomes a test the wrong bal fails, and the next round searches bal
  // and proves the pipeline's join.
  Loop L = liftLoop(materializeIndex(parseBenchmark(*findBenchmark(
                        "balanced-()"))))
               .Lifted;
  const std::vector<ExprRef> Planted =
      test::parseJoin(L, "ofs = (ofs_l + ofs_r)\n"
                         "bal = (bal_l && ((ofs_l + ofs_r) >= aux0_r))\n"
                         "aux0 = max(aux0_l, (aux0_r - ofs_l))\n");
  HomOracle Oracle(L);
  for (size_t I = 0; I != L.Equations.size(); ++I)
    ASSERT_FALSE(Oracle.firstFailure(Planted[I], I).has_value());
  ProofReport Refuted = checkHomomorphismProof(L, Planted);
  ASSERT_FALSE(Refuted.Verified);
  EXPECT_EQ(Refuted.Failure->StateVar, "bal");
  const size_t Added = Oracle.tests().size();
  Oracle.addCounterexample(Refuted.Failure->Split);
  EXPECT_EQ(Oracle.firstFailure(Planted[1], 1), std::optional<size_t>(Added));

  JoinSynthOptions Options;
  for (size_t I = 0; I != L.Equations.size(); ++I)
    Options.Seeds[L.Equations[I].Name] = Planted[I];
  JoinResult Join = synthesizeJoin(L, Options);
  expectJoinCorrect(L, Join);
  EXPECT_TRUE(Join.Proof.Verified) << Join.Proof.str();
  EXPECT_GE(Join.Stats.CegisIterations, 1u);
  EXPECT_EQ(joinToString(L, Join.Components),
            test::goldenFor("balanced-()")->Join);
}

TEST(PrefixConditions, HoldWhereverTheBodyMeetsItsTarget) {
  // Soundness of prefix refutation: on any row where a sketch body equals
  // its target, the condition of every hole prefix holds, whatever the
  // holes hold, so a refuted prefix never hides a passing assignment. Each
  // condition reads only its own prefix of the holes, and the last one is
  // the whole check. Random bodies mix every operator (the inverted
  // `+ - neg ! ite && || max min` and the rest) over five holes and two
  // other variables; rows mix small values with the wrapping extremes.
  const std::vector<std::pair<std::string, Type>> Vars = {
      {"?h0", Type::Int}, {"?h1", Type::Bool}, {"?h2", Type::Int},
      {"?h3", Type::Int}, {"?h4", Type::Bool}, {"x", Type::Int},
      {"p", Type::Bool}};
  Rng R(0x5eed);
  for (unsigned Case = 0; Case != 400; ++Case) {
    Sketch S;
    for (size_t H = 0; H != 5; ++H)
      S.Holes.push_back({Vars[H].first, Vars[H].second, false});
    const Type Ty = R.flip() ? Type::Int : Type::Bool;
    S.Body = test::randomExpr(R, 1 + Case % 4, Ty, Vars);
    const ExprRef Target = inputVar("?t", Ty);
    const std::vector<ExprRef> Conditions = prefixConditions(S, Target);
    ASSERT_EQ(Conditions.size(), S.Holes.size());
    EXPECT_EQ(Conditions.back(), eq(S.Body, Target));
    for (size_t K = 0; K != Conditions.size(); ++K)
      for (size_t Later = K + 1; Later != S.Holes.size(); ++Later)
        EXPECT_FALSE(containsVar(Conditions[K], S.Holes[Later].Name))
            << exprToString(Conditions[K]);
    for (Env Row : test::sampleEnvs(Vars, 64, R)) {
      for (auto &[Name, V] : Row)
        if (V.type() == Type::Int && R.chance(1, 6))
          V = Value::ofInt(R.flip() ? INT64_MIN : INT64_MAX);
      Row["?t"] = test::evalExpr(S.Body, Row);
      for (size_t K = 0; K != Conditions.size(); ++K)
        ASSERT_EQ(test::evalExpr(Conditions[K], Row), Value::ofBool(true))
            << "body " << exprToString(S.Body) << ", prefix of " << K + 1
            << " holes: " << exprToString(Conditions[K]);
    }
  }
}

/// The traced sketchSearch spans of kind \p Kind, as (assignments,
/// evaluated) pairs.
std::vector<std::pair<uint64_t, uint64_t>>
sketchSearchSpans(const std::string &Kind) {
  std::vector<std::pair<uint64_t, uint64_t>> Searches;
  for (const TraceEvent &E : Tracer::instance().drain()) {
    if (std::string(E.Name) != "sketchSearch")
      continue;
    std::map<std::string, std::string> Span;
    for (const TraceAttr &A : E.Attrs)
      Span[A.Key] = A.Value;
    if (Span["sketch"] == Kind)
      Searches.emplace_back(std::stoull(Span["assignments"]),
                            std::stoull(Span["evaluated"]));
  }
  return Searches;
}

TEST(JoinSynth, PrefixRefutationKeepsSweepIndices) {
  // Lifted line-sight, as the pipeline's second phase searches it. aux0 and
  // aux1 have no additive-correction join, so each correction search sweeps
  // every tier to its end before the guard sketch solves them. The prefix
  // checks skip nearly all of those assignments without running their
  // bodies, but they skip whole index ranges: the sweeps' indices, and so
  // the join and the assignment count, are those of running every body.
  Loop L = liftLoop(materializeIndex(parseBenchmark(*findBenchmark(
                        "line-sight"))))
               .Lifted;
  Tracer::instance().reset();
  Tracer::setEnabled(true);
  JoinResult Join = synthesizeJoin(L);
  Tracer::setEnabled(false);
  expectJoinCorrect(L, Join);
  EXPECT_EQ(joinToString(L, Join.Components),
            "vis = ((m_r == -1099511627776) ? vis_l : (aux0_r >= max(m_l, "
            "m_r)))\n"
            "m = max(m_l, m_r)\n"
            "aux0 = ((m_r == -1099511627776) ? aux0_l : aux0_r)\n"
            "aux1 = ((m_r == -1099511627776) ? aux1_l : max(m_l, aux1_r))\n");
  // The figure of the search before prefix refutation.
  EXPECT_EQ(Join.Stats.SketchAssignmentsTried, 6287603u);
  EXPECT_LT(Join.Stats.SketchEvaluated, Join.Stats.SketchAssignmentsTried);
  const auto Corrections = sketchSearchSpans("correction");
  EXPECT_EQ(Corrections.size(), 2u);
  for (const auto &[Assignments, Evaluated] : Corrections) {
    EXPECT_EQ(Assignments, 2771526u);
    EXPECT_LE(Evaluated * 100, Assignments * 7)
        << Evaluated << " of " << Assignments << " bodies run";
  }
  Tracer::instance().reset();
}

} // namespace
