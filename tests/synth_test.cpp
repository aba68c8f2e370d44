//===- tests/synth_test.cpp - Join synthesis tests ------------------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "frontend/Convert.h"
#include "interp/Interp.h"
#include "observe/Metrics.h"
#include "observe/Tracer.h"
#include "support/Random.h"
#include "synth/JoinSynth.h"
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

/// The "stage" and "free_size" attributes of the traced equation span of
/// state variable \p Name.
std::map<std::string, std::string> equationSpan(const std::string &Name) {
  std::map<std::string, std::string> Attrs;
  for (const TraceEvent &E : Tracer::instance().drain()) {
    if (std::string(E.Name) != "equation")
      continue;
    std::map<std::string, std::string> Span;
    for (const TraceAttr &A : E.Attrs)
      Span[A.Key] = A.Value;
    if (Span["name"] == Name)
      Attrs = {{"stage", Span["stage"]}, {"free_size", Span["free_size"]}};
  }
  return Attrs;
}

TEST(JoinSynth, FreeGrammarStopsAtItsFirstMatch) {
  // Lifted count-1's prev1 has no sketch join, none in the pool as the
  // sketches left it (size 5) and no empty-guard join; the free grammar
  // then grows the pool a level at a time and matches it at size 6, so the
  // left-right pool never builds its size-7 level.
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
  // Without the guard the free grammar grows the pool to its bound, size 7,
  // and finds nothing.
  Loop L = parseBenchmark(*findBenchmark("line-sight"));
  JoinResult Guarded = synthesizeJoin(L);
  expectJoinCorrect(L, Guarded);
  EXPECT_EQ(joinToString(L, Guarded.Components),
            test::goldenFor("line-sight")->Join);
  EXPECT_EQ(leftRightPoolSize(), 5);

  JoinSynthOptions Options;
  Options.AllowEmptyGuard = false;
  JoinResult Free = synthesizeJoin(L, Options);
  EXPECT_FALSE(Free.Success);
  EXPECT_EQ(leftRightPoolSize(), 7);
}

} // namespace
