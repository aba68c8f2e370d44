//===- tests/robustness_test.cpp - Deadlines, faults, degradation ---------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Robustness coverage: the cooperative-cancellation token, the structured
// failure taxonomy, the deterministic fault injector, adversarial frontend
// inputs (which must produce diagnostics, never crashes), and the graceful
// sequential-fallback path — a timed-out pipeline must still hand back a
// runnable loop whose sequential execution matches the reference.
//
//===----------------------------------------------------------------------===//

#include "codegen/EmitCpp.h"
#include "observe/Metrics.h"
#include "observe/Tracer.h"
#include "pipeline/Parallelizer.h"
#include "runtime/InterpReduce.h"
#include "suite/Benchmarks.h"
#include "support/Deadline.h"
#include "support/Failure.h"
#include "support/FaultInjector.h"
#include "synth/JoinSynth.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

using namespace parsynt;
using namespace parsynt::test;

namespace {

//===----------------------------------------------------------------------===//
// Deadline
//===----------------------------------------------------------------------===//

TEST(Deadline, DefaultAndNonPositiveAreUnarmed) {
  EXPECT_FALSE(Deadline().armed());
  EXPECT_FALSE(Deadline().expired());
  EXPECT_FALSE(Deadline::never().armed());
  EXPECT_FALSE(Deadline::after(0).armed());
  EXPECT_FALSE(Deadline::after(-1).armed());
  EXPECT_EQ(Deadline().remainingSeconds(),
            std::numeric_limits<double>::infinity());
}

TEST(Deadline, TinyBudgetExpires) {
  Deadline D = Deadline::after(1e-9);
  EXPECT_TRUE(D.armed());
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(D.expired());
  EXPECT_EQ(D.remainingSeconds(), 0.0);
}

TEST(Deadline, GenerousBudgetDoesNotExpire) {
  Deadline D = Deadline::after(3600);
  EXPECT_TRUE(D.armed());
  EXPECT_FALSE(D.expired());
  EXPECT_GT(D.remainingSeconds(), 3500.0);
}

TEST(Deadline, SoonerPrefersArmedAndEarlier) {
  Deadline Unarmed;
  Deadline Long = Deadline::after(3600);
  Deadline Short = Deadline::after(1e-9);
  EXPECT_FALSE(Deadline::sooner(Unarmed, Unarmed).armed());
  EXPECT_TRUE(Deadline::sooner(Unarmed, Long).armed());
  EXPECT_TRUE(Deadline::sooner(Long, Unarmed).armed());
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(Deadline::sooner(Long, Short).expired());
  EXPECT_TRUE(Deadline::sooner(Short, Long).expired());
}

//===----------------------------------------------------------------------===//
// FailureInfo
//===----------------------------------------------------------------------===//

TEST(FailureInfo, EmptyByDefault) {
  FailureInfo F;
  EXPECT_TRUE(F.empty());
  EXPECT_FALSE(static_cast<bool>(F));
  EXPECT_EQ(F.Kind, FailureKind::None);
}

TEST(FailureInfo, FormatsKindAndMessage) {
  FailureInfo F{FailureKind::Timeout, "budget gone"};
  EXPECT_FALSE(F.empty());
  EXPECT_TRUE(static_cast<bool>(F));
  EXPECT_EQ(F.str(), "[timeout] budget gone");
  F.clear();
  EXPECT_TRUE(F.empty());
  EXPECT_EQ(F.Kind, FailureKind::None);
}

TEST(FailureInfo, KindNamesAreStable) {
  EXPECT_STREQ(failureKindName(FailureKind::Timeout), "timeout");
  EXPECT_STREQ(failureKindName(FailureKind::BudgetExhausted),
               "budget-exhausted");
  EXPECT_STREQ(failureKindName(FailureKind::NotHomomorphic),
               "not-homomorphic");
  EXPECT_STREQ(failureKindName(FailureKind::FragmentViolation),
               "fragment-violation");
  EXPECT_STREQ(failureKindName(FailureKind::InternalError), "internal-error");
}

//===----------------------------------------------------------------------===//
// FaultInjector
//===----------------------------------------------------------------------===//

TEST(FaultInjector, UnarmedNeverFires) {
  FaultInjector::instance().reset();
  EXPECT_FALSE(FaultInjector::instance().armed());
  for (int I = 0; I != 100; ++I)
    EXPECT_FALSE(FaultInjector::fires("anything"));
}

TEST(FaultInjector, LimitCapsFires) {
  FaultScope Scope("pt:limit=3");
  int Fired = 0;
  for (int I = 0; I != 50; ++I)
    if (FaultInjector::fires("pt"))
      ++Fired;
  EXPECT_EQ(Fired, 3);
  EXPECT_EQ(FaultInjector::instance().fireCount("pt"), 3u);
  EXPECT_EQ(FaultInjector::instance().pollCount("pt"), 50u);
  // Unconfigured points stay silent while another point is armed.
  EXPECT_FALSE(FaultInjector::fires("other"));
}

TEST(FaultInjector, AfterSkipsInitialPolls) {
  FaultScope Scope("pt:after=10");
  for (int I = 0; I != 10; ++I)
    EXPECT_FALSE(FaultInjector::fires("pt")) << "poll " << I;
  EXPECT_TRUE(FaultInjector::fires("pt"));
}

TEST(FaultInjector, EverySelectsPeriodicPolls) {
  FaultScope Scope("pt:every=3");
  std::vector<bool> Pattern;
  for (int I = 0; I != 9; ++I)
    Pattern.push_back(FaultInjector::fires("pt"));
  EXPECT_EQ(Pattern, (std::vector<bool>{true, false, false, true, false,
                                        false, true, false, false}));
}

TEST(FaultInjector, ProbIsDeterministicInSeed) {
  auto Sample = [] {
    std::vector<bool> Pattern;
    for (int I = 0; I != 64; ++I)
      Pattern.push_back(FaultInjector::fires("pt"));
    return Pattern;
  };
  std::vector<bool> First, Second, OtherSeed;
  {
    FaultScope Scope("pt:prob=50:seed=7");
    First = Sample();
  }
  {
    FaultScope Scope("pt:prob=50:seed=7");
    Second = Sample();
  }
  {
    FaultScope Scope("pt:prob=50:seed=8");
    OtherSeed = Sample();
  }
  EXPECT_EQ(First, Second);
  EXPECT_NE(First, OtherSeed);
  // prob=50 should fire a nontrivial fraction, not all or nothing.
  size_t Fired = 0;
  for (bool B : First)
    Fired += B;
  EXPECT_GT(Fired, 10u);
  EXPECT_LT(Fired, 54u);
}

TEST(FaultInjector, MultiClauseSpecsAreIndependent) {
  FaultScope Scope("a:limit=1,b:every=2");
  EXPECT_TRUE(FaultInjector::fires("a"));
  EXPECT_FALSE(FaultInjector::fires("a"));
  EXPECT_TRUE(FaultInjector::fires("b"));
  EXPECT_FALSE(FaultInjector::fires("b"));
  EXPECT_TRUE(FaultInjector::fires("b"));
}

TEST(FaultInjector, MalformedSpecsAreRejected) {
  std::string Error;
  FaultInjector &I = FaultInjector::instance();
  EXPECT_FALSE(I.configure(":limit=1", &Error));
  EXPECT_NE(Error.find("empty fault point name"), std::string::npos);
  EXPECT_FALSE(I.configure("pt:limit", &Error));
  EXPECT_FALSE(I.configure("pt:limit=", &Error));
  EXPECT_FALSE(I.configure("pt:limit=abc", &Error));
  EXPECT_FALSE(I.configure("pt:limit=99999999999999999999999", &Error));
  EXPECT_NE(Error.find("overflow"), std::string::npos);
  EXPECT_FALSE(I.configure("pt:bogus=1", &Error));
  EXPECT_NE(Error.find("unknown key"), std::string::npos);
  // A failed configure leaves the injector disarmed.
  EXPECT_FALSE(I.armed());
  EXPECT_FALSE(FaultInjector::fires("pt"));
  I.reset();
}

//===----------------------------------------------------------------------===//
// Adversarial frontend inputs: diagnostics, never crashes.
//===----------------------------------------------------------------------===//

TEST(AdversarialInput, HugeIntegerLiteral) {
  DiagnosticEngine Diags;
  auto L = parseLoop("x = 0;\nfor (i = 0; i < |s|; i++) { x = x + "
                     "99999999999999999999999999; }",
                     "huge", Diags);
  EXPECT_FALSE(L.has_value());
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.str().find("out of range"), std::string::npos)
      << Diags.str();
}

TEST(AdversarialInput, BoundaryIntegerLiteralStillLexes) {
  // INT64_MAX itself must keep working; only the overflow is an error.
  Loop L = mustParse("x = 0;\nfor (i = 0; i < |s|; i++) { x = x + "
                     "9223372036854775807; }");
  EXPECT_EQ(L.Equations.size(), 1u);
}

TEST(AdversarialInput, DeeplyNestedTernary) {
  std::string Body = "x = ";
  for (int I = 0; I != 1000; ++I)
    Body += "(s[i] > 0 ? ";
  Body += "x";
  for (int I = 0; I != 1000; ++I)
    Body += " : x)";
  Body += "; ";
  DiagnosticEngine Diags;
  auto L = parseLoop("x = 0;\nfor (i = 0; i < |s|; i++) { " + Body + "}",
                     "deep-ite", Diags);
  EXPECT_FALSE(L.has_value());
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.str().find("nesting deeper"), std::string::npos)
      << Diags.str();
}

TEST(AdversarialInput, DeepUnaryChain) {
  std::string Chain(5000, '!');
  DiagnosticEngine Diags;
  auto L = parseLoop("p = false;\nfor (i = 0; i < |s|; i++) { p = " + Chain +
                         "p; }",
                     "deep-unary", Diags);
  EXPECT_FALSE(L.has_value());
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.str().find("nesting deeper"), std::string::npos)
      << Diags.str();
}

TEST(AdversarialInput, DeeplyNestedIfStatements) {
  std::string Body;
  for (int I = 0; I != 1000; ++I)
    Body += "if (s[i] > 0) { ";
  Body += "x = x + 1; ";
  for (int I = 0; I != 1000; ++I)
    Body += "} ";
  DiagnosticEngine Diags;
  auto L = parseLoop("x = 0;\nfor (i = 0; i < |s|; i++) { " + Body + "}",
                     "deep-if", Diags);
  EXPECT_FALSE(L.has_value());
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(AdversarialInput, TruncatedFile) {
  for (const char *Source :
       {"x = 0;", "x = 0;\nfor (i = 0; i < |s|; i",
        "x = 0;\nfor (i = 0; i < |s|; i++) { x = x +",
        "x = 0;\nfor (i = 0; i < |s|; i++) {"}) {
    DiagnosticEngine Diags;
    auto L = parseLoop(Source, "truncated", Diags);
    EXPECT_FALSE(L.has_value()) << Source;
    EXPECT_TRUE(Diags.hasErrors()) << Source;
  }
}

TEST(AdversarialInput, EmptyLoopBody) {
  DiagnosticEngine Diags;
  auto L = parseLoop("x = 0;\nfor (i = 0; i < |s|; i++) { }", "empty", Diags);
  EXPECT_FALSE(L.has_value());
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.str().find("assigns no variables"), std::string::npos)
      << Diags.str();
}

//===----------------------------------------------------------------------===//
// Timeout paths: structured Timeout + runnable sequential fallback.
//===----------------------------------------------------------------------===//

/// Asserts that a failed pipeline result is a well-formed sequential
/// fallback: structured failure, empty join, and sequential execution that
/// matches the reference loop exactly on random data.
void expectRunnableFallback(const Loop &Reference,
                            const PipelineResult &Result) {
  EXPECT_FALSE(Result.Success);
  EXPECT_TRUE(Result.SequentialFallback) << Result.report();
  EXPECT_FALSE(Result.Failure.empty());
  EXPECT_TRUE(Result.Join.Components.empty());

  TaskPool Pool(2);
  Rng R(0xfa11);
  for (unsigned Round = 0; Round != 10; ++Round) {
    size_t Len = static_cast<size_t>(R.intIn(0, 200));
    SeqEnv Seqs;
    for (const SeqDecl &S : Result.Final.Sequences) {
      std::vector<Value> Elems;
      for (size_t I = 0; I != Len; ++I)
        Elems.push_back(Value::ofInt(R.intIn(-60, 60)));
      Seqs[S.Name] = std::move(Elems);
    }
    Env Params;
    for (const ParamDecl &P : Result.Final.Params)
      Params[P.Name] = Value::ofInt(R.intIn(-3, 3));
    StateTuple Fallback = parallelRunLoop(Result.Final, Result.Join.Components,
                                          Seqs, Pool, /*Grain=*/16, Params);
    StateTuple Expected = runLoop(Result.Final, Seqs, Params);
    EXPECT_EQ(Fallback, Expected) << "round " << Round;
    // The fallback loop must agree with the *reference* loop on the
    // reference's own state variables (the fallback may carry extra
    // auxiliaries or a materialized index in front-verified form).
    if (Result.Final.Equations.size() == Reference.Equations.size() &&
        !Result.IndexMaterialized) {
      StateTuple Ref = runLoop(Reference, Seqs, Params);
      EXPECT_EQ(Fallback, Ref) << "round " << Round;
    }
  }
}

TEST(TimeoutPath, WholeLoopBudgetOnMts) {
  Loop L = parseBenchmark(*findBenchmark("mts"));
  PipelineOptions Options;
  Options.TimeoutSeconds = 1e-6;
  PipelineResult Result = parallelizeLoop(L, Options);
  EXPECT_EQ(Result.Failure.Kind, FailureKind::Timeout) << Result.report();
  expectRunnableFallback(L, Result);
}

TEST(TimeoutPath, JoinBudgetOnMaxBlock1) {
  Loop L = parseBenchmark(*findBenchmark("max-block-1"));
  PipelineOptions Options;
  Options.JoinTimeoutSeconds = 1e-6;
  PipelineResult Result = parallelizeLoop(L, Options);
  EXPECT_EQ(Result.Failure.Kind, FailureKind::Timeout) << Result.report();
  expectRunnableFallback(L, Result);
}

TEST(TimeoutPath, JoinDeadlineExpiringMidSearchStopsIt) {
  // atoi has no join without an auxiliary, and no two of the oracle's tests
  // refute it, so synthesis sweeps every sketch tier before failing.
  // Whatever point of that sweep a deadline expires at, the whole search
  // must unwind within a few hundred assignments, not just the frame that
  // noticed the expiry. (Before the fix, the tier in
  // progress ran to exhaustion: a 0.5 s budget took 7.3 s on a 4-core
  // x86-64 VM.) The smallest budget expires mid-search on any machine this
  // suite runs on; larger ones may let the sweep finish first.
  Loop L = parseBenchmark(*findBenchmark("atoi"));
  for (double Budget : {0.02, 0.05, 0.1, 0.2, 0.5}) {
    JoinSynthOptions Options;
    Options.Timeout = Deadline::after(Budget);
    auto Start = std::chrono::steady_clock::now();
    JoinResult Result = synthesizeJoin(L, Options);
    double Seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
    EXPECT_FALSE(Result.Success);
    if (Budget == 0.02) {
      EXPECT_EQ(Result.Failure.Kind, FailureKind::Timeout)
          << Result.Failure.str();
      EXPECT_GT(Result.Stats.SketchAssignmentsTried, 0u);
    }
    EXPECT_LT(Seconds, Budget + 0.1)
        << "the search ran on after a " << Budget << " s deadline expired";
  }
}

TEST(TimeoutPath, LiftBudgetOnMaxBlock1) {
  // A generous join budget with a tiny lift budget: phase 1 legitimately
  // fails (max-block-1 needs auxiliaries), then every lift attempt times
  // out. The pipeline must still degrade to a runnable fallback.
  Loop L = parseBenchmark(*findBenchmark("max-block-1"));
  PipelineOptions Options;
  Options.LiftTimeoutSeconds = 1e-6;
  PipelineResult Result = parallelizeLoop(L, Options);
  EXPECT_FALSE(Result.Success);
  EXPECT_TRUE(Result.SequentialFallback) << Result.report();
  EXPECT_FALSE(Result.Failure.empty());
}

TEST(TimeoutPath, DefaultBudgetsAreUnbounded) {
  // The zero defaults must behave exactly like the seed: mts succeeds.
  Loop L = parseBenchmark(*findBenchmark("mts"));
  PipelineResult Result = parallelizeLoop(L);
  EXPECT_TRUE(Result.Success) << Result.report();
  EXPECT_TRUE(Result.Failure.empty());
  EXPECT_FALSE(Result.SequentialFallback);
}

TEST(BudgetPath, LiftNodeCeilingEndsTheLadder) {
  // The pipeline lifts once; a lift that stops on its node ceiling is
  // reported as the lift's own failure, not as the join search's on what
  // it lifted.
  Loop L = nodeCeilingLoop();
  MetricsRegistry &M = MetricsRegistry::global();
  uint64_t Before = M.counter("pipeline.lift_attempts").value();
  PipelineResult Result = parallelizeLoop(L);
  EXPECT_EQ(M.counter("pipeline.lift_attempts").value() - Before, 1u);
  EXPECT_EQ(Result.Failure.Kind, FailureKind::BudgetExhausted)
      << Result.report();
  expectRunnableFallback(L, Result);
}

//===----------------------------------------------------------------------===//
// Synthesizer fault points.
//===----------------------------------------------------------------------===//

TEST(SynthFaults, RejectionsForceRetriesButNotFailure) {
  // Force the synthesizer to reject its first three otherwise-accepted
  // join candidates; the search must recover and still parallelize sum.
  Loop L = parseBenchmark(*findBenchmark("sum"));
  FaultScope Scope("synth.reject:limit=3");
  PipelineResult Result = parallelizeLoop(L);
  EXPECT_TRUE(Result.Success) << Result.report();
  EXPECT_EQ(FaultInjector::instance().fireCount("synth.reject"), 3u);
}

TEST(SynthFaults, InducedDeadlineExpiryYieldsTimeout) {
  // No real budgets anywhere: the deadline.expire fault point alone must
  // drive the pipeline down the structured-timeout path. The polls are
  // counted, so each expiry falls at a fixed place: mts's while the
  // oracle's tests are built (their witness refutes the search, and the
  // pipeline's own deadline check then stops it); in phase 1, atoi's inside
  // a pool-sized sketch sweep (weight 8, 774630 assignments, of a sketch
  // with no prefix check), line-sight's after=300 inside a pool-sized
  // enumeration level (the free grammar's size 6, 19574 combinations) and
  // its after=600 inside the calling thread's scan of the free grammar's
  // last level (size 7, 146631 combinations, polled every 256); and in
  // line-sight's phase 2, inside the pool-sized weight-8 sweep of aux0's
  // additive-correction sketch, where refuted prefixes skip most
  // assignments and the prefix checks are the steps that poll. The pool
  // workers that notice it must unwind the whole search.
  struct Case {
    const char *Name;
    const char *Fault;
  };
  for (const Case &C : {Case{"mts", "deadline.expire:after=40"},
                        Case{"atoi", "deadline.expire:after=1100"},
                        Case{"line-sight", "deadline.expire:after=300"},
                        Case{"line-sight", "deadline.expire:after=600"},
                        Case{"line-sight", "deadline.expire:after=7000"}}) {
    SCOPED_TRACE(C.Name);
    Loop L = parseBenchmark(*findBenchmark(C.Name));
    FaultScope Scope(C.Fault);
    PipelineResult Result = parallelizeLoop(L);
    EXPECT_FALSE(Result.Success);
    EXPECT_EQ(Result.Failure.Kind, FailureKind::Timeout) << Result.report();
    EXPECT_TRUE(Result.SequentialFallback);
  }
}

TEST(SynthFaults, ExpiredSweepEndsItsEquation) {
  // A sweep that sees the deadline expire ends its equation: atoi's phase-1
  // res expires inside the plain sketch's weight-8 sweep, and no later
  // stage (the correction sketch, the free grammar's growth) starts after
  // it, so its equation span holds one sketch search.
  Loop L = parseBenchmark(*findBenchmark("atoi"));
  FaultScope Scope("deadline.expire:after=1100");
  Tracer::instance().reset();
  Tracer::setEnabled(true);
  PipelineResult Result = parallelizeLoop(L);
  Tracer::setEnabled(false);
  EXPECT_EQ(Result.Failure.Kind, FailureKind::Timeout) << Result.report();
  std::vector<TraceEvent> Events = Tracer::instance().drain();
  Tracer::instance().reset();
  auto attrOf = [](const TraceEvent &E, const std::string &Key) {
    for (const TraceAttr &A : E.Attrs)
      if (A.Key == Key)
        return A.Value;
    return std::string();
  };
  std::vector<uint64_t> Unsolved;
  for (const TraceEvent &E : Events)
    if (std::string(E.Name) == "equation" && attrOf(E, "solved") == "false")
      Unsolved.push_back(E.SpanId);
  ASSERT_EQ(Unsolved.size(), 1u);
  std::vector<std::string> Searches;
  for (const TraceEvent &E : Events)
    if (std::string(E.Name) == "sketchSearch" && E.ParentId == Unsolved[0])
      Searches.push_back(attrOf(E, "sketch"));
  EXPECT_EQ(Searches, std::vector<std::string>{"plain"});
}

//===----------------------------------------------------------------------===//
// Sequential-fallback code emission.
//===----------------------------------------------------------------------===//

TEST(FallbackEmission, EmptyJoinEmitsSequentialProgram) {
  Loop L = parseBenchmark(*findBenchmark("mts"));
  std::string Code = emitParallelCpp(L, {});
  EXPECT_NE(Code.find("SEQUENTIAL FALLBACK"), std::string::npos);
  EXPECT_NE(Code.find("sequential fallback ok"), std::string::npos);
  // No scheduler, no join: the program must not reference the pool.
  EXPECT_EQ(Code.find("parallelReduce"), std::string::npos);
  EXPECT_EQ(Code.find("TaskPool"), std::string::npos);
  EXPECT_EQ(Code.find("static State join("), std::string::npos);
  // The loop body itself is still emitted, as the single-chain run(); the
  // chained leaf() needs a join.
  EXPECT_NE(Code.find("static State run("), std::string::npos);
  EXPECT_EQ(Code.find("static State leaf("), std::string::npos);
  EXPECT_NE(Code.find("static inline void step("), std::string::npos);
}

TEST(FallbackEmission, NonEmptyJoinStillEmitsParallelProgram) {
  Loop L = parseBenchmark(*findBenchmark("sum"));
  PipelineResult Result = parallelizeLoop(L);
  ASSERT_TRUE(Result.Success);
  std::string Code = emitParallelCpp(Result.Final, Result.Join.Components);
  EXPECT_EQ(Code.find("SEQUENTIAL FALLBACK"), std::string::npos);
  EXPECT_NE(Code.find("parallelReduce"), std::string::npos);
  EXPECT_NE(Code.find("static State join("), std::string::npos);
}

} // namespace
