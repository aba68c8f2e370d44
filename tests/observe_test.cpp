//===- tests/observe_test.cpp - Tracing, metrics, and report tests --------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The observability layer's contracts: span nesting and parentage across
// TaskPool worker threads, data-race-free draining while workers record
// (run under TSan by tools/ci/sanitize.sh), the Chrome-JSON serialization
// (golden string), report-schema stability, metric counter atomicity, and
// the near-zero-cost-when-off guarantee (a tracing-off synthesis run
// allocates no trace buffers and publishes no spans).
//
//===----------------------------------------------------------------------===//

#include "lift/Unfold.h"
#include "normalize/Normalizer.h"
#include "observe/Metrics.h"
#include "observe/PoolMetrics.h"
#include "observe/Report.h"
#include "observe/TraceExport.h"
#include "observe/Tracer.h"
#include "pipeline/Parallelizer.h"
#include "runtime/ParallelReduce.h"
#include "suite/Benchmarks.h"
#include "support/Failure.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

using namespace parsynt;

namespace {

/// Scoped tracing: clears residue from earlier tests, enables, and always
/// disables + clears on exit so later tests see a quiet tracer.
struct TracingOn {
  TracingOn() {
    Tracer::instance().reset();
    Tracer::setEnabled(true);
  }
  ~TracingOn() {
    Tracer::setEnabled(false);
    Tracer::instance().reset();
  }
};

const TraceEvent *findByName(const std::vector<TraceEvent> &Events,
                             const std::string &Name) {
  for (const TraceEvent &E : Events)
    if (Name == E.Name)
      return &E;
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// The near-zero-cost-when-off contract. First in the file so it also runs
// first under gtest's default registration order, before any test enables
// tracing — though the delta form keeps it order-independent.
//===----------------------------------------------------------------------===//

TEST(TracerOff, SynthesisAllocatesNoTraceBuffers) {
  ASSERT_FALSE(Tracer::enabled());
  size_t BuffersBefore = Tracer::instance().threadBufferCount();
  uint64_t SpansBefore = Tracer::instance().publishedSpanCount();

  const Benchmark *B = findBenchmark("sum");
  ASSERT_NE(B, nullptr);
  Loop L = parseBenchmark(*B);
  PipelineResult R = parallelizeLoop(L);
  EXPECT_TRUE(R.Success);

  // A full synthesis run passed through every instrumented span site and
  // recorded nothing: no buffer allocated, no span published.
  EXPECT_EQ(Tracer::instance().threadBufferCount(), BuffersBefore);
  EXPECT_EQ(Tracer::instance().publishedSpanCount(), SpansBefore);
}

TEST(TracerOff, InactiveSpanIgnoresAttrs) {
  ASSERT_FALSE(Tracer::enabled());
  Span S("never", trace::Synth);
  EXPECT_FALSE(S.active());
  S.attr("k", uint64_t(1));
  S.attr("s", "text");
  S.finish(); // must be a no-op, not a publish
  EXPECT_EQ(S.id(), 0u);
}

//===----------------------------------------------------------------------===//
// Span recording, nesting, and parentage.
//===----------------------------------------------------------------------===//

TEST(Tracer, NestedSpansLinkParentage) {
  TracingOn Guard;
  uint64_t OuterId = 0, InnerId = 0;
  {
    Span Outer("outer", trace::Pipeline);
    OuterId = Outer.id();
    {
      Span Inner("inner", trace::Synth);
      InnerId = Inner.id();
      Inner.attr("round", uint64_t(3));
    }
  }
  std::vector<TraceEvent> Events = Tracer::instance().drain();
  ASSERT_EQ(Events.size(), 2u);

  const TraceEvent *Outer = findByName(Events, "outer");
  const TraceEvent *Inner = findByName(Events, "inner");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Outer->SpanId, OuterId);
  EXPECT_EQ(Outer->ParentId, 0u);
  EXPECT_EQ(Inner->SpanId, InnerId);
  EXPECT_EQ(Inner->ParentId, OuterId);
  EXPECT_LE(Outer->StartNs, Inner->StartNs);
  EXPECT_GE(Outer->EndNs, Inner->EndNs);
  ASSERT_EQ(Inner->Attrs.size(), 1u);
  EXPECT_EQ(Inner->Attrs[0].Key, "round");
  EXPECT_EQ(Inner->Attrs[0].Value, "3");
  EXPECT_FALSE(Inner->Attrs[0].Quoted);
}

TEST(Tracer, ParentageAcrossTaskPoolWorkers) {
  TracingOn Guard;
  TaskPool Pool(4);
  TaskGroup Group;
  constexpr int Tasks = 16;
  std::atomic<int> Ran{0};
  for (int I = 0; I != Tasks; ++I)
    Pool.spawn(Group, [&] {
      Span Task("task", trace::Runtime);
      {
        Span Child("child", trace::Runtime);
        Child.attr("i", uint64_t(1));
      }
      Ran.fetch_add(1, std::memory_order_relaxed);
    });
  Pool.wait(Group);
  EXPECT_EQ(Ran.load(), Tasks);

  std::vector<TraceEvent> Events = Tracer::instance().drain();
  std::map<uint64_t, const TraceEvent *> ById;
  for (const TraceEvent &E : Events)
    ById[E.SpanId] = &E;

  int Children = 0, Roots = 0;
  for (const TraceEvent &E : Events) {
    if (std::string(E.Name) == "task") {
      // Tasks start fresh stacks on whichever thread runs them: roots.
      EXPECT_EQ(E.ParentId, 0u);
      ++Roots;
    } else if (std::string(E.Name) == "child") {
      ++Children;
      ASSERT_NE(E.ParentId, 0u);
      auto It = ById.find(E.ParentId);
      ASSERT_NE(It, ById.end());
      const TraceEvent &Parent = *It->second;
      EXPECT_STREQ(Parent.Name, "task");
      // A child shares its parent's thread and lies inside its interval.
      EXPECT_EQ(Parent.ThreadId, E.ThreadId);
      EXPECT_LE(Parent.StartNs, E.StartNs);
      EXPECT_GE(Parent.EndNs, E.EndNs);
    }
  }
  EXPECT_EQ(Roots, Tasks);
  EXPECT_EQ(Children, Tasks);
}

TEST(Tracer, DrainWhileWorkersRecord) {
  TracingOn Guard;
  TaskPool Pool(4);
  TaskGroup Group;
  constexpr int Writers = 8, SpansPerWriter = 2000;
  for (int I = 0; I != Writers; ++I)
    Pool.spawn(Group, [&] {
      for (int J = 0; J != SpansPerWriter; ++J) {
        Span S("work", trace::Runtime);
        S.attr("j", uint64_t(J));
      }
    });

  // Drain concurrently with the recording threads: every observation must
  // be a consistent prefix (TSan checks the synchronization; the interval
  // sanity check below catches torn events).
  size_t LastSeen = 0;
  for (int D = 0; D != 50; ++D) {
    std::vector<TraceEvent> Events = Tracer::instance().drain();
    EXPECT_GE(Events.size(), LastSeen);
    LastSeen = Events.size();
    for (const TraceEvent &E : Events) {
      EXPECT_LE(E.StartNs, E.EndNs);
      EXPECT_STREQ(E.Name, "work");
    }
  }
  Pool.wait(Group);
  std::vector<TraceEvent> Final = Tracer::instance().drain();
  EXPECT_EQ(Final.size(), size_t(Writers) * SpansPerWriter);
}

TEST(Tracer, ResetDropsPublishedSpans) {
  TracingOn Guard;
  { Span S("gone", trace::Synth); }
  ASSERT_EQ(Tracer::instance().drain().size(), 1u);
  Tracer::instance().reset();
  EXPECT_TRUE(Tracer::instance().drain().empty());
  { Span S("kept", trace::Synth); }
  std::vector<TraceEvent> Events = Tracer::instance().drain();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_STREQ(Events[0].Name, "kept");
}

//===----------------------------------------------------------------------===//
// Chrome-JSON serialization.
//===----------------------------------------------------------------------===//

TEST(TraceExport, ChromeEventJsonGolden) {
  TraceEvent E;
  E.Name = "cegisRound";
  E.Category = "synth";
  E.StartNs = 1500;
  E.EndNs = 4750;
  E.SpanId = 42;
  E.ParentId = 7;
  E.ThreadId = 3;
  E.Attrs.push_back({"round", "2", /*Quoted=*/false});
  E.Attrs.push_back({"loop", "mts\"x", /*Quoted=*/true});

  EXPECT_EQ(chromeTraceEventJson(E),
            "{\"name\":\"cegisRound\",\"cat\":\"synth\",\"ph\":\"X\","
            "\"pid\":1,\"tid\":3,\"ts\":1.500,\"dur\":3.250,"
            "\"args\":{\"span_id\":42,\"parent_id\":7,"
            "\"round\":2,\"loop\":\"mts\\\"x\"}}");
}

TEST(TraceExport, TinyPipelineTraceIsWellFormed) {
  TracingOn Guard;
  const Benchmark *B = findBenchmark("sum");
  ASSERT_NE(B, nullptr);
  Loop L = parseBenchmark(*B);
  PipelineResult R = parallelizeLoop(L);
  ASSERT_TRUE(R.Success);

  std::vector<TraceEvent> Events = Tracer::instance().drain();
  ASSERT_FALSE(Events.empty());

  // The acceptance-criteria nesting: parse spans are recorded by the
  // frontend (benchmarks parse through parseLoop), and the pipeline root
  // encloses analysis, per-round join synthesis, and the oracle.
  const TraceEvent *Root = findByName(Events, "parallelizeLoop");
  ASSERT_NE(Root, nullptr);
  EXPECT_STREQ(Root->Category, trace::Pipeline);
  ASSERT_NE(findByName(Events, "synthesizeJoin"), nullptr);
  ASSERT_NE(findByName(Events, "cegisRound"), nullptr);
  ASSERT_NE(findByName(Events, "buildInitialTests"), nullptr);
  ASSERT_NE(findByName(Events, "analyzeDependences"), nullptr);

  // Every non-root parent id resolves within the drained set, and the
  // synth spans sit in the subtree of the pipeline root.
  std::map<uint64_t, const TraceEvent *> ById;
  for (const TraceEvent &E : Events)
    ById[E.SpanId] = &E;
  for (const TraceEvent &E : Events) {
    if (E.ParentId != 0) {
      EXPECT_TRUE(ById.count(E.ParentId)) << E.Name;
    }
  }
  const TraceEvent *Round = findByName(Events, "cegisRound");
  uint64_t Walk = Round->ParentId;
  bool ReachedRoot = false;
  while (Walk != 0) {
    if (Walk == Root->SpanId) {
      ReachedRoot = true;
      break;
    }
    ASSERT_TRUE(ById.count(Walk));
    Walk = ById[Walk]->ParentId;
  }
  EXPECT_TRUE(ReachedRoot);

  // The written document has the Chrome-trace envelope, one line per
  // event, and the root span's name inside.
  std::string Path = testing::TempDir() + "parsynt_observe_trace.json";
  std::string Error;
  ASSERT_TRUE(writeTraceFile(Path, &Error)) << Error;
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Doc = Buf.str();
  EXPECT_EQ(Doc.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(Doc.find("\"displayTimeUnit\":\"ms\"}"), std::string::npos);
  EXPECT_NE(Doc.find("\"name\":\"parallelizeLoop\""), std::string::npos);
  EXPECT_NE(Doc.find("\"ph\":\"X\""), std::string::npos);
  std::remove(Path.c_str());

  // The phase report renders every category that recorded spans.
  std::string Report = phaseReport(Events);
  EXPECT_NE(Report.find("pipeline"), std::string::npos);
  EXPECT_NE(Report.find("synth"), std::string::npos);
  EXPECT_NE(Report.find("hottest spans:"), std::string::npos);
}

TEST(TraceExport, PhaseAggregationCountsEntrySpansOnly) {
  // Two nested synth spans + one oracle child: the synth wall time must be
  // the entry span's interval, not the sum of both.
  std::vector<TraceEvent> Events;
  TraceEvent Outer;
  Outer.Name = "synthesizeJoin";
  Outer.Category = "synth";
  Outer.StartNs = 0;
  Outer.EndNs = 1000;
  Outer.SpanId = 1;
  Events.push_back(Outer);
  TraceEvent Inner;
  Inner.Name = "cegisRound";
  Inner.Category = "synth";
  Inner.StartNs = 100;
  Inner.EndNs = 900;
  Inner.SpanId = 2;
  Inner.ParentId = 1;
  Events.push_back(Inner);
  TraceEvent Oracle;
  Oracle.Name = "buildInitialTests";
  Oracle.Category = "oracle";
  Oracle.StartNs = 200;
  Oracle.EndNs = 500;
  Oracle.SpanId = 3;
  Oracle.ParentId = 2;
  Events.push_back(Oracle);

  std::vector<PhaseRow> Rows = aggregatePhases(Events);
  ASSERT_EQ(Rows.size(), 2u);
  EXPECT_EQ(Rows[0].Category, "synth"); // sorted by wall time, descending
  EXPECT_EQ(Rows[0].WallNanos, 1000u);
  EXPECT_EQ(Rows[0].SpanCount, 2u);
  EXPECT_EQ(Rows[1].Category, "oracle");
  EXPECT_EQ(Rows[1].WallNanos, 300u); // category boundary: an entry span
  EXPECT_EQ(Rows[1].SpanCount, 1u);
}

TEST(Tracer, NormalizeSpanRecordsWhereTheAnswerWasFound) {
  // line-sight's step-3 vis unfolding improves once, at expansion 2; its
  // span says so, and that the search ran StallLimit expansions past it.
  Loop L = materializeIndex(parseBenchmark(*findBenchmark("line-sight")));
  ExprRef Tau =
      unfoldLoop(L, 3, /*FromUnknowns=*/true).ValuesAtStep.at("vis")[3];
  TracingOn Scope;
  normalizeExpr(Tau);
  std::vector<TraceEvent> Events = Tracer::instance().drain();
  const TraceEvent *Span = findByName(Events, "normalizeExpr");
  ASSERT_NE(Span, nullptr);
  std::map<std::string, std::string> Attrs;
  for (const auto &A : Span->Attrs)
    Attrs[A.Key] = A.Value;
  EXPECT_EQ(Attrs["best_at"], "2");
  EXPECT_EQ(Attrs["expanded"], std::to_string(2 + StallLimit));
}

TEST(Tracer, EquationSpansSayWhichStageSolvedThem) {
  // line-sight's original loop has no join for vis in the paper's space, so
  // its equation span reads unsolved; on the lifted loop the empty-guard
  // sketch solves vis, before the free grammar grows the pool past the
  // sketch tiers; the redundancy retries take it as a seed.
  Loop L = parseBenchmark(*findBenchmark("line-sight"));
  TracingOn Scope;
  ASSERT_TRUE(parallelizeLoop(L).Success);
  std::vector<TraceEvent> Events = Tracer::instance().drain();
  std::sort(Events.begin(), Events.end(),
            [](const TraceEvent &A, const TraceEvent &B) {
              return A.StartNs < B.StartNs;
            });
  std::vector<std::string> Stages;
  for (const TraceEvent &E : Events) {
    if (std::string(E.Name) != "equation")
      continue;
    std::map<std::string, std::string> Attrs;
    for (const auto &A : E.Attrs)
      Attrs[A.Key] = A.Value;
    if (Attrs["name"] == "vis")
      Stages.push_back(Attrs.count("stage") ? Attrs["stage"]
                                            : "solved=" + Attrs["solved"]);
  }
  ASSERT_GE(Stages.size(), 2u);
  EXPECT_EQ(Stages[0], "solved=false");
  EXPECT_EQ(Stages[1], "guard");
}

//===----------------------------------------------------------------------===//
// Metrics.
//===----------------------------------------------------------------------===//

TEST(Metrics, CountersAreAtomicAcrossThreads) {
  Counter C;
  Histogram H;
  constexpr unsigned Threads = 8;
  constexpr uint64_t PerThread = 50000;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&] {
      for (uint64_t I = 0; I != PerThread; ++I) {
        C.inc();
        H.observe(I % 7);
      }
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(C.value(), Threads * PerThread);
  EXPECT_EQ(H.count(), Threads * PerThread);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 6u);
}

TEST(Metrics, RegistryReferencesAreStableAndResettable) {
  MetricsRegistry R;
  Counter &A = R.counter("a.counter");
  Counter &B = R.counter("a.counter");
  EXPECT_EQ(&A, &B);
  A.add(5);
  R.gauge("a.gauge").set(-3);
  R.histogram("a.hist").observe(16);

  MetricsRegistry::Snapshot S = R.snapshot();
  EXPECT_EQ(S.counterOr0("a.counter"), 5u);
  EXPECT_EQ(S.counterOr0("missing"), 0u);
  ASSERT_EQ(S.Gauges.size(), 1u);
  EXPECT_EQ(S.Gauges[0].second, -3);
  ASSERT_EQ(S.Histograms.size(), 1u);
  EXPECT_EQ(S.Histograms[0].Count, 1u);
  EXPECT_EQ(S.Histograms[0].Sum, 16u);

  R.resetAll();
  EXPECT_EQ(R.snapshot().counterOr0("a.counter"), 0u);
  EXPECT_EQ(&R.counter("a.counter"), &A); // registration survives reset
}

TEST(Metrics, PipelineRunPublishesSynthesisCounters) {
  MetricsRegistry &M = MetricsRegistry::global();
  MetricsRegistry::Snapshot Before = M.snapshot();
  const Benchmark *B = findBenchmark("sum");
  ASSERT_NE(B, nullptr);
  PipelineResult R = parallelizeLoop(parseBenchmark(*B));
  ASSERT_TRUE(R.Success);
  MetricsRegistry::Snapshot After = M.snapshot();

  auto Deltas = counterDeltas(Before, After);
  auto deltaOf = [&](const std::string &Name) -> uint64_t {
    for (const auto &KV : Deltas)
      if (KV.first == Name)
        return KV.second;
    return 0;
  };
  EXPECT_EQ(deltaOf("pipeline.runs"), 1u);
  EXPECT_EQ(deltaOf("pipeline.successes"), 1u);
  EXPECT_GE(deltaOf("synth.calls"), 1u);
  EXPECT_GE(deltaOf("synth.cegis.rounds"), 1u);
  EXPECT_GE(deltaOf("frontend.parses"), 1u);
  EXPECT_GE(deltaOf("analysis.verify.passes"), 1u);
}

TEST(Metrics, FailedSearchesAreTimedAndTheirLastLevelScanned) {
  // line-sight's phase-1 search (the original loop, with no empty-guard
  // sketch) fails after its free grammar scans the size-7 level, 146631
  // combinations, and misses. Its time is the run's failed-join time, a
  // part of the join time, also in the run report; sum's seeded search
  // does not fail.
  MetricsRegistry &M = MetricsRegistry::global();
  MetricsRegistry::Snapshot Before = M.snapshot();
  PipelineResult R =
      parallelizeLoop(parseBenchmark(*findBenchmark("line-sight")));
  ASSERT_TRUE(R.Success);
  MetricsRegistry::Snapshot After = M.snapshot();
  EXPECT_EQ(After.counterOr0("synth.enum.scanned") -
                Before.counterOr0("synth.enum.scanned"),
            146631u);
  EXPECT_GT(R.FailedJoinSeconds, 0.0);
  EXPECT_LT(R.FailedJoinSeconds, R.JoinSeconds);
  const std::string Split = phaseReport();
  EXPECT_NE(Split.find("last-level scan"), std::string::npos);
  EXPECT_NE(Split.find("lanes per run"), std::string::npos);

  RunReport Report;
  Report.Benchmarks.push_back(makeBenchmarkEntry("line-sight", R));
  EXPECT_EQ(Report.Benchmarks[0].FailedJoinSeconds, R.FailedJoinSeconds);
  EXPECT_NE(Report.toJson().find("\"failed_join\""), std::string::npos);

  PipelineResult Sum = parallelizeLoop(parseBenchmark(*findBenchmark("sum")));
  ASSERT_TRUE(Sum.Success);
  EXPECT_EQ(Sum.FailedJoinSeconds, 0.0);
}

//===----------------------------------------------------------------------===//
// Pool stats through the registry (the one-code-path satellite).
//===----------------------------------------------------------------------===//

TEST(PoolMetrics, SummaryAndTableRenderFromRegistry) {
  StatsSnapshot S;
  S.Workers.resize(2);
  S.Workers[0] = {10, 12, 0, 3, 1, 0};
  S.Workers[1] = {2, 0, 4, 1, 2, 0};
  S.Total = S.Workers[0];
  S.Total += S.Workers[1];
  S.TimingEnabled = true;
  S.LeafCount = 8;
  S.LeafNanos = 4000000; // 4 ms
  S.JoinCount = 7;
  S.JoinNanos = 1500000;

  std::string Summary = poolSummary(S);
  EXPECT_NE(Summary.find("spawns=12"), std::string::npos);
  EXPECT_NE(Summary.find("steals=4"), std::string::npos);
  EXPECT_NE(Summary.find("steal-fails=4"), std::string::npos);
  EXPECT_NE(Summary.find("parks=3"), std::string::npos);
  EXPECT_NE(Summary.find("leaves=8 (4.00 ms)"), std::string::npos);
  EXPECT_NE(Summary.find("joins=7 (1.500 ms)"), std::string::npos);
  EXPECT_EQ(Summary.find("inlined"), std::string::npos); // zero: omitted

  std::string Table = poolTable(S);
  EXPECT_NE(Table.find("worker"), std::string::npos);
  EXPECT_NE(Table.find("caller"), std::string::npos);
  EXPECT_NE(Table.find("total"), std::string::npos);
  EXPECT_NE(Table.find("leaves: 8 in 4.000 ms"), std::string::npos);

  // The same snapshot absorbed into a registry yields the same numbers the
  // report serializes.
  MetricsRegistry R;
  absorbPoolStats(R, S);
  MetricsRegistry::Snapshot M = R.snapshot();
  EXPECT_EQ(M.counterOr0("pool.spawns"), 12u);
  EXPECT_EQ(M.counterOr0("pool.steals"), 4u);
  EXPECT_EQ(M.counterOr0("pool.leaf.nanos"), 4000000u);
}

//===----------------------------------------------------------------------===//
// Run-report schema.
//===----------------------------------------------------------------------===//

TEST(Report, FailureInfoToJsonCarriesKindMessageAndSource) {
  FailureInfo F(FailureKind::Timeout, "join deadline expired");
  std::string J = F.toJson();
  EXPECT_NE(J.find("\"kind\":\"timeout\""), std::string::npos);
  EXPECT_NE(J.find("\"message\":\"join deadline expired\""),
            std::string::npos);
  EXPECT_NE(J.find("\"source\":{\"file\":"), std::string::npos);
  EXPECT_NE(J.find("observe_test.cpp"), std::string::npos);
}

TEST(Report, RunReportSerializesSchemaEnvelope) {
  RunReport Report;
  Report.Tool = "table1";
  BenchmarkEntry Ok;
  Ok.Name = "sum";
  Ok.Success = true;
  Ok.JoinSeconds = 0.25;
  Ok.TotalSeconds = 0.5;
  Ok.Metrics.emplace_back("synth.cegis.rounds", 3);
  Report.Benchmarks.push_back(Ok);
  BenchmarkEntry Bad;
  Bad.Name = "max-block-1";
  Bad.Success = false;
  Bad.AuxRequired = true;
  Bad.AuxDiscovered = 1;
  Bad.SequentialFallback = true;
  Bad.Failure = FailureInfo(FailureKind::NotHomomorphic, "no join found");
  Report.Benchmarks.push_back(Bad);

  std::string J = Report.toJson();
  EXPECT_NE(J.find("\"schema\": \"parsynt-run-report\""), std::string::npos);
  EXPECT_NE(J.find("\"version\": 2"), std::string::npos);
  EXPECT_NE(J.find("\"tool\": \"table1\""), std::string::npos);
  EXPECT_NE(J.find("\"outcome\": \"success\""), std::string::npos);
  EXPECT_NE(J.find("\"outcome\": \"failure\""), std::string::npos);
  EXPECT_NE(J.find("\"sequential_fallback\": true"), std::string::npos);
  EXPECT_NE(J.find("not-homomorphic"), std::string::npos);
  EXPECT_NE(J.find("\"phase_seconds\""), std::string::npos);
  EXPECT_NE(J.find("\"totals\""), std::string::npos);
  EXPECT_NE(J.find("\"benchmarks\": 2"), std::string::npos);
  EXPECT_NE(J.find("\"successes\": 1"), std::string::npos);
  // The envelope always carries the registry and fault sections.
  EXPECT_NE(J.find("\"counters\""), std::string::npos);
  EXPECT_NE(J.find("\"faults\""), std::string::npos);
}

TEST(Report, CounterDeltasDropZeroAndMissing) {
  MetricsRegistry R;
  R.counter("x").add(2);
  R.counter("y").add(1);
  MetricsRegistry::Snapshot Before = R.snapshot();
  R.counter("x").add(3);
  R.counter("z").add(7);
  MetricsRegistry::Snapshot After = R.snapshot();
  auto Deltas = counterDeltas(Before, After);
  ASSERT_EQ(Deltas.size(), 2u);
  EXPECT_EQ(Deltas[0].first, "x");
  EXPECT_EQ(Deltas[0].second, 3u);
  EXPECT_EQ(Deltas[1].first, "z");
  EXPECT_EQ(Deltas[1].second, 7u);
}
