//===- observe/Report.cpp - Machine-readable run reports ------------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "observe/Report.h"

#include "support/FaultInjector.h"
#include "support/Json.h"

namespace parsynt {

BenchmarkEntry makeBenchmarkEntry(const std::string &Name,
                                  const PipelineResult &Result) {
  BenchmarkEntry E;
  E.Name = Name;
  E.Success = Result.Success;
  E.Failure = Result.Failure;
  E.AuxRequired = Result.AuxRequired;
  E.AuxCount = Result.AuxCount;
  E.AuxDiscovered = Result.AuxDiscovered;
  E.SequentialFallback = Result.SequentialFallback;
  E.SeedsAccepted = Result.SeedsAccepted;
  E.JoinSeconds = Result.JoinSeconds;
  E.FailedJoinSeconds = Result.FailedJoinSeconds;
  E.LiftSeconds = Result.LiftSeconds;
  E.ProofSeconds = Result.Join.Proof.Seconds;
  E.TotalSeconds = Result.TotalSeconds;
  return E;
}

std::vector<std::pair<std::string, uint64_t>>
counterDeltas(const MetricsRegistry::Snapshot &Before,
              const MetricsRegistry::Snapshot &After) {
  std::vector<std::pair<std::string, uint64_t>> Out;
  for (const auto &KV : After.Counters) {
    uint64_t Prior = Before.counterOr0(KV.first);
    if (KV.second > Prior)
      Out.emplace_back(KV.first, KV.second - Prior);
  }
  return Out;
}

std::string RunReport::toJson() const {
  JsonWriter W;
  W.beginObject();
  W.key("schema").string("parsynt-run-report");
  W.key("version").number(Version);
  W.key("tool").string(Tool);

  W.key("benchmarks").beginArray();
  unsigned Successes = 0;
  double TotalSeconds = 0;
  for (const BenchmarkEntry &E : Benchmarks) {
    Successes += E.Success ? 1 : 0;
    TotalSeconds += E.TotalSeconds;
    W.beginObject();
    W.key("name").string(E.Name);
    W.key("outcome").string(E.Success ? "success" : "failure");
    if (E.Failure)
      W.key("failure").raw(E.Failure.toJson());
    W.key("aux_required").boolean(E.AuxRequired);
    W.key("aux_count").number(E.AuxCount);
    W.key("aux_discovered").number(E.AuxDiscovered);
    W.key("sequential_fallback").boolean(E.SequentialFallback);
    W.key("seeds_accepted").number(E.SeedsAccepted);
    W.key("phase_seconds").beginObject();
    W.key("join").number(E.JoinSeconds);
    W.key("lift").number(E.LiftSeconds);
    W.key("proof").number(E.ProofSeconds);
    W.key("total").number(E.TotalSeconds);
    W.key("failed_join").number(E.FailedJoinSeconds);
    W.endObject();
    W.key("metrics").beginObject();
    for (const auto &KV : E.Metrics)
      W.key(KV.first).number(KV.second);
    W.endObject();
    if (!E.Extra.empty()) {
      W.key("extra").beginObject();
      for (const auto &KV : E.Extra)
        W.key(KV.first).number(KV.second);
      W.endObject();
    }
    W.endObject();
  }
  W.endArray();

  MetricsRegistry::Snapshot M = MetricsRegistry::global().snapshot();
  W.key("metrics").beginObject();
  W.key("counters").beginObject();
  for (const auto &KV : M.Counters)
    W.key(KV.first).number(KV.second);
  W.endObject();
  W.key("gauges").beginObject();
  for (const auto &KV : M.Gauges)
    W.key(KV.first).number(KV.second);
  W.endObject();
  W.key("histograms").beginObject();
  for (const auto &H : M.Histograms) {
    W.key(H.Name).beginObject();
    W.key("count").number(H.Count);
    W.key("sum").number(H.Sum);
    W.key("min").number(H.Min);
    W.key("max").number(H.Max);
    W.endObject();
  }
  W.endObject();
  W.endObject();

  W.key("faults").beginArray();
  for (const auto &P : FaultInjector::instance().pointSnapshots()) {
    W.beginObject();
    W.key("point").string(P.Name);
    W.key("polls").number(P.Polls);
    W.key("fires").number(P.Fires);
    W.endObject();
  }
  W.endArray();

  W.key("totals").beginObject();
  W.key("benchmarks").number(Benchmarks.size());
  W.key("successes").number(Successes);
  W.key("failures").number(Benchmarks.size() - Successes);
  W.key("total_seconds").number(TotalSeconds);
  W.endObject();

  W.endObject();
  return W.str() + "\n";
}

} // namespace parsynt
