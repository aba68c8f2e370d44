//===- normalize/Normalizer.cpp - Cost-directed normalization -------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "normalize/Normalizer.h"
#include "normalize/Simplify.h"
#include "observe/Metrics.h"
#include "observe/Tracer.h"

#include <queue>
#include <unordered_set>

using namespace parsynt;

namespace {

/// Candidates larger than SizeFactor * |input| + SizeSlack are pruned.
constexpr unsigned SizeFactor = 3;
constexpr unsigned SizeSlack = 24;

/// Search node ordering: cost first (Definition 6.1), then size, so that of
/// two expressions with the unknowns equally placed, the shorter is
/// preferred.
struct Node {
  ExprRef E;
  ExprCost Cost;
  unsigned Size;
};

struct NodeWorse {
  bool operator()(const Node &A, const Node &B) const {
    if (!(A.Cost == B.Cost))
      return B.Cost < A.Cost;
    return A.Size > B.Size;
  }
};

} // namespace

ExprRef parsynt::normalizeExpr(const ExprRef &E,
                               const std::set<std::string> &Unknowns,
                               const NormalizeOptions &Options,
                               NormalizeStats *Stats) {
  const std::vector<RewriteRule> &Rules = figure6Rules();
  ExprRef Start = simplify(E);
  unsigned SizeCap = Start->size() * SizeFactor + SizeSlack;

  Span BatchSpan("normalizeExpr", trace::Normalize);
  BatchSpan.attr("input_size", uint64_t(Start->size()));
  // Rule hits are accumulated locally across the whole search and flushed
  // to the registry once on exit — the best-first loop stays free of
  // shared-counter traffic.
  std::vector<uint64_t> RuleHits(Rules.size(), 0);

  std::priority_queue<Node, std::vector<Node>, NodeWorse> Frontier;
  std::unordered_set<ExprRef> Seen;
  Frontier.push({Start, exprCost(Start, Unknowns), Start->size()});
  Seen.insert(Start);

  Node Best = Frontier.top();
  if (Stats) {
    Stats->InitialCost = Best.Cost;
    Stats->Expanded = 0;
    Stats->Generated = 1;
    Stats->TimedOut = false;
  }

  unsigned Expanded = 0;
  while (!Frontier.empty() && Expanded < Options.MaxExpansions) {
    if (Options.Timeout.expired()) {
      if (Stats)
        Stats->TimedOut = true;
      BatchSpan.attr("timed_out", true);
      break;
    }
    Node Current = Frontier.top();
    Frontier.pop();
    ++Expanded;
    if (Current.Cost < Best.Cost ||
        (Current.Cost == Best.Cost && Current.Size < Best.Size))
      Best = Current;
    for (ExprRef &Neighbor : allRewrites(Current.E, Rules, &RuleHits)) {
      unsigned Size = Neighbor->size();
      if (Size > SizeCap || !Seen.insert(Neighbor).second)
        continue;
      ExprCost Cost = exprCost(Neighbor, Unknowns);
      if (Stats)
        ++Stats->Generated;
      Frontier.push({std::move(Neighbor), Cost, Size});
    }
  }

  if (Stats) {
    Stats->Expanded = Expanded;
    Stats->FinalCost = Best.Cost;
  }

  MetricsRegistry &M = MetricsRegistry::global();
  M.counter("normalize.calls").inc();
  M.counter("normalize.expanded").add(Expanded);
  uint64_t TotalHits = 0;
  for (size_t R = 0; R != Rules.size(); ++R) {
    TotalHits += RuleHits[R];
    if (RuleHits[R])
      M.counter("normalize.rule." + Rules[R].Name).add(RuleHits[R]);
  }
  M.counter("normalize.rule_hits").add(TotalHits);
  BatchSpan.attr("expanded", uint64_t(Expanded));
  BatchSpan.attr("rule_hits", TotalHits);
  BatchSpan.attr("output_size", uint64_t(Best.E->size()));
  return Best.E;
}
