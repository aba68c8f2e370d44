//===- synth/JoinSynth.cpp - Join operator synthesis ----------------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "synth/JoinSynth.h"
#include "ir/ExprOps.h"
#include "normalize/Simplify.h"
#include "observe/Metrics.h"
#include "observe/Tracer.h"
#include "support/FaultInjector.h"
#include "synth/Enumerator.h"
#include "synth/Sketch.h"
#include "synth/SketchSearch.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>
#include <sstream>

using namespace parsynt;

namespace {

// The search's fixed configuration.
/// Successive (LR-hole size, R-hole size) tiers: the paper's gradually
/// increased expression depth d.
constexpr std::pair<unsigned, unsigned> SketchTiers[] = {
    {1, 1}, {3, 2}, {3, 3}, {5, 3}};
/// Term-size bound of the free-grammar fallback.
constexpr unsigned FreeMaxSize = 7;
/// Cap on the assignments one sketch search counts at one tier (an Int
/// equation runs up to three searches per tier: plain, correction, guard).
constexpr uint64_t ProductBudget = 2000000;
/// Maximum CEGIS iterations (counterexample rounds).
constexpr unsigned CegisRounds = 10;

/// Collects the small integer constants appearing in the loop (candidates
/// for ??R fills), plus the universal 0 / 1 / -1.
std::vector<int64_t> joinConstants(const Loop &L) {
  std::set<int64_t> Result = {0, 1, -1};
  for (const Equation &Eq : L.Equations) {
    auto Collect = [&](const ExprRef &Root) {
      forEachNode(Root, [&](const ExprRef &Node) {
        if (const auto *C = dyn_cast<IntConstExpr>(Node))
          Result.insert(C->value());
      });
    };
    Collect(Eq.Update);
    Collect(Eq.Init);
  }
  return {Result.begin(), Result.end()};
}

/// "x = [1, 0], y = [1]" for the one sequence of \p Ex ("s: x = ..., y =
/// ...; t: ..." for several), then its parameters.
std::string describeSplit(const JoinExample &Ex) {
  auto list = [](const std::vector<Value> &Seq) {
    std::string Out = "[";
    for (size_t J = 0; J != Seq.size(); ++J)
      Out += (J ? ", " : "") + Seq[J].str();
    return Out + "]";
  };
  std::string Out;
  for (const auto &[Name, X] : Ex.LeftSeqs) {
    if (!Out.empty())
      Out += "; ";
    if (Ex.LeftSeqs.size() > 1)
      Out += Name + ": ";
    Out += "x = " + list(X) + ", y = " + list(Ex.RightSeqs.at(Name));
  }
  for (const auto &[Name, V] : Ex.Params)
    Out += "; " + Name + " = " + V.str();
  return Out;
}

/// The failure of a search refuted by \p W.
std::string describeWitness(const Loop &L, const HomOracle &Oracle,
                            const JoinWitness &W) {
  const JoinExample &A = Oracle.tests()[W.First];
  const JoinExample &B = Oracle.tests()[W.Second];
  return "no join exists: the tests {" + describeSplit(A) + "} and {" +
         describeSplit(B) +
         "} have equal split states, but the join of state variable '" +
         L.Equations[W.Equation].Name + "' must give " +
         A.Expected[W.Equation].str() + " on one and " +
         B.Expected[W.Equation].str() + " on the other";
}

uint64_t nanosSince(std::chrono::steady_clock::time_point Start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

} // namespace

JoinResult parsynt::synthesizeJoin(const Loop &L,
                                   const JoinSynthOptions &Options) {
  auto StartTime = std::chrono::steady_clock::now();
  JoinResult Result;
  Result.Components.resize(L.Equations.size());

  Span Root("synthesizeJoin", trace::Synth);
  Root.attr("loop", L.Name.empty() ? "<loop>" : L.Name);
  Root.attr("equations", uint64_t(L.Equations.size()));

  // One deadline governs the oracle, the enumerators, and every search
  // below; an unarmed one reproduces the un-deadlined search exactly.
  const Deadline DL = Options.Timeout;
  auto OracleStart = std::chrono::steady_clock::now();
  HomOracle Oracle(L, DL);
  // Every candidate must pass every test, so two tests that no join can
  // both pass end the call before any search.
  if (std::optional<JoinWitness> W = Oracle.witness()) {
    Result.Stats.Refuted = true;
    Result.Stats.TestsUsed = static_cast<unsigned>(Oracle.tests().size());
    Result.Failure = {FailureKind::NotHomomorphic,
                      describeWitness(L, Oracle, *W)};
    Root.attr("refuted", true);
  }
  Result.Stats.OracleNanos += nanosSince(OracleStart);
  std::vector<int64_t> Constants = joinConstants(L);

  // Grows a candidate pool to term size \p MaxSize, charging its time,
  // combinations and new candidates to Stats.
  auto grow = [&](Enumerator &E, unsigned MaxSize) {
    if (E.builtSize() >= MaxSize)
      return;
    size_t Candidates = E.totalCandidates();
    uint64_t Combinations = E.combinations();
    uint64_t Parallel = E.parallelCombinations();
    uint64_t Merge = E.mergeNanos();
    auto Start = std::chrono::steady_clock::now();
    E.growTo(MaxSize);
    Result.Stats.EnumerateNanos += nanosSince(Start);
    Result.Stats.MergeNanos += E.mergeNanos() - Merge;
    Result.Stats.EnumeratedCandidates += E.totalCandidates() - Candidates;
    Result.Stats.EnumeratedCombinations += E.combinations() - Combinations;
    Result.Stats.ParallelCombinations += E.parallelCombinations() - Parallel;
  };

  for (unsigned Round = 0; !Result.Stats.Refuted && Round <= CegisRounds;
       ++Round) {
    Result.Stats.CegisIterations = Round;
    Result.Stats.TestsUsed = static_cast<unsigned>(Oracle.tests().size());

    // One span per CEGIS round; assignment/candidate attributes are deltas
    // for this round, the counterexample attribute is stamped after
    // validation.
    Span RoundSpan("cegisRound", trace::Synth);
    RoundSpan.attr("round", uint64_t(Round));
    RoundSpan.attr("tests", uint64_t(Oracle.tests().size()));
    // Left-right and right-only candidate pools, shared by every equation
    // of the round and made of the leaves on its first search (a round whose
    // equations all take seeds makes none). Each sketch tier grows them to
    // its hole sizes, and the free grammar grows the left-right pool a level
    // at a time until it matches, building its last level only when a scan
    // finds a match there: a pool holds only the levels some search of the
    // round has read.
    std::optional<Enumerator> ELR, ER;
    uint64_t RoundAssignmentsBase = Result.Stats.SketchAssignmentsTried;
    uint64_t RoundEvaluatedBase = Result.Stats.SketchEvaluated;
    uint64_t RoundCandidatesBase = Result.Stats.EnumeratedCandidates;
    auto stampRound = [&](bool Solved) {
      // The term sizes the round's pools reached (0: no pools were made).
      const uint64_t LRSize = ELR ? ELR->builtSize() : 0;
      const uint64_t RSize = ER ? ER->builtSize() : 0;
      MetricsRegistry::global().gauge("synth.sketch.max_lr").set(LRSize);
      MetricsRegistry::global().gauge("synth.sketch.max_r").set(RSize);
      RoundSpan.attr("lr_size", LRSize);
      RoundSpan.attr("r_size", RSize);
      RoundSpan.attr("solved", Solved);
      RoundSpan.attr("assignments", Result.Stats.SketchAssignmentsTried -
                                        RoundAssignmentsBase);
      RoundSpan.attr("evaluated",
                     Result.Stats.SketchEvaluated - RoundEvaluatedBase);
      RoundSpan.attr("candidates", Result.Stats.EnumeratedCandidates -
                                       RoundCandidatesBase);
    };

    auto buildPools = [&] {
      if (ELR)
        return;
      EnumeratorOptions O;
      O.Timeout = DL;
      ELR.emplace(Oracle.tests().size(), O);
      ER.emplace(Oracle.tests().size(), O);
      // Leaves take their values from the oracle's test rows; ??R holes
      // draw from every leaf but the left split values.
      auto leaf = [&](const ExprRef &E, bool RightToo) {
        std::vector<int64_t> Values = Oracle.column(E);
        ELR->addLeaf(E, Values);
        if (RightToo)
          ER->addLeaf(E, Values);
      };
      for (const Equation &Eq : L.Equations) {
        leaf(inputVar(splitName(Eq.Name, Side::Left), Eq.Ty), false);
        leaf(inputVar(splitName(Eq.Name, Side::Right), Eq.Ty), true);
      }
      for (const ParamDecl &P : L.Params)
        leaf(inputVar(P.Name, P.Ty), true);
      for (int64_t C : Constants)
        leaf(intConst(C), true);
      leaf(boolConst(true), true);
      leaf(boolConst(false), true);
      Result.Stats.EnumeratedCandidates +=
          ELR->totalCandidates() + ER->totalCandidates();
    };

    // Solve each equation modularly.
    bool AllSolved = true;
    for (size_t I = 0; I != L.Equations.size(); ++I) {
      const Equation &Eq = L.Equations[I];
      ExprRef Component;
      // What solved the equation, for its span.
      const char *Stage = "sketch";

      Span EqSpan("equation", trace::Synth);
      EqSpan.attr("name", Eq.Name);

      if (DL.expired()) {
        AllSolved = false;
        Result.Failure = {FailureKind::Timeout,
                          "join synthesis deadline expired before solving "
                          "state variable '" +
                              Eq.Name + "'"};
        break;
      }

      // Trivially-homomorphic variables: accept the dependence-analysis
      // seed without searching if it matches every current test. (The
      // round's proof still checks the assembled join, so a wrong seed
      // costs one round: the next one's tests hold its counterexample.)
      auto SeedIt = Options.Seeds.find(Eq.Name);
      if (SeedIt != Options.Seeds.end() && SeedIt->second) {
        auto SeedStart = std::chrono::steady_clock::now();
        bool Matches = !Oracle.firstFailure(SeedIt->second, I);
        Result.Stats.OracleNanos += nanosSince(SeedStart);
        // Fault point: refuse a matching seed so the equation exercises the
        // full search path (PARSYNT_FAULT=synth.reject).
        if (Matches && !FaultInjector::fires("synth.reject")) {
          Result.Components[I] = SeedIt->second;
          ++Result.Stats.SeedsAccepted;
          EqSpan.attr("stage", "seed");
          continue;
        }
      }
      buildPools();
      // The equation's expected outputs over the tests: what a sketch body
      // and a free-grammar candidate must give.
      std::vector<int64_t> Target;
      Target.reserve(Oracle.tests().size());
      for (const JoinExample &Example : Oracle.tests())
        Target.push_back(Example.Expected[I].raw());

      // Searches sketch \p S (named \p Kind in its span) tier by tier over
      // the round's pools. A non-null \p Guard is the fixed pool of the
      // sketch's last hole; the hole sizes of every tier then reach at least
      // the guard's size.
      auto searchSketch = [&](const Sketch &S, const char *Kind,
                              const HolePool *Guard = nullptr) -> ExprRef {
        Span SearchSpan("sketchSearch", trace::Synth);
        SearchSpan.attr("sketch", Kind);
        const uint64_t AssignmentsBase = Result.Stats.SketchAssignmentsTried;
        const uint64_t EvaluatedBase = Result.Stats.SketchEvaluated;
        const uint64_t LaneRunsBase = Result.Stats.SketchLaneRuns;
        const uint64_t TMPBase = Result.Stats.SketchNanos;
        auto stamp = [&](ExprRef Found) {
          SearchSpan.attr("solved", Found != nullptr);
          SearchSpan.attr("assignments", Result.Stats.SketchAssignmentsTried -
                                             AssignmentsBase);
          SearchSpan.attr("evaluated",
                          Result.Stats.SketchEvaluated - EvaluatedBase);
          SearchSpan.attr("lane_runs",
                          Result.Stats.SketchLaneRuns - LaneRunsBase);
          SearchSpan.attr("TMP_sketch_ns", Result.Stats.SketchNanos - TMPBase);
          return Found;
        };
        const CompiledSketch Compiled(
            S, Oracle.tests().size(),
            [&](const std::string &Name) {
              const unsigned Slot = Oracle.layout().slot(Name);
              std::vector<int64_t> Column;
              for (size_t T = 0; T != Oracle.tests().size(); ++T)
                Column.push_back(Oracle.testRow(T)[Slot]);
              return Column;
            },
            Target);
        for (const auto &[SizeLR, SizeR] : SketchTiers) {
          grow(*ELR, SizeLR);
          grow(*ER, SizeR);
          std::vector<HolePool> Pools;
          Pools.reserve(S.Holes.size());
          for (const Hole &H : S.Holes) {
            if (Guard && &H == &S.Holes.back())
              Pools.push_back(*Guard);
            else
              Pools.push_back(H.RightOnly ? makePool(*ER, H.Ty, SizeR)
                                          : makePool(*ELR, H.Ty, SizeLR));
          }
          unsigned MaxHoleSize = std::max(SizeLR, SizeR);
          if (Guard)
            MaxHoleSize = std::max(MaxHoleSize, Guard->MinSize);
          if (ExprRef F = runSketchSearch(Compiled, std::move(Pools),
                                          MaxHoleSize, ProductBudget,
                                          Result.Stats, DL)
                              .Component)
            return stamp(F);
          if (DL.expired())
            break;
        }
        return stamp(nullptr);
      };

      Component = searchSketch(compileSketch(Eq), "plain");

      // A sweep that saw the deadline expire ends the equation: no later
      // stage starts (the correction and guard sketches, the free
      // grammar's growth).
      if (!Component && Eq.Ty == Type::Int && !DL.expired()) {
        // Additive-correction sketch: v_l + v_r + ite(??LR, ??R, ??R).
        // Counters over concatenations are almost-additive with a boundary
        // correction (count-1's block merge at the seam); this variant
        // reaches those joins with a three-hole search.
        Sketch Corr;
        Corr.Holes.push_back({"?c0", Type::Bool, /*RightOnly=*/false});
        Corr.Holes.push_back({"?c1", Type::Int, /*RightOnly=*/true});
        Corr.Holes.push_back({"?c2", Type::Int, /*RightOnly=*/true});
        Corr.Body =
            add(add(inputVar(splitName(Eq.Name, Side::Left), Type::Int),
                    inputVar(splitName(Eq.Name, Side::Right), Type::Int)),
                ite(inputVar("?c0", Type::Bool), inputVar("?c1", Type::Int),
                    inputVar("?c2", Type::Int)));
        Component = searchSketch(Corr, "correction");
        Stage = "correction";
      }

      // Free-grammar search: the expected output vector indexes straight
      // into the enumerator's observational classes. Look it up in the pool
      // as the sketches left it; grow the pool only once the empty-guard
      // sketch (when allowed), whose holes stay within the sketch tiers,
      // has failed too.
      const Candidate *Free = nullptr;
      // Fault point: reject a free-grammar match (PARSYNT_FAULT=synth.reject).
      auto acceptFree = [&] {
        if (Free && !FaultInjector::fires("synth.reject")) {
          Component = ELR->expr(*Free);
          Stage = "free";
          EqSpan.attr("free_size", uint64_t(Free->Size));
        }
      };
      if (!Component) {
        Free = ELR->findMatching(Eq.Ty, Target);
        acceptFree();
      }

      if (!Component && Options.AllowEmptyGuard && !DL.expired()) {
        // The empty-guard sketch: C(E) wrapped in an "empty right chunk"
        // guard — ite(<right state at init>, v_l, C(E)) — the homomorphism
        // base case fE(x • []) = fE(x) made syntactic. Joins that must
        // special-case an empty divide (e.g. line-sight's visibility flag,
        // is-sorted's boundary test) live here. The guard hole draws from a
        // dedicated tiny pool: "w_r == <literal init>" for every state
        // variable with a literal initial value.
        std::vector<Candidate> GuardPool;
        std::vector<std::vector<int64_t>> GuardColumns;
        for (const Equation &W : L.Equations) {
          if (!isa<IntConstExpr>(W.Init) && !isa<BoolConstExpr>(W.Init))
            continue;
          Candidate Guard;
          Guard.LeafExpr =
              eq(inputVar(splitName(W.Name, Side::Right), W.Ty), W.Init);
          Guard.Size = Guard.LeafExpr->size();
          GuardColumns.push_back(Oracle.column(Guard.LeafExpr));
          Guard.Values = GuardColumns.back().data();
          GuardPool.push_back(std::move(Guard));
        }
        if (!GuardPool.empty()) {
          HolePool Guard;
          Guard.BySize.resize(4);
          Guard.MinSize = 3; // eq(var, const) has term size 3
          for (const Candidate &C : GuardPool)
            Guard.BySize[3].push_back(&C);
          Sketch Guarded = compileSketch(Eq);
          std::string GuardName =
              "?g" + std::to_string(Guarded.Holes.size());
          Guarded.Holes.push_back({GuardName, Type::Bool,
                                   /*RightOnly=*/true});
          Guarded.Body =
              ite(inputVar(GuardName, Type::Bool),
                  inputVar(splitName(Eq.Name, Side::Left), Eq.Ty),
                  Guarded.Body);
          Component = searchSketch(Guarded, "guard", &Guard);
          Stage = "guard";
        }
      }

      if (!Component && !Free && !DL.expired()) {
        // The free grammar's growth: a level at a time up to the fallback
        // bound, looking again after each. A column is kept once, so the
        // first match is the match of the pool grown to the bound (and a
        // match refused above would be found again: growth is skipped).
        // The last level is no operand of any other and is looked up once:
        // a scan decides it first, and a miss, which proves that the level
        // holds no match, leaves it unbuilt.
        auto lastLevelHas = [&] {
          const uint64_t Scanned = ELR->scanned();
          auto Start = std::chrono::steady_clock::now();
          const bool Hit = ELR->nextLevelHas(Eq.Ty, Target);
          Result.Stats.EnumerateNanos += nanosSince(Start);
          Result.Stats.ScannedCombinations += ELR->scanned() - Scanned;
          EqSpan.attr("free_scan", Hit ? "hit" : "miss");
          return Hit;
        };
        for (unsigned Size = ELR->builtSize() + 1;
             !Free && Size <= FreeMaxSize &&
             (Size < FreeMaxSize || lastLevelHas());
             ++Size) {
          grow(*ELR, Size);
          Free = ELR->findMatching(Eq.Ty, Target);
        }
        acceptFree();
      }

      if (!Component) {
        EqSpan.attr("solved", false);
        AllSolved = false;
        if (DL.expired()) {
          Result.Failure = {FailureKind::Timeout,
                            "join synthesis deadline expired while solving "
                            "state variable '" +
                                Eq.Name + "'"};
        } else {
          Result.Failure = {FailureKind::NotHomomorphic,
                            "no join component found for state variable '" +
                                Eq.Name + "'"};
        }
        break;
      }
      Result.Components[I] = Component;
      EqSpan.attr("stage", Stage);
    }

    if (!AllSolved) {
      stampRound(false);
      Result.Success = false;
      break;
    }

    // CEGIS validation: the Section-7 proof of the assembled join. The
    // proof does not poll the deadline, so a completed proof is a verdict.
    auto ValidateStart = std::chrono::steady_clock::now();
    ProofReport Proof = checkHomomorphismProof(L, Result.Components);
    Result.Stats.OracleNanos += nanosSince(ValidateStart);
    stampRound(true);
    RoundSpan.attr("counterexample", !Proof.Verified);
    if (Proof.Verified) {
      Result.Success = true;
      Result.Proof = std::move(Proof);
      Result.Failure.clear();
      break;
    }
    const ProofFailure &Refutation = *Proof.Failure;
    RoundSpan.attr("obligation", Refutation.Obligation);
    if (Round == CegisRounds) {
      Result.Success = false;
      std::ostringstream OS;
      OS << "CEGIS budget exhausted after " << CegisRounds
         << " rounds: the join component for state variable '"
         << Refutation.StateVar << "' still fails the "
         << Refutation.Obligation << " obligation ("
         << Result.Stats.SketchAssignmentsTried
         << " sketch assignments tried, budget " << ProductBudget
         << " per search, " << Oracle.tests().size() << " tests)";
      Result.Failure = {FailureKind::BudgetExhausted, OS.str()};
      break;
    }
    Oracle.addCounterexample(Refutation.Split);
  }

  Result.Stats.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    StartTime)
          .count();

  Root.attr("success", Result.Success);
  Root.attr("rounds", uint64_t(Result.Stats.CegisIterations));
  Root.attr("assignments", Result.Stats.SketchAssignmentsTried);
  Root.attr("seeds_accepted", uint64_t(Result.Stats.SeedsAccepted));

  // Metrics are flushed once per call (accumulated in Stats during the
  // search), keeping the hot search loops free of shared-counter traffic.
  MetricsRegistry &M = MetricsRegistry::global();
  M.counter("synth.calls").inc();
  // CegisIterations is zero-based (0 = solved on the first round); the
  // counter records rounds actually executed, none for a refuted call.
  if (Result.Stats.Refuted)
    M.counter("synth.refuted").inc();
  else
    M.counter("synth.cegis.rounds").add(Result.Stats.CegisIterations + 1);
  M.counter("synth.sketch.assignments")
      .add(Result.Stats.SketchAssignmentsTried);
  M.counter("synth.sketch.evaluated").add(Result.Stats.SketchEvaluated);
  M.counter("synth.sketch.lane_runs").add(Result.Stats.SketchLaneRuns);
  M.counter("synth.sketch.lanes").add(Result.Stats.SketchLanes);
  M.counter("synth.candidates.enumerated")
      .add(Result.Stats.EnumeratedCandidates);
  M.counter("synth.seeds.accepted").add(Result.Stats.SeedsAccepted);
  // The search's split: phase wall times, and the work in enumeration
  // levels and sketch sweeps large enough to run on the task pool.
  M.counter("synth.join.enumerate_ns").add(Result.Stats.EnumerateNanos);
  M.counter("synth.join.sketch_ns").add(Result.Stats.SketchNanos);
  M.counter("synth.join.oracle_ns").add(Result.Stats.OracleNanos);
  M.counter("synth.enum.merge_ns").add(Result.Stats.MergeNanos);
  M.counter("synth.enum.combinations")
      .add(Result.Stats.EnumeratedCombinations);
  M.counter("synth.enum.combinations_parallel")
      .add(Result.Stats.ParallelCombinations);
  M.counter("synth.enum.scanned").add(Result.Stats.ScannedCombinations);
  M.counter("synth.sketch.assignments_parallel")
      .add(Result.Stats.ParallelAssignments);
  M.histogram("synth.join.millis")
      .observe(static_cast<uint64_t>(Result.Stats.Seconds * 1e3));
  return Result;
}

std::string parsynt::joinToString(const Loop &L,
                                  const std::vector<ExprRef> &Components) {
  std::ostringstream OS;
  for (size_t I = 0; I != Components.size(); ++I) {
    OS << L.Equations[I].Name << " = "
       << (Components[I] ? exprToString(Components[I]) : "<unsolved>")
       << "\n";
  }
  return OS.str();
}
