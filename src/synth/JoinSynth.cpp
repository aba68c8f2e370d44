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

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <numeric>
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
/// Cap on sketch hole assignments evaluated per equation per tier.
constexpr uint64_t ProductBudget = 2000000;
/// Maximum CEGIS iterations (counterexample rounds).
constexpr unsigned CegisRounds = 10;
/// Random rounds of the final validation.
constexpr unsigned VerifyRounds = 400;

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

/// Per-hole candidate pools grouped by term size for exact-weight search.
struct HolePool {
  std::vector<std::vector<const Candidate *>> BySize; // index = size
  unsigned MinSize = 0;
};

HolePool makePool(const Enumerator &E, Type Ty, unsigned MaxSize) {
  HolePool Pool;
  Pool.BySize.resize(MaxSize + 1);
  for (const Candidate *C : E.candidatesUpTo(Ty, MaxSize))
    Pool.BySize[C->E->size()].push_back(C);
  for (unsigned S = 1; S <= MaxSize; ++S) {
    if (!Pool.BySize[S].empty()) {
      Pool.MinSize = S;
      break;
    }
  }
  return Pool;
}

/// Exact-total-weight product search over the sketch's holes with early-exit
/// evaluation against the expected outputs. The sketch body is compiled once
/// per search: hole registers read the assigned candidate's cached value
/// column, every other variable a column built here from the oracle's
/// test rows, so checking an assignment does no lookups and no
/// allocation and stops at the first failing test.
class SketchSearch {
public:
  SketchSearch(const Sketch &S, std::vector<HolePool> Pools,
               const HomOracle &Oracle, size_t EquationIndex,
               uint64_t Budget, uint64_t &TotalTried, Deadline DL)
      : S(S), Pools(std::move(Pools)), Budget(Budget),
        TotalTried(TotalTried), DL(DL),
        NumTests(Oracle.tests().size()) {
    // Inputs: the holes first, then the body's other variables.
    std::vector<std::string> Names;
    for (const Hole &H : S.Holes)
      Names.push_back(H.Name);
    Body = CompiledExpr({S.Body}, Names);
    Regs = Body.makeRegisters();
    Columns.assign(Names.size(), nullptr);
    VarColumns.resize(Names.size() - S.Holes.size());
    for (size_t V = 0; V != VarColumns.size(); ++V) {
      unsigned Slot = Oracle.layout().slot(Names[S.Holes.size() + V]);
      for (size_t T = 0; T != NumTests; ++T)
        VarColumns[V].push_back(Oracle.testRow(T)[Slot]);
      Columns[S.Holes.size() + V] = VarColumns[V].data();
    }
    for (const JoinExample &Example : Oracle.tests())
      Expected.push_back(Example.Expected[EquationIndex].raw());
    Order.resize(NumTests);
    std::iota(Order.begin(), Order.end(), size_t(0));
    Assignment.resize(S.Holes.size(), nullptr);
  }

  /// Runs the search; returns the filled-in join component, or null.
  ExprRef run(unsigned MaxHoleSize) {
    size_t NumHoles = S.Holes.size();
    if (NumHoles == 0) {
      // Constant sketch (degenerate); just check the body.
      return checkCurrent() ? S.Body : nullptr;
    }
    unsigned MinTotal = 0;
    for (const HolePool &P : Pools) {
      if (P.MinSize == 0)
        return nullptr; // some hole has an empty pool
      MinTotal += P.MinSize;
    }
    unsigned MaxTotal = static_cast<unsigned>(NumHoles) * MaxHoleSize;
    ExprRef Found;
    for (unsigned W = MinTotal;
         W <= MaxTotal && !Found && !Expired && Tried < Budget; ++W)
      Found = assign(0, W);
    TotalTried += Tried;
    return Found;
  }

private:
  /// Deadline poll amortized over ~256 calls. Expiry is latched, so every
  /// frame of the search unwinds; it reads as "not found" and the caller
  /// classifies via expired().
  bool timedOut() {
    if (!Expired && (++Polls & 255u) == 0 && DL.expired())
      Expired = true;
    return Expired;
  }

  ExprRef assign(size_t HoleIdx, unsigned Remaining) {
    if (Tried >= Budget || timedOut())
      return nullptr;
    const HolePool &Pool = Pools[HoleIdx];
    bool Last = HoleIdx + 1 == Pools.size();
    unsigned MinRest = 0;
    for (size_t I = HoleIdx + 1; I < Pools.size(); ++I)
      MinRest += Pools[I].MinSize;
    unsigned MaxSizeHere =
        Last ? Remaining : (Remaining > MinRest ? Remaining - MinRest : 0);
    for (unsigned Size = Pool.MinSize;
         Size <= MaxSizeHere && Size < Pool.BySize.size(); ++Size) {
      if (Last && Size != Remaining)
        continue;
      for (const Candidate *C : Pool.BySize[Size]) {
        Assignment[HoleIdx] = C;
        Columns[HoleIdx] = C->Values.data();
        if (Last) {
          ++Tried;
          if (checkCurrent())
            return materialize();
          if (Tried >= Budget || timedOut())
            return nullptr;
        } else {
          if (ExprRef Found = assign(HoleIdx + 1, Remaining - Size))
            return Found;
          if (Expired)
            return nullptr;
        }
      }
    }
    return nullptr;
  }

  bool checkCurrent() {
    const size_t NumInputs = Columns.size();
    for (size_t K = 0; K != NumTests; ++K) {
      const size_t T = Order[K];
      for (size_t I = 0; I != NumInputs; ++I)
        Regs[I] = Columns[I][T];
      if (Body.run(Regs.data()) != Expected[T]) {
        // A test that refutes one assignment tends to refute its neighbours
        // too: move it to the front. Acceptance needs every test to pass, so
        // the order changes only how soon a miss is found.
        std::rotate(Order.begin(), Order.begin() + K, Order.begin() + K + 1);
        return false;
      }
    }
    // Fault point: force rejection of an otherwise-accepted candidate to
    // exercise the search's failure tail (PARSYNT_FAULT=synth.reject).
    return !FaultInjector::fires("synth.reject");
  }

  ExprRef materialize() const {
    Substitution Subst;
    for (size_t H = 0; H != S.Holes.size(); ++H)
      Subst[S.Holes[H].Name] = Assignment[H]->E;
    return simplify(substitute(S.Body, Subst));
  }

  const Sketch &S;
  std::vector<HolePool> Pools;
  uint64_t Budget;
  uint64_t &TotalTried;
  Deadline DL;
  size_t NumTests;
  /// Per-search counter; Budget bounds each search independently, while
  /// TotalTried accumulates across searches for the statistics.
  uint64_t Tried = 0;
  uint64_t Polls = 0;
  bool Expired = false;
  CompiledExpr Body;
  std::vector<int64_t> Regs;
  /// Per input register: its value column over the tests.
  std::vector<const int64_t *> Columns;
  std::vector<std::vector<int64_t>> VarColumns;
  /// The equation's expected output per test.
  std::vector<int64_t> Expected;
  /// The order tests are checked in: most recently failing first.
  std::vector<size_t> Order;
  std::vector<const Candidate *> Assignment;
};

} // namespace

JoinResult parsynt::synthesizeJoin(const Loop &L,
                                   const JoinSynthOptions &Options) {
  auto StartTime = std::chrono::steady_clock::now();
  JoinResult Result;
  Result.Components.resize(L.Equations.size());
  Result.FromFallback.assign(L.Equations.size(), false);

  Span Root("synthesizeJoin", trace::Synth);
  Root.attr("loop", L.Name.empty() ? "<loop>" : L.Name);
  Root.attr("equations", uint64_t(L.Equations.size()));

  // One deadline governs the oracle, the enumerators, and every search
  // below; an unarmed one reproduces the un-deadlined search exactly.
  const Deadline DL = Options.Timeout;
  HomOracle Oracle(L, DL);
  std::vector<int64_t> Constants = joinConstants(L);

  for (unsigned Round = 0; Round <= CegisRounds; ++Round) {
    Result.Stats.CegisIterations = Round;
    Result.Stats.TestsUsed = static_cast<unsigned>(Oracle.tests().size());

    // One span per CEGIS round; assignment/candidate attributes are deltas
    // for this round, the counterexample attribute is stamped after
    // validation.
    Span RoundSpan("cegisRound", trace::Synth);
    RoundSpan.attr("round", uint64_t(Round));
    RoundSpan.attr("tests", uint64_t(Oracle.tests().size()));
    uint64_t RoundAssignmentsBase = Result.Stats.SketchAssignmentsTried;
    uint64_t RoundCandidatesBase = Result.Stats.EnumeratedCandidates;
    auto stampRound = [&](bool Solved) {
      RoundSpan.attr("solved", Solved);
      RoundSpan.attr("assignments", Result.Stats.SketchAssignmentsTried -
                                        RoundAssignmentsBase);
      RoundSpan.attr("candidates", Result.Stats.EnumeratedCandidates -
                                       RoundCandidatesBase);
    };

    // Left-right and right-only candidate pools. Equations restricted by
    // the dependence guidance draw from a pool over only their closure's
    // split values; unrestricted equations share the full pool. Pools are
    // initially sized for the sketch tiers and grown lazily to FreeMaxSize
    // only if some equation needs the free-grammar fallback.
    unsigned MaxLR = 1;
    unsigned MaxR = 1;
    for (const auto &[SizeLR, SizeR] : SketchTiers) {
      MaxLR = std::max(MaxLR, SizeLR);
      MaxR = std::max(MaxR, SizeR);
    }
    if (!Options.UseSketch)
      MaxLR = std::max(MaxLR, FreeMaxSize);
    MetricsRegistry::global().gauge("synth.sketch.max_lr").set(MaxLR);
    MetricsRegistry::global().gauge("synth.sketch.max_r").set(MaxR);

    struct PoolGroup {
      Enumerator ELR;
      Enumerator ER;
      PoolGroup(size_t NumTests, unsigned MaxLR, unsigned MaxR,
                const Deadline &DL)
          : ELR(NumTests, [&] {
              EnumeratorOptions O;
              O.MaxSize = MaxLR;
              O.Timeout = DL;
              return O;
            }()),
            ER(NumTests, [&] {
              EnumeratorOptions O;
              O.MaxSize = MaxR;
              O.Timeout = DL;
              return O;
            }()) {}
    };
    // Allowed-set signature -> pool pair; "*" is the unrestricted group.
    std::map<std::string, std::unique_ptr<PoolGroup>> Groups;
    auto getGroup = [&](const std::set<std::string> *Allowed) -> PoolGroup & {
      std::string Key = "*";
      if (Allowed) {
        Key.clear();
        for (const std::string &Name : *Allowed)
          Key += Name + ",";
      }
      auto It = Groups.find(Key);
      if (It != Groups.end())
        return *It->second;
      auto G = std::make_unique<PoolGroup>(Oracle.tests().size(), MaxLR, MaxR,
                                           DL);
      // Leaves take their values from the oracle's test rows; ??R holes
      // draw from every leaf but the left split values.
      auto leaf = [&](const ExprRef &E, bool RightToo) {
        std::vector<int64_t> Values = Oracle.column(E);
        G->ELR.addLeaf(E, Values);
        if (RightToo)
          G->ER.addLeaf(E, Values);
      };
      for (const Equation &Eq : L.Equations) {
        if (Allowed && !Allowed->count(Eq.Name))
          continue;
        leaf(inputVar(splitName(Eq.Name, Side::Left), Eq.Ty), false);
        leaf(inputVar(splitName(Eq.Name, Side::Right), Eq.Ty), true);
      }
      for (const ParamDecl &P : L.Params)
        leaf(inputVar(P.Name, P.Ty), true);
      for (int64_t C : Constants)
        leaf(intConst(C), true);
      leaf(boolConst(true), true);
      leaf(boolConst(false), true);
      G->ELR.run();
      G->ER.run();
      Result.Stats.EnumeratedCandidates +=
          G->ELR.totalCandidates() + G->ER.totalCandidates();
      return *Groups.emplace(Key, std::move(G)).first->second;
    };

    // Solve each equation modularly, SCC-by-SCC in dependence order when
    // guidance provides one.
    bool AllSolved = true;
    for (size_t Pos = 0; Pos != L.Equations.size(); ++Pos) {
      size_t I = Pos < Options.Guidance.Order.size()
                     ? Options.Guidance.Order[Pos]
                     : Pos;
      const Equation &Eq = L.Equations[I];
      ExprRef Component;
      bool Fallback = false;

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
      // seed without searching if it matches every current test. (CEGIS
      // still validates the assembled join on fresh inputs, so a wrong
      // seed costs one round and then falls back to the search.)
      auto SeedIt = Options.Guidance.Seeds.find(Eq.Name);
      if (SeedIt != Options.Guidance.Seeds.end() && SeedIt->second) {
        bool Matches = !Oracle.firstFailure(SeedIt->second, I);
        // Fault point: refuse a matching seed so the equation exercises the
        // full search path (PARSYNT_FAULT=synth.reject).
        if (Matches && !FaultInjector::fires("synth.reject")) {
          Component = SeedIt->second;
          ++Result.Stats.SeedsAccepted;
          Result.Components[I] = Component;
          Result.FromFallback[I] = false;
          EqSpan.attr("seeded", true);
          continue;
        }
      }

      // Only pre-search a restricted pool when the restriction genuinely
      // shrinks the space (at most half the variables): a near-full
      // "restriction" costs almost a full failed search before the
      // unrestricted retry, which is pure waste on the hard equations.
      const std::set<std::string> *Allowed = nullptr;
      auto AllowIt = Options.Guidance.AllowedVars.find(Eq.Name);
      if (AllowIt != Options.Guidance.AllowedVars.end() &&
          AllowIt->second.size() * 2 <= L.Equations.size())
        Allowed = &AllowIt->second;

      auto solveWith = [&](PoolGroup &G, bool Restricted) -> ExprRef {
        Fallback = false;
        Enumerator &ELR = G.ELR;
        Enumerator &ER = G.ER;
        ExprRef Found;

        auto searchSketch = [&](const Sketch &S) -> ExprRef {
          for (const auto &[SizeLR, SizeR] : SketchTiers) {
            std::vector<HolePool> Pools;
            Pools.reserve(S.Holes.size());
            for (const Hole &H : S.Holes)
              Pools.push_back(H.RightOnly ? makePool(ER, H.Ty, SizeR)
                                          : makePool(ELR, H.Ty, SizeLR));
            SketchSearch Search(S, std::move(Pools), Oracle, I,
                                ProductBudget,
                                Result.Stats.SketchAssignmentsTried, DL);
            if (ExprRef F = Search.run(std::max(SizeLR, SizeR)))
              return F;
            if (DL.expired())
              return nullptr;
          }
          return nullptr;
        };

        if (Options.UseSketch)
          Found = searchSketch(compileSketch(Eq));

        if (!Found && Options.UseSketch && Eq.Ty == Type::Int) {
          // Additive-correction sketch: v_l + v_r + ite(??LR, ??R, ??R).
          // Counters over concatenations are almost-additive with a
          // boundary correction (count-1's block merge at the seam); this
          // variant reaches those joins with a three-hole search.
          Sketch Corr;
          Corr.Holes.push_back({"?c0", Type::Bool, /*RightOnly=*/false});
          Corr.Holes.push_back({"?c1", Type::Int, /*RightOnly=*/true});
          Corr.Holes.push_back({"?c2", Type::Int, /*RightOnly=*/true});
          Corr.Body = add(add(inputVar(splitName(Eq.Name, Side::Left),
                                       Type::Int),
                              inputVar(splitName(Eq.Name, Side::Right),
                                       Type::Int)),
                          ite(inputVar("?c0", Type::Bool),
                              inputVar("?c1", Type::Int),
                              inputVar("?c2", Type::Int)));
          Found = searchSketch(Corr);
        }

        // The free-grammar fallback only runs unrestricted: growing and
        // sweeping a pool to FreeMaxSize is the expensive tail of a failed
        // search, and paying it twice (restricted, then again on the
        // unrestricted retry) would double the cost of exactly the hard
        // cases. The dependence restriction pays off in the sketch phase,
        // where smaller hole pools shrink the assignment product.
        if (!Found && Options.AllowFallback && !Restricted) {
          // Free-grammar search: the expected output vector indexes
          // straight into the enumerator's observational classes. Grow the
          // pool to the fallback bound on first use.
          if (ELR.options().MaxSize < FreeMaxSize) {
            size_t Before = ELR.totalCandidates();
            ELR.options().MaxSize = FreeMaxSize;
            ELR.run();
            Result.Stats.EnumeratedCandidates +=
                ELR.totalCandidates() - Before;
          }
          std::vector<int64_t> Target;
          Target.reserve(Oracle.tests().size());
          for (const JoinExample &Example : Oracle.tests())
            Target.push_back(Example.Expected[I].raw());
          if (const Candidate *C = ELR.findMatching(Eq.Ty, Target)) {
            // Fault point: reject the free-grammar match
            // (PARSYNT_FAULT=synth.reject).
            if (!FaultInjector::fires("synth.reject")) {
              Found = C->E;
              Fallback = true;
            }
          }
        }
        return Found;
      };

      if (Allowed)
        Component = solveWith(getGroup(Allowed), /*Restricted=*/true);
      if (!Component) {
        // The dependence restriction is a heuristic; never let it change
        // what is synthesizable. Retry over the full variable set.
        if (Allowed) {
          ++Result.Stats.RestrictionRetries;
          EqSpan.attr("restriction_retry", true);
        }
        Component = solveWith(getGroup(nullptr), /*Restricted=*/false);
      }

      if (!Component && Options.UseSketch && Options.AllowEmptyGuard) {
        Enumerator &ELR = getGroup(nullptr).ELR;
        Enumerator &ER = getGroup(nullptr).ER;
        // Last resort: C(E) wrapped in an "empty right chunk" guard —
        // ite(<right state at init>, v_l, C(E)) — the homomorphism base
        // case fE(x • []) = fE(x) made syntactic. Joins that must
        // special-case an empty divide (e.g. line-sight's visibility flag,
        // is-sorted's boundary test) live here. The guard hole draws from a
        // dedicated tiny pool: "w_r == <literal init>" for every state
        // variable with a literal initial value.
        std::vector<Candidate> GuardPool;
        for (const Equation &W : L.Equations) {
          if (!isa<IntConstExpr>(W.Init) && !isa<BoolConstExpr>(W.Init))
            continue;
          ExprRef Guard =
              eq(inputVar(splitName(W.Name, Side::Right), W.Ty), W.Init);
          GuardPool.push_back({Guard, Oracle.column(Guard)});
        }
        if (!GuardPool.empty()) {
          Sketch Guarded = compileSketch(Eq);
          std::string GuardName =
              "?g" + std::to_string(Guarded.Holes.size());
          size_t GuardIndex = Guarded.Holes.size();
          Guarded.Holes.push_back({GuardName, Type::Bool,
                                   /*RightOnly=*/true});
          Guarded.Body =
              ite(inputVar(GuardName, Type::Bool),
                  inputVar(splitName(Eq.Name, Side::Left), Eq.Ty),
                  Guarded.Body);
          for (const auto &[SizeLR, SizeR] : SketchTiers) {
            std::vector<HolePool> Pools;
            Pools.reserve(Guarded.Holes.size());
            for (size_t H = 0; H != Guarded.Holes.size(); ++H) {
              if (H == GuardIndex) {
                HolePool Pool;
                Pool.BySize.resize(4);
                Pool.MinSize = 3; // eq(var, const) has term size 3
                for (const Candidate &C : GuardPool)
                  Pool.BySize[3].push_back(&C);
                Pools.push_back(std::move(Pool));
                continue;
              }
              const Hole &Ho = Guarded.Holes[H];
              Pools.push_back(Ho.RightOnly ? makePool(ER, Ho.Ty, SizeR)
                                           : makePool(ELR, Ho.Ty, SizeLR));
            }
            SketchSearch Search(Guarded, std::move(Pools), Oracle, I,
                                ProductBudget,
                                Result.Stats.SketchAssignmentsTried, DL);
            Component = Search.run(std::max({SizeLR, SizeR, 3u}));
            if (Component || DL.expired())
              break;
          }
        }
      }

      if (!Component) {
        EqSpan.attr("solved", false);
        AllSolved = false;
        if (DL.expired()) {
          // FailedEquation stays empty: a timed-out equation is not
          // evidence of an unjoinable auxiliary, so the pipeline must not
          // drop it.
          Result.Failure = {FailureKind::Timeout,
                            "join synthesis deadline expired while solving "
                            "state variable '" +
                                Eq.Name + "'"};
        } else {
          Result.Failure = {FailureKind::NotHomomorphic,
                            "no join component found for state variable '" +
                                Eq.Name + "'"};
          Result.FailedEquation = Eq.Name;
        }
        break;
      }
      Result.Components[I] = Component;
      Result.FromFallback[I] = Fallback;
      EqSpan.attr("fallback", Fallback);
    }

    if (!AllSolved) {
      stampRound(false);
      Result.Success = false;
      break;
    }

    // CEGIS validation on fresh inputs.
    auto Cex = Oracle.findCounterexample(Result.Components, VerifyRounds);
    stampRound(true);
    RoundSpan.attr("counterexample", Cex.has_value());
    if (!Cex) {
      // Soundness: a timed-out validation also reports "no counterexample
      // found" — never promote that to Success.
      if (DL.expired()) {
        Result.Success = false;
        Result.Failure = {FailureKind::Timeout,
                          "join synthesis deadline expired during CEGIS "
                          "validation of the assembled join"};
        break;
      }
      Result.Success = true;
      Result.Failure.clear();
      break;
    }
    if (Round == CegisRounds) {
      Result.Success = false;
      // Name the still-disagreeing equation: evaluate each component on the
      // final counterexample, like the per-variable failure path does.
      std::string Culprit;
      StateTuple Joined = CompiledJoin(Oracle.layout(), Result.Components)
                              .apply(Cex->Left, Cex->Right, Cex->Params);
      for (size_t I = 0; I != Result.Components.size(); ++I) {
        if (Joined[I] != Cex->Expected[I]) {
          Culprit = L.Equations[I].Name;
          break;
        }
      }
      std::ostringstream OS;
      OS << "CEGIS budget exhausted after " << CegisRounds
         << " rounds";
      if (!Culprit.empty())
        OS << ": the join component for state variable '" << Culprit
           << "' still disagrees with a fresh counterexample";
      OS << " (" << Result.Stats.SketchAssignmentsTried
         << " sketch assignments tried, budget " << ProductBudget
         << " per search, " << Oracle.tests().size() << " tests)";
      Result.Failure = {FailureKind::BudgetExhausted, OS.str()};
      break;
    }
    Oracle.addTest(std::move(*Cex));
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
  // counter records rounds actually executed.
  M.counter("synth.cegis.rounds").add(Result.Stats.CegisIterations + 1);
  M.counter("synth.sketch.assignments")
      .add(Result.Stats.SketchAssignmentsTried);
  M.counter("synth.candidates.enumerated")
      .add(Result.Stats.EnumeratedCandidates);
  M.counter("synth.seeds.accepted").add(Result.Stats.SeedsAccepted);
  M.counter("synth.restriction.retries")
      .add(Result.Stats.RestrictionRetries);
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
