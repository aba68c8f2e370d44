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
#include "runtime/SharedPool.h"
#include "support/FaultInjector.h"
#include "synth/Enumerator.h"
#include "synth/Sketch.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <numeric>
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
/// Cap on sketch hole assignments evaluated per equation per tier.
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

/// Per-hole candidate pools grouped by term size for exact-weight search.
struct HolePool {
  std::vector<std::vector<const Candidate *>> BySize; // index = size
  unsigned MinSize = 0;
  /// The enumerator whose candidates these are; null for a pool of leaves.
  const Enumerator *Source = nullptr;
};

HolePool makePool(const Enumerator &E, Type Ty, unsigned MaxSize) {
  HolePool Pool;
  Pool.Source = &E;
  Pool.BySize.resize(MaxSize + 1);
  for (const Candidate *C : E.candidatesUpTo(Ty, MaxSize))
    Pool.BySize[C->Size].push_back(C);
  for (unsigned S = 1; S <= MaxSize; ++S) {
    if (!Pool.BySize[S].empty()) {
      Pool.MinSize = S;
      break;
    }
  }
  return Pool;
}

/// Sketch assignments per chunk of a parallel weight sweep.
constexpr uint64_t ChunkAssignments = 4096;
/// Sweeps with fewer assignments (after the budget cap) run as one chunk on
/// the calling thread.
constexpr uint64_t InlineAssignments = 16384;
constexpr uint64_t NoIndex = UINT64_MAX;

uint64_t saturatingAdd(uint64_t A, uint64_t B) {
  return A > NoIndex - B ? NoIndex : A + B;
}
uint64_t saturatingMul(uint64_t A, uint64_t B) {
  uint64_t R = 0;
  return __builtin_mul_overflow(A, B, &R) ? NoIndex : R;
}

uint64_t nanosSince(std::chrono::steady_clock::time_point Start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

/// A sketch compiled once for all its tiers against the oracle's tests. Per
/// hole k, a program over holes 0..k and the other inputs: for the last
/// hole the body, for the others the prefix condition of
/// prefixConditions() when it can refute a prefix the previous one passed
/// (DESIGN.md §5h, "Prefix refutation"). Every program reads one input
/// layout: the holes, the body's other variables, then the target (which
/// the body does not read), whose columns over the tests are built here.
struct CompiledSketch {
  CompiledSketch(const Sketch &S, const HomOracle &Oracle,
                 size_t EquationIndex)
      : S(S), NumTests(Oracle.tests().size()) {
    // C(E) makes every leaf a hole, so a sketch has at least one.
    assert(!S.Holes.empty() && "a sketch without holes");
    const std::string TargetName = "?t";
    std::vector<ExprRef> Conditions =
        prefixConditions(S, inputVar(TargetName, S.Body->type()));
    std::vector<std::string> Names;
    for (const Hole &H : S.Holes)
      Names.push_back(H.Name);
    Checks.resize(S.Holes.size());
    Checks.back().emplace(std::vector<ExprRef>{S.Body}, Names);
    Names.push_back(TargetName);
    for (size_t K = 0; K + 1 < S.Holes.size(); ++K)
      if (Conditions[K] != boolConst(true) &&
          (K == 0 || Conditions[K] != Conditions[K - 1]))
        Checks[K].emplace(std::vector<ExprRef>{Conditions[K]}, Names);
    for (size_t I = S.Holes.size(); I != Names.size(); ++I) {
      std::vector<int64_t> &Column = Columns.emplace_back();
      if (Names[I] == TargetName) {
        for (const JoinExample &Example : Oracle.tests())
          Column.push_back(Example.Expected[EquationIndex].raw());
        continue;
      }
      const unsigned Slot = Oracle.layout().slot(Names[I]);
      for (size_t T = 0; T != NumTests; ++T)
        Column.push_back(Oracle.testRow(T)[Slot]);
    }
  }

  const Sketch &S;
  size_t NumTests;
  /// Per hole: its program, or none when the prefix up to it needs no check
  /// of its own.
  std::vector<std::optional<CompiledExpr>> Checks;
  /// The columns of the inputs after the holes.
  std::vector<std::vector<int64_t>> Columns;
};

/// Exact-total-weight product search over the sketch's holes with early-exit
/// evaluation against the expected outputs. Hole registers read the
/// assigned candidate's cached value column, every other input a column of
/// the compiled sketch, so checking an assignment does no lookups and no
/// allocation and stops at the first failing test. A prefix of holes that
/// its check refutes skips every assignment under it in one step.
///
/// Each weight is one sweep over the assignments in a fixed sequential
/// order. Counting the assignments under each first-hole candidate gives
/// every assignment its sequential index, so a large sweep is cut into
/// index ranges that tasks on the shared pool claim in increasing order. The
/// winner is the passing assignment with the smallest index, the budget caps
/// the index, and the calling thread polls the synth.reject fault point once
/// per winner, so the join and every counter equal the sequential search's.
class SketchSearch {
public:
  SketchSearch(const CompiledSketch &P, std::vector<HolePool> Pools,
               uint64_t Budget, JoinStats &Stats, Deadline DL)
      : P(P), Pools(std::move(Pools)), Budget(Budget), Stats(Stats), DL(DL),
        NumTests(P.NumTests), NumHoles(P.S.Holes.size()),
        NumInputs(NumHoles + P.Columns.size()),
        Target(P.Columns.back().data()) {
    for (const std::optional<CompiledExpr> &Check : P.Checks)
      Programs.push_back(Check ? &*Check : nullptr);
    Slots.resize(1);
    initSlot(Slots[0]);
  }

  /// Runs the search; returns the filled-in join component, or null.
  ExprRef run(unsigned MaxHoleSize) {
    auto Start = std::chrono::steady_clock::now();
    ExprRef Found = search(MaxHoleSize);
    Stats.SketchAssignmentsTried += Tried;
    Stats.SketchEvaluated += Evaluated;
    Stats.SketchNanos += nanosSince(Start);
    return Found;
  }

private:
  /// One task's evaluation state. Slot 0 belongs to the calling thread;
  /// the others are made for the first parallel sweep. Slots, and the
  /// buffers every assignment writes, sit on cache lines of their own.
  struct alignas(64) TaskSlot {
    /// Per hole with a check: its program's registers.
    std::vector<std::vector<int64_t>> Regs;
    /// The order every check reads the tests in: most recently failing
    /// first.
    std::vector<size_t> Order;
    /// Per input register: its value column over the tests.
    std::vector<const int64_t *> Columns;
    std::vector<const Candidate *> Assignment;
    /// The task's first passing assignment and its sweep index.
    std::vector<const Candidate *> Winner;
    uint64_t WinnerIndex = NoIndex;
    /// In the current round: the assignments whose body the task ran, and
    /// those of its chunks under the prefixes it refuted.
    uint64_t Evaluated = 0, Skipped = 0;
    uint64_t Polls = 0;
  };

  /// A first-hole candidate of the current sweep and the sweep index of the
  /// first assignment under it.
  struct FirstHole {
    const Candidate *C;
    unsigned Size;
    uint64_t Start;
  };

  /// What the tasks of one round of a sweep share. Chunks tile the indices
  /// [Resume, Limit): indices below Resume were decided by an earlier round
  /// of the sweep, and indices from Limit on are past the budget or the
  /// sweep.
  struct Round {
    unsigned Weight;
    uint64_t Resume, Limit, ChunkLen;
    /// The next chunk to claim.
    std::atomic<uint64_t> Next{0};
    /// The smallest passing index any task has found so far.
    std::atomic<uint64_t> Best{NoIndex};
  };

  ExprRef search(unsigned MaxHoleSize) {
    unsigned MinTotal = 0;
    for (const HolePool &Pool : Pools) {
      if (Pool.MinSize == 0)
        return nullptr; // some hole has an empty pool
      MinTotal += Pool.MinSize;
    }
    unsigned MaxTotal = static_cast<unsigned>(NumHoles) * MaxHoleSize;
    countLeaves(MaxTotal);
    ExprRef Found;
    for (unsigned W = MinTotal; W <= MaxTotal && !Found &&
                                !Expired.load(std::memory_order_relaxed) &&
                                Tried < Budget;
         ++W)
      Found = sweep(W);
    return Found;
  }

  void initSlot(TaskSlot &Slot) const {
    // Spare capacity keeps each task's registers and test orders off the
    // cache lines of the next task's.
    Slot.Regs.resize(NumHoles);
    for (size_t K = 0; K != NumHoles; ++K) {
      if (!Programs[K])
        continue;
      Slot.Regs[K] = Programs[K]->makeRegisters();
      Slot.Regs[K].reserve(Slot.Regs[K].size() + 8);
    }
    Slot.Order.reserve(NumTests + 8);
    Slot.Order.resize(NumTests);
    std::iota(Slot.Order.begin(), Slot.Order.end(), size_t(0));
    Slot.Columns.assign(NumHoles, nullptr);
    for (const std::vector<int64_t> &Column : P.Columns)
      Slot.Columns.push_back(Column.data());
    Slot.Assignment.assign(NumHoles, nullptr);
    Slot.Winner.assign(NumHoles, nullptr);
  }

  /// The sizes hole \p H may take when it and the holes after it weigh
  /// \p Remaining in total (empty when Min > Max).
  std::pair<unsigned, unsigned> sizeRange(size_t H, unsigned Remaining) const {
    const bool Last = H + 1 == NumHoles;
    unsigned Max = Last ? Remaining
                        : (Remaining > MinRest[H] ? Remaining - MinRest[H] : 0);
    Max = std::min<unsigned>(Max, Pools[H].BySize.size() - 1);
    unsigned Min = Last ? std::max(Pools[H].MinSize, Remaining)
                        : Pools[H].MinSize;
    return {Min, Max};
  }

  /// Leaves[H][R]: the number of assignments of holes H.. weighing R,
  /// saturated (indices past the budget are never evaluated).
  void countLeaves(unsigned MaxTotal) {
    MinRest.assign(NumHoles, 0);
    for (size_t H = NumHoles - 1; H-- > 0;)
      MinRest[H] = MinRest[H + 1] + Pools[H + 1].MinSize;
    Leaves.assign(NumHoles + 1, std::vector<uint64_t>(MaxTotal + 1, 0));
    Leaves[NumHoles][0] = 1;
    for (size_t H = NumHoles; H-- > 0;) {
      for (unsigned R = 0; R <= MaxTotal; ++R) {
        auto [Min, Max] = sizeRange(H, R);
        uint64_t N = 0;
        for (unsigned Size = Min; Size <= Max && Size <= R; ++Size)
          N = saturatingAdd(N, saturatingMul(Pools[H].BySize[Size].size(),
                                             Leaves[H + 1][R - Size]));
        Leaves[H][R] = N;
      }
    }
  }

  /// Runs the check of hole \p K over holes 0..K as assigned in \p Slot on
  /// at most \p Tests tests: the body (Body: K is the last hole) must give
  /// the target on each, a prefix condition must hold on each.
  template <bool Body>
  bool holds(TaskSlot &Slot, size_t K, uint64_t Tests) const {
    const CompiledExpr &Check = *Programs[K];
    int64_t *Regs = Slot.Regs[K].data();
    size_t *Order = Slot.Order.data();
    const int64_t *const *Columns = Slot.Columns.data();
    const int64_t *Target = this->Target;
    // The body reads every input but the target, a prefix condition the
    // holes up to K and every input after the holes. (Locals: the register
    // stores could alias the members.)
    const size_t First = Body ? NumInputs - 1 : K + 1;
    const size_t Rest = Body ? First : NumHoles, End = Body ? First : NumInputs;
    Tests = std::min<uint64_t>(Tests, NumTests);
    for (size_t J = 0; J != Tests; ++J) {
      const size_t T = Order[J];
      for (size_t I = 0; I != First; ++I)
        Regs[I] = Columns[I][T];
      for (size_t I = Rest; I != End; ++I)
        Regs[I] = Columns[I][T];
      const int64_t Value = Check.run(Regs);
      if (Body ? Value != Target[T] : Value == 0) {
        // A test that refutes one assignment (or prefix) tends to refute its
        // neighbours too: move it to the front.
        std::rotate(Order, Order + J, Order + J + 1);
        return false;
      }
    }
    return true;
  }

  /// Counts one step (a body run or a prefix check) toward the deadline,
  /// polled once per ~256 steps. Returns true once the search has expired;
  /// expiry is latched for every task.
  bool expired(TaskSlot &Slot) {
    if ((++Slot.Polls & 255u) == 0 && DL.expired())
      Expired.store(true, std::memory_order_relaxed);
    return Expired.load(std::memory_order_relaxed);
  }

  /// True when the check of hole \p H refutes the prefix in \p Slot, whose
  /// assignments hold the indices [Index, Next); those of them in the chunk
  /// [From, To) count as skipped. The check reads at most Next - Index
  /// tests: those assignments' bodies would read at least that many, so a
  /// check never costs more than it can save, and a prefix with one
  /// assignment is not checked at all. An expired search refutes nothing,
  /// so the descent reaches visit(), which stops it.
  bool refuted(TaskSlot &Slot, size_t H, uint64_t Index, uint64_t Next,
               uint64_t From, uint64_t To) {
    if (!Programs[H] || Next - Index < 2 || expired(Slot) ||
        holds<false>(Slot, H, Next - Index))
      return false;
    Slot.Skipped += std::min(Next, To) - std::max(Index, From);
    return true;
  }

  /// Visits the assignments of holes H.. weighing \p Remaining whose indices
  /// lie in [From, To), in sequential order; \p Index is the index of the
  /// first assignment under this call. Returns true when the task is done
  /// with the chunk: a pass was found, the bound was reached, or the search
  /// timed out.
  bool descend(TaskSlot &Slot, Round &Rd, size_t H, unsigned Remaining,
               uint64_t &Index, uint64_t From, uint64_t To) {
    auto [Min, Max] = sizeRange(H, Remaining);
    const bool Last = H + 1 == NumHoles;
    for (unsigned Size = Min; Size <= Max; ++Size) {
      const uint64_t Under = Last ? 1 : Leaves[H + 1][Remaining - Size];
      if (Under == 0)
        continue;
      for (const Candidate *C : Pools[H].BySize[Size]) {
        if (Index >= std::min(To, Rd.Best.load(std::memory_order_relaxed)))
          return true;
        uint64_t Next = saturatingAdd(Index, Under);
        if (Next <= From) {
          Index = Next; // before the chunk
          continue;
        }
        Slot.Assignment[H] = C;
        Slot.Columns[H] = C->Values;
        if (Last ? visit(Slot, Rd, Index)
                 : !refuted(Slot, H, Index, Next, From, To) &&
                       descend(Slot, Rd, H + 1, Remaining - Size, Index,
                               From, To))
          return true;
        Index = Next;
      }
    }
    return false;
  }

  /// Checks the complete assignment in \p Slot, which has index \p Index.
  /// Returns true when the task is done: it passed, or the search timed out.
  bool visit(TaskSlot &Slot, Round &Rd, uint64_t Index) {
    if (expired(Slot))
      return true;
    ++Slot.Evaluated;
    if (!holds<true>(Slot, NumHoles - 1, NumTests))
      return false;
    Slot.Winner = Slot.Assignment;
    Slot.WinnerIndex = Index;
    uint64_t Best = Rd.Best.load(std::memory_order_relaxed);
    while (Index < Best && !Rd.Best.compare_exchange_weak(
                               Best, Index, std::memory_order_relaxed))
      ;
    return true;
  }

  /// Claims chunks in increasing order until they start past the round's
  /// bound or the task finds a pass (no later chunk can beat it).
  void work(TaskSlot &Slot, Round &Rd) {
    while (true) {
      uint64_t From = saturatingAdd(
          Rd.Resume, saturatingMul(Rd.Next.fetch_add(1), Rd.ChunkLen));
      if (From >= std::min(Rd.Limit, Rd.Best.load(std::memory_order_relaxed)) ||
          Expired.load(std::memory_order_relaxed))
        return;
      uint64_t To = std::min(Rd.Limit, saturatingAdd(From, Rd.ChunkLen));
      // The first-hole candidate holding index From.
      size_t F = std::upper_bound(Firsts.begin(), Firsts.end(), From,
                                  [](uint64_t Key, const FirstHole &First) {
                                    return Key < First.Start;
                                  }) -
                 Firsts.begin() - 1;
      for (; F != Firsts.size(); ++F) {
        const FirstHole &First = Firsts[F];
        uint64_t Index = First.Start;
        if (Index >= std::min(To, Rd.Best.load(std::memory_order_relaxed)))
          break;
        const uint64_t Next =
            F + 1 == Firsts.size() ? Rd.Limit : Firsts[F + 1].Start;
        Slot.Assignment[0] = First.C;
        Slot.Columns[0] = First.C->Values;
        // With one hole, the first-hole candidates are the assignments.
        bool Done =
            NumHoles == 1
                ? Index >= From && visit(Slot, Rd, Index)
                : !refuted(Slot, 0, Index, Next, From, To) &&
                      descend(Slot, Rd, 1, Rd.Weight - First.Size, Index,
                              From, To);
        if (Slot.WinnerIndex != NoIndex)
          return;
        if (Done)
          break;
      }
    }
  }

  /// The first passing assignment of weight \p W (in sequential order) that
  /// the synth.reject fault point lets through, or null.
  ExprRef sweep(unsigned W) {
    Firsts.clear();
    uint64_t Total = 0;
    auto [Min, Max] = sizeRange(0, W);
    for (unsigned Size = Min; Size <= Max; ++Size) {
      uint64_t Under = NumHoles == 1 ? 1 : Leaves[1][W - Size];
      if (Under == 0)
        continue;
      for (const Candidate *C : Pools[0].BySize[Size]) {
        Firsts.push_back({C, Size, Total});
        Total = saturatingAdd(Total, Under);
      }
    }
    Round Rd;
    Rd.Weight = W;
    Rd.Resume = 0;
    Rd.Limit = std::min(Total, Budget - Tried);
    const bool Parallel = Rd.Limit >= InlineAssignments;
    Rd.ChunkLen = Parallel ? ChunkAssignments : std::max<uint64_t>(Rd.Limit, 1);
    uint64_t Decided = 0;
    while (true) {
      const TaskSlot *Winner = runRound(Rd, Parallel, Decided);
      if (Expired.load(std::memory_order_relaxed)) {
        Tried += Decided;
        return nullptr;
      }
      if (!Winner) {
        Tried += Rd.Limit;
        if (Parallel)
          Stats.ParallelAssignments += Rd.Limit;
        return nullptr;
      }
      const uint64_t Index = Winner->WinnerIndex;
      // Fault point: force rejection of an otherwise-accepted candidate to
      // exercise the search's failure tail (PARSYNT_FAULT=synth.reject).
      if (FaultInjector::fires("synth.reject")) {
        Rd.Resume = Index + 1;
        continue;
      }
      Tried += Index + 1;
      if (Parallel)
        Stats.ParallelAssignments += Index + 1;
      return materialize(Winner->Winner);
    }
  }

  /// Runs one round of a sweep: on the calling thread, or as one task per
  /// pool thread. Returns the slot holding the smallest-index pass, or null.
  /// Adds the bodies the round ran to Evaluated, and the indices its tasks
  /// decided (ran or skipped) to \p Decided.
  const TaskSlot *runRound(Round &Rd, bool Parallel, uint64_t &Decided) {
    Rd.Next.store(0, std::memory_order_relaxed);
    Rd.Best.store(NoIndex, std::memory_order_relaxed);
    size_t NumTasks = 1;
    if (Parallel) {
      TaskPool &Workers = sharedTaskPool();
      NumTasks = Workers.threadCount();
      while (Slots.size() < NumTasks)
        initSlot(Slots.emplace_back());
      for (size_t T = 0; T != NumTasks; ++T) {
        Slots[T].WinnerIndex = NoIndex;
        Slots[T].Evaluated = Slots[T].Skipped = 0;
      }
      TaskGroup Group;
      for (size_t T = 0; T != NumTasks; ++T) {
        TaskSlot *Slot = &Slots[T];
        Workers.spawn(Group, [this, Slot, &Rd] { work(*Slot, Rd); });
      }
      Workers.wait(Group);
    } else {
      Slots[0].WinnerIndex = NoIndex;
      Slots[0].Evaluated = Slots[0].Skipped = 0;
      work(Slots[0], Rd);
    }
    const TaskSlot *Winner = nullptr;
    for (size_t T = 0; T != NumTasks; ++T) {
      // Including any bodies a task ran past the winner.
      Evaluated += Slots[T].Evaluated;
      Decided += Slots[T].Evaluated + Slots[T].Skipped;
      if (Slots[T].WinnerIndex != NoIndex &&
          (!Winner || Slots[T].WinnerIndex < Winner->WinnerIndex))
        Winner = &Slots[T];
    }
    return Winner;
  }

  ExprRef materialize(const std::vector<const Candidate *> &Assignment) const {
    Substitution Subst;
    for (size_t H = 0; H != P.S.Holes.size(); ++H) {
      const Enumerator *Source = Pools[H].Source;
      Subst[P.S.Holes[H].Name] =
          Source ? Source->expr(*Assignment[H]) : Assignment[H]->LeafExpr;
    }
    return simplify(substitute(P.S.Body, Subst));
  }

  const CompiledSketch &P;
  std::vector<HolePool> Pools;
  uint64_t Budget;
  JoinStats &Stats;
  Deadline DL;
  size_t NumTests, NumHoles, NumInputs;
  /// The target column, and per hole its program or null.
  const int64_t *Target;
  std::vector<const CompiledExpr *> Programs;
  /// Assignments counted by this search, and the bodies it ran; Budget
  /// bounds each search independently, while Stats accumulates across
  /// searches.
  uint64_t Tried = 0;
  uint64_t Evaluated = 0;
  std::atomic<bool> Expired{false};
  /// Per hole: the least total weight of the holes after it.
  std::vector<unsigned> MinRest;
  std::vector<std::vector<uint64_t>> Leaves;
  std::vector<FirstHole> Firsts;
  std::vector<TaskSlot> Slots;
};

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
        auto stamp = [&](ExprRef Found) {
          SearchSpan.attr("solved", Found != nullptr);
          SearchSpan.attr("assignments", Result.Stats.SketchAssignmentsTried -
                                             AssignmentsBase);
          SearchSpan.attr("evaluated",
                          Result.Stats.SketchEvaluated - EvaluatedBase);
          return Found;
        };
        const CompiledSketch Compiled(S, Oracle, I);
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
          SketchSearch Search(Compiled, std::move(Pools), ProductBudget,
                              Result.Stats, DL);
          if (ExprRef F = Search.run(MaxHoleSize))
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
      std::vector<int64_t> Target;
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
        Target.reserve(Oracle.tests().size());
        for (const JoinExample &Example : Oracle.tests())
          Target.push_back(Example.Expected[I].raw());
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
