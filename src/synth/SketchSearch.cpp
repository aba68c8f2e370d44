//===- synth/SketchSearch.cpp - Sketch sweeps in lanes --------------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "synth/SketchSearch.h"
#include "ir/ExprOps.h"
#include "normalize/Simplify.h"
#include "runtime/SharedPool.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <numeric>

using namespace parsynt;

namespace {

/// Sketch assignments per chunk of a parallel weight sweep.
constexpr uint64_t ChunkAssignments = 4096;
/// Sweeps with fewer assignments (after the budget cap) run as one chunk on
/// the calling thread.
constexpr uint64_t InlineAssignments = 16384;
/// Candidates of one hole checked together, one lane each.
constexpr size_t LaneWidth = 64;
constexpr uint64_t NoIndex = UINT64_MAX;

uint64_t saturatingAdd(uint64_t A, uint64_t B) {
  return A > NoIndex - B ? NoIndex : A + B;
}
uint64_t saturatingMul(uint64_t A, uint64_t B) {
  uint64_t R = 0;
  return __builtin_mul_overflow(A, B, &R) ? NoIndex : R;
}

/// \p E with each of its largest subterms that do not read \p Hole (bar
/// constants) replaced by the input "?s<j>", j its place in \p Hoisted.
ExprRef splitOff(const ExprRef &E, const std::string &Hole,
                 std::vector<ExprRef> &Hoisted) {
  if (!containsVar(E, Hole)) {
    if (isa<IntConstExpr>(E) || isa<BoolConstExpr>(E))
      return E;
    // Interned: an equal subterm is the same node.
    size_t J = std::find(Hoisted.begin(), Hoisted.end(), E) - Hoisted.begin();
    if (J == Hoisted.size())
      Hoisted.push_back(E);
    return inputVar("?s" + std::to_string(J), E->type());
  }
  switch (E->kind()) {
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    return UnaryExpr::get(U->op(), splitOff(U->operand(), Hole, Hoisted));
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    ExprRef Lhs = splitOff(B->lhs(), Hole, Hoisted);
    ExprRef Rhs = splitOff(B->rhs(), Hole, Hoisted);
    return BinaryExpr::get(B->op(), std::move(Lhs), std::move(Rhs));
  }
  case ExprKind::Ite: {
    const auto *I = cast<IteExpr>(E);
    ExprRef Cond = splitOff(I->cond(), Hole, Hoisted);
    ExprRef Then = splitOff(I->thenExpr(), Hole, Hoisted);
    ExprRef Else = splitOff(I->elseExpr(), Hole, Hoisted);
    return IteExpr::get(std::move(Cond), std::move(Then), std::move(Else));
  }
  default: // the hole itself
    return E;
  }
}

uint64_t nanosSince(std::chrono::steady_clock::time_point Start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

} // namespace

HolePool parsynt::makePool(const Enumerator &E, Type Ty, unsigned MaxSize) {
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

CompiledSketch::Check::Check(const ExprRef &E, const std::string &Hole,
                             const std::vector<std::string> &Names, bool Body)
    : Body(Body) {
  std::vector<ExprRef> Subterms;
  ExprRef Rest = splitOff(E, Hole, Subterms);
  std::vector<std::string> Inputs = Names;
  Hoisted = CompiledExpr(Subterms, Inputs);
  assert(Inputs.size() == Names.size() && "a check reads an unknown input");
  NumHoisted = Subterms.size();
  Inputs = {Hole};
  for (size_t J = 0; J != NumHoisted; ++J)
    Inputs.push_back("?s" + std::to_string(J));
  Lane = CompiledExpr({Rest}, Inputs);
}

CompiledSketch::CompiledSketch(const Sketch &S, size_t NumTests,
                               const ColumnFn &Column,
                               std::vector<int64_t> Target)
    : S(S), NumTests(NumTests) {
  // C(E) makes every leaf a hole, so a sketch has at least one.
  assert(!S.Holes.empty() && "a sketch without holes");
  const std::string TargetName = "?t";
  std::vector<ExprRef> Conditions =
      prefixConditions(S, inputVar(TargetName, S.Body->type()));
  // The input layout: the holes, the body's other variables, the target.
  std::vector<std::string> Names;
  for (const Hole &H : S.Holes)
    Names.push_back(H.Name);
  forEachNode(S.Body, [&](const ExprRef &Node) {
    if (!isa<VarExpr>(Node) && !isa<SeqAccessExpr>(Node))
      return;
    std::string Name = CompiledExpr::inputName(*Node);
    if (std::find(Names.begin(), Names.end(), Name) == Names.end())
      Names.push_back(std::move(Name));
  });
  Names.push_back(TargetName);
  const size_t NumHoles = S.Holes.size();
  Checks.resize(NumHoles);
  Checks.back().emplace(S.Body, S.Holes.back().Name, Names, /*Body=*/true);
  for (size_t K = 0; K + 1 < NumHoles; ++K)
    if (Conditions[K] != boolConst(true) &&
        (K == 0 || Conditions[K] != Conditions[K - 1]))
      Checks[K].emplace(Conditions[K], S.Holes[K].Name, Names,
                        /*Body=*/false);
  for (size_t I = NumHoles; I + 1 != Names.size(); ++I)
    Columns.push_back(Column(Names[I]));
  Columns.push_back(std::move(Target));
}

namespace {

/// Exact-total-weight product search over the sketch's holes. Each weight
/// is one sweep over the assignments in a fixed sequential order: hole 0's
/// candidates by size, then in pool order, then hole 1's under each, and so
/// on. Counting the assignments under each candidate gives every
/// assignment its sequential index, so a large sweep is cut into index
/// ranges that tasks on the shared pool claim in increasing order. The
/// winner is the passing assignment with the smallest index, the budget
/// caps the index, and the calling thread polls the synth.reject fault
/// point once per winner, so the join and every counter equal the
/// sequential search's.
///
/// At a hole with a check, up to LaneWidth candidates of one size are
/// checked as the lanes of one runLanes() call per test: a hole's
/// candidates read their cached value columns, and the subterms the prefix
/// fixes are evaluated once per prefix and test. The sweep then walks the
/// block's candidates in index order and descends only into those whose
/// lanes held, so the first pass it reaches is the smallest index.
class SketchSearch {
public:
  SketchSearch(const CompiledSketch &P, std::vector<HolePool> Pools,
               uint64_t Budget, JoinStats &Stats, Deadline DL)
      : P(P), Pools(std::move(Pools)), Budget(Budget), Stats(Stats), DL(DL),
        NumTests(P.NumTests), NumHoles(P.S.Holes.size()),
        Target(P.Columns.back().data()) {
    Slots.resize(1);
    initSlot(Slots[0]);
  }

  SketchMatch run(unsigned MaxHoleSize) {
    auto Start = std::chrono::steady_clock::now();
    SketchMatch Found = search(MaxHoleSize);
    Stats.SketchAssignmentsTried += Tried;
    Stats.SketchEvaluated += Evaluated;
    for (const TaskSlot &Slot : Slots) {
      Stats.SketchLaneRuns += Slot.LaneRuns;
      Stats.SketchLanes += Slot.LanesRun;
    }
    Stats.SketchNanos += nanosSince(Start);
    return Found;
  }

private:
  /// A task slot's state for the check of one hole.
  struct alignas(64) LaneState {
    /// The lane program's registers, one lane per candidate of a block.
    LaneFile File;
    /// The hoisted program's registers, and per test its results under the
    /// current prefix: valid where Stamp holds Generation, which moves on
    /// whenever the prefix does.
    std::vector<int64_t> Regs, Hoisted;
    std::vector<uint64_t> Stamp;
    uint64_t Generation = 0;
    /// The block's candidates whose lanes still hold.
    std::vector<uint32_t> Alive;
  };

  /// One task's evaluation state. Slot 0 belongs to the calling thread;
  /// the others are made for the first parallel sweep. Slots, and the
  /// buffers every block writes, sit on cache lines of their own.
  struct alignas(64) TaskSlot {
    /// Per hole with a check: its lanes.
    std::vector<LaneState> Lanes;
    /// The order every check reads the tests in: most recently failing
    /// first.
    std::vector<size_t> Order;
    /// Per input of the hoisted programs: its value column over the tests.
    std::vector<const int64_t *> Columns;
    std::vector<const Candidate *> Assignment;
    /// The task's first passing assignment and its sweep index.
    std::vector<const Candidate *> Winner;
    uint64_t WinnerIndex = NoIndex;
    /// In the current round: the bodies the task ran (one per lane of a
    /// body block), and the assignments of its chunks under the prefixes
    /// it refuted.
    uint64_t Evaluated = 0, Skipped = 0;
    /// runLanes() calls and the lanes they ran, over the whole search.
    uint64_t LaneRuns = 0, LanesRun = 0;
    uint64_t Polls = 0;
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

  SketchMatch search(unsigned MaxHoleSize) {
    unsigned MinTotal = 0;
    for (const HolePool &Pool : Pools) {
      if (Pool.MinSize == 0)
        return {}; // some hole has an empty pool
      MinTotal += Pool.MinSize;
    }
    unsigned MaxTotal = static_cast<unsigned>(NumHoles) * MaxHoleSize;
    countLeaves(MaxTotal);
    SketchMatch Found;
    for (unsigned W = MinTotal;
         W <= MaxTotal && !Found.Component &&
         !Expired.load(std::memory_order_relaxed) && Tried < Budget;
         ++W)
      Found = sweep(W);
    return Found;
  }

  void initSlot(TaskSlot &Slot) const {
    // Spare capacity keeps each task's buffers off the cache lines of the
    // next task's.
    Slot.Lanes.resize(NumHoles);
    for (size_t K = 0; K != NumHoles; ++K) {
      if (!P.Checks[K])
        continue;
      const CompiledSketch::Check &Check = *P.Checks[K];
      LaneState &L = Slot.Lanes[K];
      L.File = Check.Lane.makeLaneFile(LaneWidth);
      L.File.Data.reserve(L.File.Data.size() + 8);
      L.Regs = Check.Hoisted.makeRegisters();
      L.Regs.reserve(L.Regs.size() + 8);
      L.Hoisted.reserve(NumTests * Check.NumHoisted + 8);
      L.Hoisted.resize(NumTests * Check.NumHoisted);
      L.Stamp.reserve(NumTests + 8);
      L.Stamp.assign(NumTests, 0);
      L.Alive.reserve(LaneWidth + 16);
      L.Alive.resize(LaneWidth);
    }
    Slot.Order.reserve(NumTests + 8);
    Slot.Order.resize(NumTests);
    std::iota(Slot.Order.begin(), Slot.Order.end(), size_t(0));
    Slot.Columns.reserve(NumHoles + P.Columns.size() + 8);
    Slot.Columns.assign(NumHoles, nullptr);
    for (const std::vector<int64_t> &Column : P.Columns)
      Slot.Columns.push_back(Column.data());
    Slot.Assignment.reserve(NumHoles + 8);
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

  /// The results of hole \p H's hoisted subterms on test \p T under the
  /// prefix assigned in \p Slot, evaluated on the first call per prefix.
  const int64_t *hoisted(TaskSlot &Slot, size_t H, size_t T) const {
    const CompiledSketch::Check &Check = *P.Checks[H];
    LaneState &L = Slot.Lanes[H];
    int64_t *Out = L.Hoisted.data() + T * Check.NumHoisted;
    if (Check.NumHoisted == 0 || L.Stamp[T] == L.Generation)
      return Out;
    L.Stamp[T] = L.Generation;
    // The hoisted subterms read the holes before H and every input after
    // the holes. (Locals: the register stores could alias the members.)
    int64_t *Regs = L.Regs.data();
    const int64_t *const *Columns = Slot.Columns.data();
    const size_t NumInputs = Slot.Columns.size();
    for (size_t I = 0; I != H; ++I)
      Regs[I] = Columns[I][T];
    for (size_t I = NumHoles; I != NumInputs; ++I)
      Regs[I] = Columns[I][T];
    Check.Hoisted.run(Regs);
    for (size_t J = 0; J != Check.NumHoisted; ++J)
      Out[J] = Check.Hoisted.result(Regs, J);
    return Out;
  }

  /// Runs the check of hole \p H on \p N candidates from \p Cands under the
  /// prefix in \p Slot, one lane each, on at most \p Tests tests: a body
  /// lane must give the target on each, a prefix condition's must hold on
  /// each. Returns the mask of the lanes that did.
  uint64_t runBlock(TaskSlot &Slot, size_t H, const Candidate *const *Cands,
                    size_t N, uint64_t Tests) const {
    const CompiledSketch::Check &Check = *P.Checks[H];
    LaneState &L = Slot.Lanes[H];
    uint32_t *Alive = L.Alive.data();
    size_t *Order = Slot.Order.data();
    std::iota(Alive, Alive + N, 0u);
    size_t Live = N;
    Tests = std::min<uint64_t>(Tests, NumTests);
    for (size_t J = 0; J != Tests; ++J) {
      const size_t T = Order[J];
      const int64_t *Fixed = hoisted(Slot, H, T);
      int64_t *Row = L.File.row(0);
      for (size_t I = 0; I != Live; ++I)
        Row[I] = Cands[Alive[I]]->Values[T];
      for (size_t K = 0; K != Check.NumHoisted; ++K)
        std::fill_n(L.File.row(K + 1), Live, Fixed[K]);
      Check.Lane.runLanes(L.File, Live);
      ++Slot.LaneRuns;
      Slot.LanesRun += Live;
      const int64_t *Out = Check.Lane.resultLanes(L.File, 0);
      size_t Kept = 0;
      if (Check.Body) {
        const int64_t Want = Target[T];
        for (size_t I = 0; I != Live; ++I) {
          Alive[Kept] = Alive[I];
          Kept += Out[I] == Want;
        }
      } else {
        for (size_t I = 0; I != Live; ++I) {
          Alive[Kept] = Alive[I];
          Kept += Out[I] != 0;
        }
      }
      // A test that refutes a lane tends to refute its neighbours too: move
      // it to the front (the tests before it stay in this block's set).
      if (Kept != Live)
        std::rotate(Order, Order + J, Order + J + 1);
      Live = Kept;
      if (Live == 0)
        return 0;
    }
    uint64_t Mask = 0;
    for (size_t I = 0; I != Live; ++I)
      Mask |= uint64_t(1) << Alive[I];
    return Mask;
  }

  /// Takes up to \p N steps (a body or a prefix check each, in index order)
  /// toward the deadline, which is polled at every 256th step. Returns the
  /// steps taken before the search expired: \p N unless it has, fewer when
  /// one of them saw it expire. Expiry is latched for every task.
  size_t steps(TaskSlot &Slot, size_t N) {
    if (Expired.load(std::memory_order_relaxed))
      return 0;
    const size_t Polling = 256 - (Slot.Polls & 255u); // the step that polls
    Slot.Polls += N;
    if (N < Polling || !DL.expired())
      return N;
    Expired.store(true, std::memory_order_relaxed);
    Slot.Polls -= N - Polling;
    return Polling - 1;
  }

  /// Visits the assignments of holes H.. weighing \p Remaining whose indices
  /// lie in [From, To), in sequential order; \p Index is the index of the
  /// first assignment under this call. Returns true when the task is done
  /// with the chunk: a pass was found, the bound was reached, or the search
  /// timed out.
  ///
  /// A hole's check runs on a block of candidates at once, and the block is
  /// then walked in index order: a run of failed lanes is skipped in one
  /// step, and a lane that held is descended into (or, at the last hole,
  /// wins). Each checked candidate counts as a step, and the bound and the
  /// deadline cut the walk where they cut the one-at-a-time search. A prefix
  /// condition runs only where at least two assignments lie under the
  /// prefix, and reads at most as many tests as there are: those
  /// assignments' bodies would read at least that many, so a check never
  /// costs more than it can save.
  bool descend(TaskSlot &Slot, Round &Rd, size_t H, unsigned Remaining,
               uint64_t Index, uint64_t From, uint64_t To) {
    const bool Last = H + 1 == NumHoles;
    if (P.Checks[H])
      ++Slot.Lanes[H].Generation; // a new prefix
    auto [Min, Max] = sizeRange(H, Remaining);
    for (unsigned Size = Min; Size <= Max; ++Size) {
      const uint64_t Under = Last ? 1 : Leaves[H + 1][Remaining - Size];
      if (Under == 0)
        continue;
      const std::vector<const Candidate *> &Cands = Pools[H].BySize[Size];
      // The number of candidates from Index on that start below \p Bound.
      auto below = [&](uint64_t Bound) -> uint64_t {
        return Index >= Bound ? 0 : (Bound - Index - 1) / Under + 1;
      };
      // Skip the candidates whose assignments all lie before the chunk.
      size_t J = 0;
      if (From > Index) {
        J = std::min<uint64_t>(Cands.size(), (From - Index) / Under);
        Index = saturatingAdd(Index, saturatingMul(J, Under));
      }
      const bool Checked = P.Checks[H] && (Last || Under >= 2);
      while (J != Cands.size()) {
        // The block: the candidates that start below the bound.
        size_t N = std::min<uint64_t>(
            std::min(LaneWidth, Cands.size() - J),
            below(std::min(To, Rd.Best.load(std::memory_order_relaxed))));
        if (N == 0)
          return true;
        uint64_t Pass = ~uint64_t(0);
        if (Checked) {
          Pass = runBlock(Slot, H, &Cands[J], N, Last ? NumTests : Under);
          if (Last)
            Slot.Evaluated += N;
        }
        for (size_t K = 0; K != N;) {
          // The failed lanes up to the next that held, or the block's end.
          const size_t Failed = std::min<size_t>(
              N - K, Pass >> K ? __builtin_ctzll(Pass >> K) : N - K);
          if (Failed) {
            const size_t Cut = std::min<uint64_t>(
                Failed,
                below(std::min(To, Rd.Best.load(std::memory_order_relaxed))));
            const size_t Taken = steps(Slot, Cut);
            const uint64_t Next =
                saturatingAdd(Index, saturatingMul(Taken, Under));
            if (!Last && Taken)
              Slot.Skipped += std::min(Next, To) - std::max(Index, From);
            Index = Next;
            K += Taken;
            J += Taken;
            if (Taken != Failed)
              return true; // past the bound, or expired
            continue;
          }
          if (Index >= std::min(To, Rd.Best.load(std::memory_order_relaxed)))
            return true;
          const Candidate *C = Cands[J];
          Slot.Assignment[H] = C;
          Slot.Columns[H] = C->Values;
          if (Checked && steps(Slot, 1) == 0)
            return true;
          if (Last) {
            win(Slot, Rd, Index);
            return true;
          }
          if (descend(Slot, Rd, H + 1, Remaining - Size, Index, From, To))
            return true;
          Index = saturatingAdd(Index, Under);
          ++K;
          ++J;
        }
      }
    }
    return false;
  }

  /// Records the assignment in \p Slot, which has index \p Index, as the
  /// task's winner.
  void win(TaskSlot &Slot, Round &Rd, uint64_t Index) {
    Slot.Winner = Slot.Assignment;
    Slot.WinnerIndex = Index;
    uint64_t Best = Rd.Best.load(std::memory_order_relaxed);
    while (Index < Best && !Rd.Best.compare_exchange_weak(
                               Best, Index, std::memory_order_relaxed))
      ;
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
      descend(Slot, Rd, 0, Rd.Weight, 0, From, To);
      if (Slot.WinnerIndex != NoIndex)
        return;
    }
  }

  /// The first passing assignment of weight \p W (in sequential order) that
  /// the synth.reject fault point lets through, or none.
  SketchMatch sweep(unsigned W) {
    Round Rd;
    Rd.Weight = W;
    Rd.Resume = 0;
    Rd.Limit = std::min(Leaves[0][W], Budget - Tried);
    const bool Parallel = Rd.Limit >= InlineAssignments;
    Rd.ChunkLen = Parallel ? ChunkAssignments : std::max<uint64_t>(Rd.Limit, 1);
    uint64_t Decided = 0;
    while (true) {
      const TaskSlot *Winner = runRound(Rd, Parallel, Decided);
      if (Expired.load(std::memory_order_relaxed)) {
        Tried += Decided;
        return {};
      }
      if (!Winner) {
        Tried += Rd.Limit;
        if (Parallel)
          Stats.ParallelAssignments += Rd.Limit;
        return {};
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
      return {materialize(Winner->Winner), Winner->Winner};
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
  size_t NumTests, NumHoles;
  /// The target column.
  const int64_t *Target;
  /// Assignments counted by this search, and the bodies it ran; Budget
  /// bounds each search independently, while Stats accumulates across
  /// searches.
  uint64_t Tried = 0;
  uint64_t Evaluated = 0;
  std::atomic<bool> Expired{false};
  /// Per hole: the least total weight of the holes after it.
  std::vector<unsigned> MinRest;
  std::vector<std::vector<uint64_t>> Leaves;
  std::vector<TaskSlot> Slots;
};

} // namespace

SketchMatch parsynt::runSketchSearch(const CompiledSketch &P,
                                     std::vector<HolePool> Pools,
                                     unsigned MaxHoleSize, uint64_t Budget,
                                     JoinStats &Stats, Deadline DL) {
  SketchSearch Search(P, std::move(Pools), Budget, Stats, DL);
  return Search.run(MaxHoleSize);
}
