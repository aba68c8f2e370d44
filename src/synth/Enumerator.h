//===- synth/Enumerator.h - Bottom-up expression enumeration ----*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Typed bottom-up enumeration of the Figure-4 expression grammar with
/// observational-equivalence pruning: two candidate expressions that agree
/// on every test are interchangeable for the bounded synthesis oracle, so
/// only the smaller is kept. Candidates are produced in order of
/// term size, which realizes the paper's "expression depth d is gradually
/// increased until a solution is found" as iterative deepening on size.
///
/// A pool grows on demand: growTo(N) builds the size levels the pool lacks
/// up to N, and nothing beyond it. A level's operands are all smaller, and
/// the per-type cap fills in level order, so the candidates of size <= k
/// are the same, in the same order, whether the pool stops at k or grows on;
/// a caller may grow a pool in any steps and read it between them. A
/// caller that needs a level only to look one column up can ask first
/// whether the level has it (nextLevelHas), without building it.
///
/// A candidate is its column, its term size and a recipe (a leaf's
/// expression, or a shape and operator over operand candidates); the
/// expression is built only when a caller asks for it (Enumerator::expr),
/// so a pool of tens of thousands of candidates holds no expression nodes.
///
/// The enumerator fills two roles, both in join synthesis: the per-hole
/// candidate pools of the sketch search, and the free-grammar fallback of
/// Section 6.3. Lifting does not enumerate: it derives each accumulator's
/// update by folding its normalized unfoldings back (lift/Lift.h).
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_SYNTH_ENUMERATOR_H
#define PARSYNT_SYNTH_ENUMERATOR_H

#include "ir/Expr.h"
#include "support/Deadline.h"

#include <array>
#include <atomic>
#include <memory>
#include <vector>

namespace parsynt {

/// An enumerated expression: its evaluation on every test, as raw payloads
/// (bools as 0/1; the pool a candidate lives in fixes its type), its term
/// size, and the recipe Enumerator::expr builds the expression from. The
/// column lives in the enumerator's slabs and never moves.
struct Candidate {
  enum Shape : uint8_t { Leaf, Neg, Not, IntPair, BoolPair, IntIte, BoolIte };
  const int64_t *Values = nullptr;
  unsigned Size = 0;
  Shape Kind = Leaf;
  /// Pairs: the operator.
  BinaryOp Op = BinaryOp::Add;
  /// Candidate indices of the operands in their pools: the operand of a
  /// negation (int) or a not (bool); a pair's left and right operand (int
  /// or bool, as its shape says); a conditional's condition (bool) and
  /// branches (the shape's type).
  uint32_t Operands[3] = {0, 0, 0};
  /// Leaves: the expression.
  ExprRef LeafExpr;
};

/// Knobs bounding the enumeration.
struct EnumeratorOptions {
  /// Cap on retained candidates per type (observational classes).
  size_t MaxPerType = 20000;
  /// Cooperative cancellation: growTo() stops early (keeping what was
  /// built) once this expires. Unarmed by default.
  Deadline Timeout;
};

/// Bottom-up enumerator over a fixed number of tests. The enumerator
/// evaluates nothing itself: each leaf comes with its values on the tests
/// (for joins, HomOracle::column over the oracle's rows), and combinations
/// are computed from their operands' values.
///
/// Large size levels run in parallel on the shared task pool (see
/// runtime/SharedPool.h) with a result identical to the sequential order:
/// chunks of the level's combinations are evaluated and filtered
/// concurrently against the pool as it stood at the start of their wave,
/// keeping their survivors' columns, and the calling thread merges the
/// survivors in sequential order with one probe and one copy each.
class Enumerator {
public:
  explicit Enumerator(size_t NumTests, EnumeratorOptions Options = {});
  Enumerator(Enumerator &&);
  Enumerator &operator=(Enumerator &&);
  ~Enumerator();

  /// Registers leaf \p E (variable or constant; any expression works) with
  /// its raw value on every test. Leaves count with their real term size.
  void addLeaf(const ExprRef &E, const std::vector<int64_t> &Values);

  /// Builds the candidates of every size up to \p MaxSize not built yet.
  /// Already-built sizes are kept, and so are their columns, at the same
  /// addresses. Stops early when Options.Timeout expires: the pool stays
  /// usable with whatever sizes were completed.
  void growTo(unsigned MaxSize);
  /// The largest term size whose level is complete (1: the leaves only).
  unsigned builtSize() const { return BuiltSize; }

  /// True when the next size level has a combination of type \p Ty whose
  /// column is the raw \p Target, decided without building the level: its
  /// combinations are walked in growTo's order and those of type \p Ty
  /// compared with \p Target a test at a time, storing nothing. Every
  /// candidate the level could keep is such a combination, so false proves
  /// that findMatching would miss after growTo(builtSize() + 1). False too
  /// when the type's pool is full (the level could add it nothing) or when
  /// Options.Timeout has expired or expires during the scan; true does not
  /// promise a match (the cap may drop it).
  bool nextLevelHas(Type Ty, const std::vector<int64_t> &Target);

  const std::vector<Candidate> &candidates(Type Ty) const {
    return pool(Ty).Cands;
  }

  /// Candidates of the given type with term size <= MaxSize, in size order.
  std::vector<const Candidate *> candidatesUpTo(Type Ty,
                                                unsigned MaxSize) const;

  /// Finds a candidate observationally equal to the raw \p Target values
  /// (type \p Ty), or null.
  const Candidate *findMatching(Type Ty,
                                const std::vector<int64_t> &Target) const;

  /// The expression of \p C, a candidate of this enumerator, built from its
  /// recipe. Interns nodes: call it on the calling thread only.
  ExprRef expr(const Candidate &C) const;

  size_t numTests() const { return NumTests; }
  size_t totalCandidates() const {
    return IntPool.Cands.size() + BoolPool.Cands.size();
  }

  /// Combinations of the size levels built so far, and the share of them
  /// in levels large enough to be split over the task pool. Both depend
  /// only on the leaves and options, never on the schedule.
  uint64_t combinations() const { return Combinations; }
  uint64_t parallelCombinations() const { return ParallelCombinations; }
  /// Wall time the calling thread spent merging survivors into the pools.
  uint64_t mergeNanos() const { return MergeNanos; }
  /// Combinations nextLevelHas walked; schedule-independent too.
  uint64_t scanned() const { return Scanned; }

private:
  struct Block;
  struct Level;
  struct ChunkSlot;

  /// One typed pool: the candidates, their value signatures, their columns
  /// in slabs (filled in order, never moved), an open-addressing index over
  /// the signatures for deduplication, and the candidates bucketed by term
  /// size.
  ///
  /// Chunks of a wave call find() while the calling thread add()s the
  /// previous wave's survivors. That is safe once reserve() has made room
  /// for every insertion: no candidate or column then moves, and a
  /// candidate becomes visible through its index slot only after it and
  /// its column are complete.
  struct Pool {
    Pool(size_t NumTests, size_t SlabColumns)
        : NumTests(NumTests), SlabColumns(SlabColumns) {}

    size_t NumTests, SlabColumns;
    std::vector<Candidate> Cands;
    std::vector<uint64_t> Sigs;
    /// SlabColumns columns each, filled in candidate order.
    std::vector<std::unique_ptr<int64_t[]>> Slabs;
    /// Candidate index + 1 per slot (0: empty); a power-of-two size kept at
    /// most half full.
    std::unique_ptr<std::atomic<uint32_t>[]> Index;
    size_t IndexSize = 0;
    std::vector<std::vector<size_t>> BySize;

    /// The candidate with signature \p Sig and exactly the column \p
    /// Values, or null. On a miss, \p Slot is the free slot that ends the
    /// probe.
    const Candidate *find(uint64_t Sig, const int64_t *Values,
                          size_t &Slot) const;
    /// Appends \p C, which find() missed at \p Slot, with a copy of the
    /// column \p Values.
    void add(Candidate C, const int64_t *Values, uint64_t Sig, size_t Slot);
    /// Makes room for \p Extra more candidates without moving any.
    void reserve(size_t Extra);
    /// Rebuilds the index with \p Size slots.
    void rehash(size_t Size);
  };

  /// A combination's position inside its block: operand positions (and,
  /// for pairs, the operator), last digit fastest.
  using Digits = std::array<uint64_t, 3>;
  /// Lays out the combinations of size \p Size in sequential order.
  Level planLevel(unsigned Size);
  /// True when the combination cannot change the pool: its type was full
  /// when the wave began, or it mirrors an earlier commutative one.
  bool skipped(const Level &L, const Block &B, const Digits &D) const;
  /// Calls \p Apply(F, Columns...) with the combination's elementwise
  /// operation F and its operand columns; returns its type.
  template <typename ApplyFn>
  Type dispatch(const Block &B, const Digits &D, ApplyFn Apply) const;
  /// Evaluates a combination into \p Out; returns its type and, in \p Sig,
  /// the signature of its column.
  Type evaluate(const Block &B, const Digits &D, int64_t *Out,
                uint64_t &Sig) const;
  /// Evaluates combinations [Begin, End) of \p L, keeping in \p Slot those
  /// neither in the pool nor repeated earlier in the chunk, with their
  /// columns. Runs on any thread; reads the pools only.
  void runChunk(const Level &L, uint64_t Begin, uint64_t End,
                ChunkSlot &Slot) const;
  /// Keeps the column \p Values (signature \p Sig) as a new type-\p Ty
  /// candidate unless an observational twin exists or the pool is full.
  /// The recipe is made by \p Make only for a kept candidate.
  template <typename MakeRecipe>
  void insert(Type Ty, const int64_t *Values, uint64_t Sig,
              MakeRecipe Make);
  bool full(Type Ty) const {
    return candidates(Ty).size() >= Options.MaxPerType;
  }
  Pool &pool(Type Ty) { return Ty == Type::Int ? IntPool : BoolPool; }
  const Pool &pool(Type Ty) const {
    return Ty == Type::Int ? IntPool : BoolPool;
  }

  EnumeratorOptions Options;
  size_t NumTests;
  /// Columns per slab of a pool, and per chunk's survivor buffer.
  size_t SlabColumns, KeptColumns;
  Pool IntPool, BoolPool;
  /// The chunks' buffers, two waves' worth, kept across growTo() calls: the
  /// chunks of one wave fill one set while the calling thread merges the
  /// previous wave's survivors from the other.
  std::vector<ChunkSlot> Slots;
  /// Largest size already built; the leaves are size 1.
  unsigned BuiltSize = 1;
  uint64_t Combinations = 0;
  uint64_t ParallelCombinations = 0;
  uint64_t MergeNanos = 0;
  uint64_t Scanned = 0;
};

} // namespace parsynt

#endif // PARSYNT_SYNTH_ENUMERATOR_H
