//===- synth/Enumerator.cpp - Bottom-up expression enumeration ------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Performance note: combined candidates compute their value vectors
// elementwise from their operands' columns, so cost per candidate is
// O(#tests) regardless of term size; leaves arrive with their values. Every
// combination is evaluated and hashed in one pass, with the operator
// resolved outside the per-test loop. Nearly all combinations are
// observational twins; a survivor costs a column copy into its pool's slabs
// and a compact recipe, never an expression node (those are built on demand
// by expr()). Per-size buckets make each term constructible exactly once.
//
// A size level is a fixed sequence of combinations (its operands are all
// smaller, so they do not change while it is built), cut into chunks. Large
// levels run their chunks on the shared task pool in bounded waves, small
// ones inline on the calling thread. A chunk drops what the pool held when
// its wave began and what repeats earlier in the chunk, and keeps its
// survivors' columns in a fixed buffer; the calling thread then merges the
// survivors in sequential order: a full-pool check, a dedup probe and a
// copy each (a survivor beyond its chunk's buffer is evaluated again).
// Chunks shrink where survivors are dense, so that few overflow. Pools,
// columns and recipes come out identical to the sequential order's.
//
//===----------------------------------------------------------------------===//

#include "synth/Enumerator.h"
#include "interp/OpSemantics.h"
#include "runtime/SharedPool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <tuple>

using namespace parsynt;

namespace {

uint64_t mixSig(uint64_t H, int64_t V) {
  return H ^ (static_cast<uint64_t>(V) + 0x9e3779b97f4a7c15ull + (H << 6) +
              (H >> 2));
}

/// Signature of the column Value(0..N-1): four interleaved mixing chains,
/// so the per-element work is not one serial dependency chain.
template <typename ValueAt> uint64_t hashColumn(size_t N, ValueAt Value) {
  uint64_t H0 = 0x9e3779b97f4a7c15ull, H1 = 1, H2 = 2, H3 = 3;
  size_t T = 0;
  for (; T + 4 <= N; T += 4) {
    H0 = mixSig(H0, Value(T));
    H1 = mixSig(H1, Value(T + 1));
    H2 = mixSig(H2, Value(T + 2));
    H3 = mixSig(H3, Value(T + 3));
  }
  for (; T != N; ++T)
    H0 = mixSig(H0, Value(T));
  return mixSig(mixSig(mixSig(H0, H1), H2), H3);
}

/// Fibonacci hashing: the top bits of Sig * 2^64/phi pick the slot.
size_t slotOf(uint64_t Sig, size_t Mask) {
  return static_cast<size_t>((Sig * 0x9e3779b97f4a7c15ull) >> 32) & Mask;
}

bool sameColumn(const int64_t *A, const int64_t *B, size_t N) {
  return std::memcmp(A, B, N * sizeof(int64_t)) == 0;
}

uint64_t signatureOf(const std::vector<int64_t> &Values) {
  return hashColumn(Values.size(), [&](size_t T) { return Values[T]; });
}

Type resultType(BinaryOp Op) { return isArithOp(Op) ? Type::Int : Type::Bool; }

/// Evaluates \p F elementwise over the operand columns into \p Out and
/// returns the signature of the result, hashed in the same pass.
template <typename Fn, typename... Columns>
uint64_t fillColumn(int64_t *Out, size_t N, Fn F,
                    const Columns *...Operands) {
  return hashColumn(N, [&](size_t T) { return Out[T] = F(Operands[T]...); });
}

/// The binary operators combined per operand pair, in evaluation order.
/// Gt/Ge/Ne are the swapped/negated forms of Lt/Le/Eq; the deduplication
/// would drop them anyway, so they are not evaluated.
constexpr BinaryOp IntOps[] = {BinaryOp::Add, BinaryOp::Sub, BinaryOp::Min,
                               BinaryOp::Max, BinaryOp::Mul, BinaryOp::Div,
                               BinaryOp::Lt,  BinaryOp::Le,  BinaryOp::Eq};
constexpr BinaryOp BoolOps[] = {BinaryOp::And, BinaryOp::Or};

bool commutative(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
  case BinaryOp::Min:
  case BinaryOp::Max:
  case BinaryOp::Mul:
  case BinaryOp::Eq:
  case BinaryOp::And:
  case BinaryOp::Or:
    return true;
  default:
    return false;
  }
}

/// Slots of a chunk-local index over \p Entries survivors: a power of two,
/// kept at most half full.
size_t tableSizeFor(uint64_t Entries) {
  size_t Size = 64;
  while (Size < 2 * Entries)
    Size *= 2;
  return Size;
}

/// Combinations per chunk of a size level: at most, and at least.
constexpr uint64_t ChunkCombinations = 512;
constexpr uint64_t MinChunkCombinations = 16;
/// Levels with fewer combinations run their chunks one at a time on the
/// calling thread.
constexpr uint64_t InlineCombinations = 8192;
/// Chunks per wave: bounds the survivor data in flight between the
/// workers' filtering and the caller's in-order merge.
constexpr size_t WaveChunks = 16;
/// Bytes per slab of a pool's columns (at least one column), and per chunk
/// buffer of survivor columns (at least two). Both stay below glibc's
/// default mmap threshold (128 KiB): freed, they go back to the heap whole
/// for the next pools, and they do not raise the threshold.
constexpr size_t SlabBytes = 64 * 1024;
constexpr size_t KeptBytes = 120 * 1024;

} // namespace

Enumerator::Enumerator(size_t NumTests, EnumeratorOptions Options)
    : Options(Options), NumTests(NumTests),
      SlabColumns(std::max<size_t>(1, SlabBytes / (NumTests * 8))),
      KeptColumns(std::max<size_t>(2, KeptBytes / (NumTests * 8)) - 1),
      IntPool(NumTests, SlabColumns), BoolPool(NumTests, SlabColumns) {
  assert(NumTests != 0 && "enumeration needs at least one test");
}

Enumerator::Enumerator(Enumerator &&) = default;
Enumerator &Enumerator::operator=(Enumerator &&) = default;
Enumerator::~Enumerator() = default;

const Candidate *Enumerator::Pool::find(uint64_t Sig, const int64_t *Values,
                                        size_t &Slot) const {
  if (IndexSize == 0)
    return nullptr;
  size_t Mask = IndexSize - 1;
  for (Slot = slotOf(Sig, Mask);; Slot = (Slot + 1) & Mask) {
    uint32_t Entry = Index[Slot].load(std::memory_order_acquire);
    if (!Entry)
      return nullptr;
    const size_t I = Entry - 1;
    if (Sigs[I] == Sig && sameColumn(Cands[I].Values, Values, NumTests))
      return &Cands[I];
  }
}

void Enumerator::Pool::rehash(size_t Size) {
  Index = std::make_unique<std::atomic<uint32_t>[]>(Size);
  IndexSize = Size;
  size_t Mask = Size - 1;
  for (size_t I = 0; I != Cands.size(); ++I) {
    size_t At = slotOf(Sigs[I], Mask);
    while (Index[At].load(std::memory_order_relaxed))
      At = (At + 1) & Mask;
    Index[At].store(static_cast<uint32_t>(I + 1), std::memory_order_relaxed);
  }
}

void Enumerator::Pool::reserve(size_t Extra) {
  size_t Need = Cands.size() + Extra;
  if (Cands.capacity() < Need) {
    size_t Capacity = std::max(Need, 2 * Cands.capacity());
    Cands.reserve(Capacity);
    Sigs.reserve(Capacity);
  }
  if (2 * Need > IndexSize) {
    size_t Size = std::max<size_t>(64, IndexSize);
    while (2 * Need > Size)
      Size *= 2;
    rehash(Size);
  }
}

void Enumerator::Pool::add(Candidate C, const int64_t *Values, uint64_t Sig,
                           size_t Slot) {
  if (2 * (Cands.size() + 1) > IndexSize) {
    // Grow; the new candidate probes afresh.
    reserve(1);
    for (Slot = slotOf(Sig, IndexSize - 1);
         Index[Slot].load(std::memory_order_relaxed);
         Slot = (Slot + 1) & (IndexSize - 1))
      ;
  }
  const size_t InSlab = Cands.size() % SlabColumns;
  if (InSlab == 0)
    Slabs.emplace_back(new int64_t[SlabColumns * NumTests]);
  int64_t *Column = Slabs.back().get() + InSlab * NumTests;
  std::copy(Values, Values + NumTests, Column);
  C.Values = Column;
  if (BySize.size() <= C.Size)
    BySize.resize(C.Size + 1);
  BySize[C.Size].push_back(Cands.size());
  Sigs.push_back(Sig);
  Cands.push_back(std::move(C));
  // Publish last: a concurrent find() sees the candidate and its column
  // complete or not at all.
  Index[Slot].store(static_cast<uint32_t>(Cands.size()),
                    std::memory_order_release);
}

template <typename MakeRecipe>
void Enumerator::insert(Type Ty, const int64_t *Values, uint64_t Sig,
                        MakeRecipe Make) {
  if (full(Ty))
    return;
  Pool &P = pool(Ty);
  size_t Slot = 0;
  if (P.find(Sig, Values, Slot))
    return; // observational twin; the earlier (smaller) one wins
  P.add(Make(), Values, Sig, Slot);
}

void Enumerator::addLeaf(const ExprRef &E,
                         const std::vector<int64_t> &Values) {
  assert(Values.size() == NumTests && "one value per test");
  insert(E->type(), Values.data(), signatureOf(Values), [&] {
    Candidate C;
    C.Size = E->size();
    C.LeafExpr = E;
    return C;
  });
}

/// A run of one level's combinations with one shape over fixed operand
/// buckets, in the order of the sequential nested loops. Digit D[i] ranges
/// over Radix[i]: unary {operand, -, -}; pairs {lhs, rhs, operator};
/// conditionals {condition, then, else}.
struct Enumerator::Block {
  Candidate::Shape Kind;
  /// Candidate indices of each operand bucket.
  const size_t *Operands[3] = {nullptr, nullptr, nullptr};
  Digits Radix = {1, 1, 1};
  /// Index of the block's first combination in its level.
  uint64_t Begin = 0;
  /// Pairs: a commutative combination's mirror came earlier in the level:
  /// always (left operands larger than right ones), or, for equal sizes,
  /// when the right operand's position is below the left's.
  bool MirrorAlwaysEarlier = false;
  bool SameSize = false;

  uint64_t count() const { return Radix[0] * Radix[1] * Radix[2]; }
  Digits digits(uint64_t K) const {
    Digits D;
    D[2] = K % Radix[2];
    K /= Radix[2];
    D[1] = K % Radix[1];
    D[0] = K / Radix[1];
    return D;
  }
  void advance(Digits &D) const {
    if (++D[2] != Radix[2])
      return;
    D[2] = 0;
    if (++D[1] != Radix[1])
      return;
    D[1] = 0;
    ++D[0];
  }
  /// Pairs: the operator of the combination at \p D.
  BinaryOp op(const Digits &D) const {
    return Kind == Candidate::IntPair ? IntOps[D[2]] : BoolOps[D[2]];
  }
  /// The type of the combination at \p D.
  Type type(const Digits &D) const {
    switch (Kind) {
    case Candidate::Neg:
    case Candidate::IntIte:
      return Type::Int;
    case Candidate::IntPair:
      return resultType(op(D));
    default:
      return Type::Bool;
    }
  }
  /// The recipe of the combination at \p D, of term size \p Size.
  Candidate recipe(const Digits &D, unsigned Size) const {
    Candidate C;
    C.Size = Size;
    C.Kind = Kind;
    if (Kind == Candidate::IntPair || Kind == Candidate::BoolPair)
      C.Op = op(D);
    for (size_t I = 0; I != 3 && Operands[I]; ++I)
      C.Operands[I] = static_cast<uint32_t>(Operands[I][D[I]]);
    return C;
  }
};

/// One size level: its blocks in sequential order, plus the state its
/// chunks read while a wave is in flight.
struct Enumerator::Level {
  std::vector<Block> Blocks;
  unsigned Size = 0;
  uint64_t Count = 0;
  /// Per type (Int, Bool): the pool was full when the wave began.
  bool Full[2] = {false, false};
  /// Latched by any chunk whose deadline poll saw expiry.
  std::atomic<bool> *Expired = nullptr;

  size_t blockIndex(uint64_t K) const {
    auto It = std::upper_bound(
        Blocks.begin(), Blocks.end(), K,
        [](uint64_t Key, const Block &B) { return Key < B.Begin; });
    return static_cast<size_t>(It - Blocks.begin()) - 1;
  }
};

/// One chunk's buffers, allocated by the calling thread and reused across
/// waves, levels and growTo() calls. Slots sit on cache lines of their own.
struct alignas(64) Enumerator::ChunkSlot {
  /// The chunk's survivors in order: level index << 1 | (type is Bool),
  /// and their signatures.
  std::vector<uint64_t> Kept;
  std::vector<uint64_t> KeptSigs;
  /// The columns of the first KeptColumns survivors, then one column that
  /// every later combination is evaluated into.
  std::unique_ptr<int64_t[]> Columns;
  /// Chunk-local open-addressing index over the survivors (position + 1).
  std::vector<uint32_t> Table;
  uint64_t Polls = 0;

  ChunkSlot(size_t NumTests, size_t KeptColumns)
      : Columns(new int64_t[(KeptColumns + 1) * NumTests]) {
    Kept.reserve(ChunkCombinations);
    KeptSigs.reserve(ChunkCombinations);
    Table.reserve(tableSizeFor(ChunkCombinations));
  }
};

Enumerator::Level Enumerator::planLevel(unsigned Size) {
  // Sized up front, so no insertion of this level moves the lower buckets
  // the blocks point into.
  for (Pool *P : {&IntPool, &BoolPool})
    if (P->BySize.size() <= Size)
      P->BySize.resize(Size + 1);
  const auto &IntBySize = IntPool.BySize;
  const auto &BoolBySize = BoolPool.BySize;

  Level L;
  L.Size = Size;
  using Bucket = const std::vector<size_t> *;
  auto add = [&](Candidate::Shape Kind, std::initializer_list<Bucket> Buckets,
                 uint64_t NumOps = 1) -> Block * {
    Block B;
    B.Kind = Kind;
    size_t I = 0;
    for (Bucket Operands : Buckets) {
      B.Operands[I] = Operands->data();
      B.Radix[I++] = Operands->size();
    }
    if (NumOps != 1)
      B.Radix[2] = NumOps;
    B.Begin = L.Count;
    if (B.count() == 0)
      return nullptr;
    L.Count += B.count();
    L.Blocks.push_back(B);
    return &L.Blocks.back();
  };

  // Unary: operand of size Size-1.
  add(Candidate::Neg, {&IntBySize[Size - 1]});
  add(Candidate::Not, {&BoolBySize[Size - 1]});

  // Binary: |lhs| + |rhs| + 1 == Size.
  for (unsigned SizeA = 1; SizeA + 2 <= Size; ++SizeA) {
    unsigned SizeB = Size - 1 - SizeA;
    for (auto [Kind, BySize, NumOps] :
         {std::tuple{Candidate::IntPair, &IntBySize, std::size(IntOps)},
          std::tuple{Candidate::BoolPair, &BoolBySize, std::size(BoolOps)}}) {
      if (Block *B = add(Kind, {&(*BySize)[SizeA], &(*BySize)[SizeB]},
                         NumOps)) {
        B->MirrorAlwaysEarlier = SizeA > SizeB;
        B->SameSize = SizeA == SizeB;
      }
    }
  }

  // Conditionals: |cond| + |then| + |else| + 1 == Size, int- and
  // bool-typed branches.
  for (unsigned SizeC = 1; SizeC + 3 <= Size; ++SizeC) {
    for (unsigned SizeT = 1; SizeC + SizeT + 2 <= Size; ++SizeT) {
      unsigned SizeE = Size - 1 - SizeC - SizeT;
      add(Candidate::IntIte,
          {&BoolBySize[SizeC], &IntBySize[SizeT], &IntBySize[SizeE]});
      add(Candidate::BoolIte,
          {&BoolBySize[SizeC], &BoolBySize[SizeT], &BoolBySize[SizeE]});
    }
  }
  return L;
}

bool Enumerator::skipped(const Level &L, const Block &B,
                         const Digits &D) const {
  if (L.Full[B.type(D) == Type::Bool])
    return true;
  if (B.Kind != Candidate::IntPair && B.Kind != Candidate::BoolPair)
    return false;
  // The mirrored order of a commutative operator evaluates to the same
  // column as the earlier one, which was kept, was a twin, or met a full
  // pool: it can never be kept.
  return commutative(B.op(D)) &&
         (B.MirrorAlwaysEarlier || (B.SameSize && D[1] < D[0]));
}

template <typename ApplyFn>
Type Enumerator::dispatch(const Block &B, const Digits &D,
                          ApplyFn Apply) const {
  auto column = [&](const Pool &P, size_t Digit) {
    return P.Cands[B.Operands[Digit][D[Digit]]].Values;
  };
  switch (B.Kind) {
  case Candidate::Leaf:
    break;
  case Candidate::Neg:
    Apply([](int64_t V) { return ops::neg(V); }, column(IntPool, 0));
    return Type::Int;
  case Candidate::Not:
    Apply([](int64_t V) { return ops::logicalNot(V); }, column(BoolPool, 0));
    return Type::Bool;
  case Candidate::IntPair:
  case Candidate::BoolPair: {
    const Pool &P = B.Kind == Candidate::IntPair ? IntPool : BoolPool;
    const int64_t *Lhs = column(P, 0);
    const int64_t *Rhs = column(P, 1);
    ops::visitBinary(B.op(D), [&](auto F) { Apply(F, Lhs, Rhs); });
    return B.type(D);
  }
  case Candidate::IntIte:
  case Candidate::BoolIte: {
    const Pool &P = B.Kind == Candidate::IntIte ? IntPool : BoolPool;
    Apply(
        [](int64_t Cond, int64_t Then, int64_t Else) {
          return Cond ? Then : Else;
        },
        column(BoolPool, 0), column(P, 1), column(P, 2));
    return B.type(D);
  }
  }
  return Type::Int;
}

Type Enumerator::evaluate(const Block &B, const Digits &D, int64_t *Out,
                          uint64_t &Sig) const {
  return dispatch(B, D, [&](auto F, const auto *...Operands) {
    Sig = fillColumn(Out, NumTests, F, Operands...);
  });
}

bool Enumerator::nextLevelHas(Type Ty, const std::vector<int64_t> &Target) {
  assert(Target.size() == NumTests && "one value per test");
  const Deadline &DL = Options.Timeout;
  if (full(Ty) || DL.expired())
    return false;
  // L.Full stays false: Ty's pool is not full, and the other type's
  // combinations are not evaluated.
  const Level L = planLevel(BuiltSize + 1);
  for (const Block &B : L.Blocks) {
    Digits D = B.digits(0);
    for (uint64_t K = 0; K != B.count(); ++K, B.advance(D)) {
      if ((++Scanned & 255u) == 0 && DL.expired())
        return false;
      if (B.type(D) != Ty || skipped(L, B, D))
        continue;
      bool Hit = true;
      dispatch(B, D, [&](auto F, const auto *...Operands) {
        for (size_t T = 0; Hit && T != NumTests; ++T)
          Hit = F(Operands[T]...) == Target[T];
      });
      if (Hit)
        return true;
    }
  }
  return false;
}

void Enumerator::runChunk(const Level &L, uint64_t Begin, uint64_t End,
                          ChunkSlot &Slot) const {
  Slot.Kept.clear();
  Slot.KeptSigs.clear();
  Slot.Table.assign(tableSizeFor(End - Begin), 0u);
  const size_t Mask = Slot.Table.size() - 1;
  const size_t N = NumTests;
  const Deadline &DL = Options.Timeout;

  for (size_t BI = L.blockIndex(Begin);
       BI != L.Blocks.size() && L.Blocks[BI].Begin < End; ++BI) {
    const Block &B = L.Blocks[BI];
    uint64_t From = std::max(Begin, B.Begin) - B.Begin;
    uint64_t To = std::min(End, B.Begin + B.count()) - B.Begin;
    Digits D = B.digits(From);
    for (uint64_t K = From; K != To; ++K, B.advance(D)) {
      if ((++Slot.Polls & 255u) == 0 && DL.expired())
        L.Expired->store(true, std::memory_order_relaxed);
      if (L.Expired->load(std::memory_order_relaxed))
        return;
      if (skipped(L, B, D))
        continue;
      // Evaluate into the next survivor's place while the buffer has room;
      // a dropped combination's column is overwritten by the next one.
      const size_t NumKept = Slot.Kept.size();
      int64_t *Column =
          Slot.Columns.get() + std::min(NumKept, KeptColumns) * N;
      uint64_t Sig = 0;
      Type Ty = evaluate(B, D, Column, Sig);
      size_t Ignored = 0;
      if (pool(Ty).find(Sig, Column, Ignored))
        continue; // a twin was in the pool when the wave began
      const uint64_t TypeBit = Ty == Type::Bool;
      size_t At = slotOf(Sig, Mask);
      bool Repeat = false;
      for (; Slot.Table[At] && !Repeat; At = (At + 1) & Mask) {
        size_t I = Slot.Table[At] - 1;
        Repeat = I < KeptColumns && Slot.KeptSigs[I] == Sig &&
                 (Slot.Kept[I] & 1) == TypeBit &&
                 sameColumn(Slot.Columns.get() + I * N, Column, N);
      }
      if (Repeat)
        continue;
      Slot.Table[At] = static_cast<uint32_t>(NumKept + 1);
      Slot.Kept.push_back((B.Begin + K) << 1 | TypeBit);
      Slot.KeptSigs.push_back(Sig);
    }
  }
}

void Enumerator::growTo(unsigned MaxSize) {
  const Deadline &DL = Options.Timeout;
  std::atomic<bool> Expired{false};
  std::vector<int64_t> Scratch(NumTests);
  TaskGroup Groups[2];
  size_t NumChunks[2] = {0, 0};
  auto since = [](std::chrono::steady_clock::time_point Start) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
  };

  // Cooperative cancellation: an early return leaves BuiltSize at the last
  // fully-built size.
  for (unsigned Size = BuiltSize + 1; Size <= MaxSize; ++Size) {
    if (DL.expired())
      return;
    Level L = planLevel(Size);
    L.Expired = &Expired;
    Combinations += L.Count;
    const bool Parallel = L.Count >= InlineCombinations;
    if (Parallel)
      ParallelCombinations += L.Count;
    const size_t WaveLen = Parallel ? WaveChunks : 1;
    // A level's first chunks are short: its first blocks, over the newest
    // operands, are where survivors are densest.
    uint64_t ChunkLen = MinChunkCombinations;
    uint64_t WaveCombinations[2] = {0, 0};
    while (Slots.size() < 2 * WaveLen)
      Slots.emplace_back(NumTests, KeptColumns);
    TaskPool *Workers = Parallel ? &sharedTaskPool() : nullptr;

    // Starts the wave of combinations from Begin in slot set \p Set (inline
    // for a small level) and returns where it ends. Its chunks filter
    // against the pool as it stands while they run.
    auto start = [&](uint64_t Begin, unsigned Set) {
      L.Full[0] = full(Type::Int);
      L.Full[1] = full(Type::Bool);
      NumChunks[Set] = 0;
      const uint64_t WaveBegin = Begin;
      while (NumChunks[Set] != WaveLen && Begin < L.Count) {
        uint64_t Lo = Begin, Hi = std::min(L.Count, Begin + ChunkLen);
        // A chunk ends with its block, and the next block starts with short
        // chunks: its survivors may be far denser.
        const Block &B = L.Blocks[L.blockIndex(Lo)];
        if (Hi >= B.Begin + B.count()) {
          Hi = B.Begin + B.count();
          ChunkLen = MinChunkCombinations;
        }
        ChunkSlot *Slot = &Slots[Set * WaveLen + NumChunks[Set]++];
        if (Workers)
          Workers->spawn(Groups[Set], [this, &L, Slot, Lo, Hi] {
            runChunk(L, Lo, Hi, *Slot);
          });
        else
          runChunk(L, Lo, Hi, *Slot);
        Begin = Hi;
      }
      WaveCombinations[Set] = Begin - WaveBegin;
      return Begin;
    };

    unsigned Set = 0;
    uint64_t End = start(0, Set);
    while (true) {
      if (Workers)
        Workers->wait(Groups[Set]);
      if (Expired.load(std::memory_order_relaxed))
        return;
      // Room for every survivor, made while no chunk reads the pools, so
      // that the next wave can probe them while this thread merges.
      auto MergeStart = std::chrono::steady_clock::now();
      size_t Survivors[2] = {0, 0};
      for (size_t C = 0; C != NumChunks[Set]; ++C)
        for (uint64_t Kept : Slots[Set * WaveLen + C].Kept)
          ++Survivors[Kept & 1];
      IntPool.reserve(Survivors[0]);
      BoolPool.reserve(Survivors[1]);
      MergeNanos += since(MergeStart);
      // Chunks aim at a quarter of their buffer, at the last wave's rate.
      if (const uint64_t Kept = Survivors[0] + Survivors[1])
        ChunkLen = std::clamp(WaveCombinations[Set] * KeptColumns / 4 / Kept,
                              MinChunkCombinations, ChunkCombinations);
      else
        ChunkLen = ChunkCombinations;
      const bool Last = End == L.Count;
      if (!Last)
        End = start(End, 1 - Set);

      // Merge the survivors in sequential order.
      MergeStart = std::chrono::steady_clock::now();
      for (size_t C = 0; C != NumChunks[Set]; ++C) {
        ChunkSlot &Slot = Slots[Set * WaveLen + C];
        for (size_t I = 0; I != Slot.Kept.size(); ++I) {
          const uint64_t K = Slot.Kept[I] >> 1;
          const Block &B = L.Blocks[L.blockIndex(K)];
          const Digits D = B.digits(K - B.Begin);
          const int64_t *Column = Slot.Columns.get() + I * NumTests;
          if (I >= KeptColumns) {
            // Beyond the chunk's buffer: evaluate the survivor again.
            uint64_t Sig = 0;
            evaluate(B, D, Scratch.data(), Sig);
            Column = Scratch.data();
          }
          insert(Slot.Kept[I] & 1 ? Type::Bool : Type::Int, Column,
                 Slot.KeptSigs[I], [&] { return B.recipe(D, L.Size); });
        }
      }
      MergeNanos += since(MergeStart);
      if (Last)
        break;
      Set = 1 - Set;
    }
    BuiltSize = Size;
  }
}

std::vector<const Candidate *>
Enumerator::candidatesUpTo(Type Ty, unsigned MaxSize) const {
  std::vector<const Candidate *> Result;
  const Pool &P = pool(Ty);
  for (unsigned Size = 1; Size <= MaxSize && Size < P.BySize.size(); ++Size)
    for (size_t Index : P.BySize[Size])
      Result.push_back(&P.Cands[Index]);
  return Result;
}

const Candidate *
Enumerator::findMatching(Type Ty, const std::vector<int64_t> &Target) const {
  assert(Target.size() == NumTests && "one value per test");
  size_t Slot = 0;
  return pool(Ty).find(signatureOf(Target), Target.data(), Slot);
}

ExprRef Enumerator::expr(const Candidate &C) const {
  auto operand = [&](Type Ty, size_t I) {
    return expr(pool(Ty).Cands[C.Operands[I]]);
  };
  switch (C.Kind) {
  case Candidate::Leaf:
    return C.LeafExpr;
  case Candidate::Neg:
    return neg(operand(Type::Int, 0));
  case Candidate::Not:
    return notE(operand(Type::Bool, 0));
  case Candidate::IntPair:
    return binary(C.Op, operand(Type::Int, 0), operand(Type::Int, 1));
  case Candidate::BoolPair:
    return binary(C.Op, operand(Type::Bool, 0), operand(Type::Bool, 1));
  case Candidate::IntIte:
    return ite(operand(Type::Bool, 0), operand(Type::Int, 1),
               operand(Type::Int, 2));
  case Candidate::BoolIte:
    return ite(operand(Type::Bool, 0), operand(Type::Bool, 1),
               operand(Type::Bool, 2));
  }
  return nullptr;
}
