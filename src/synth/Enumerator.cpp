//===- synth/Enumerator.cpp - Bottom-up expression enumeration ------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Performance note: combined candidates compute their value vectors
// elementwise from their operands' cached columns, so cost per candidate is
// O(#tests) regardless of term size; leaves arrive with their values. Every
// combination is evaluated into one reusable scratch column and hashed in
// the same pass, with the operator resolved outside the per-test loop; the
// expression node and its own column are allocated only for a combination
// that survives deduplication (nearly all are observational twins). Per-size
// buckets make each term constructible exactly once.
//
//===----------------------------------------------------------------------===//

#include "synth/Enumerator.h"
#include "interp/OpSemantics.h"

#include <algorithm>

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

uint64_t signatureOf(const std::vector<int64_t> &Values) {
  return hashColumn(Values.size(), [&](size_t T) { return Values[T]; });
}

Type resultType(BinaryOp Op) { return isArithOp(Op) ? Type::Int : Type::Bool; }

} // namespace

Enumerator::Enumerator(size_t NumTests, EnumeratorOptions Options)
    : Options(Options), Scratch(NumTests) {
  assert(NumTests != 0 && "enumeration needs at least one test");
}

const Candidate *Enumerator::Pool::find(uint64_t Sig,
                                        const std::vector<int64_t> &Values,
                                        size_t &Slot) const {
  if (Index.empty())
    return nullptr;
  size_t Mask = Index.size() - 1;
  for (Slot = slotOf(Sig, Mask); Index[Slot]; Slot = (Slot + 1) & Mask) {
    const size_t I = Index[Slot] - 1;
    if (Sigs[I] == Sig && Cands[I].Values == Values)
      return &Cands[I];
  }
  return nullptr;
}

void Enumerator::Pool::add(Candidate C, uint64_t Sig, size_t Slot) {
  if (2 * (Cands.size() + 1) > Index.size()) {
    // Grow and re-place every candidate; the new one probes afresh.
    Index.assign(std::max<size_t>(64, 2 * Index.size()), 0);
    size_t Mask = Index.size() - 1;
    for (size_t I = 0; I <= Cands.size(); ++I) {
      uint64_t S = I < Cands.size() ? Sigs[I] : Sig;
      size_t At = slotOf(S, Mask);
      while (Index[At])
        At = (At + 1) & Mask;
      Index[At] = static_cast<uint32_t>(I + 1);
    }
  } else {
    Index[Slot] = static_cast<uint32_t>(Cands.size() + 1);
  }
  const unsigned Size = C.E->size();
  if (BySize.size() <= Size)
    BySize.resize(Size + 1);
  BySize[Size].push_back(Cands.size());
  Sigs.push_back(Sig);
  Cands.push_back(std::move(C));
}

template <typename Fn, typename... Columns>
uint64_t Enumerator::fillScratch(Fn F, const Columns *...Operands) {
  int64_t *Out = Scratch.data();
  return hashColumn(Scratch.size(), [&](size_t T) {
    return Out[T] = F(Operands[T]...);
  });
}

template <typename MakeExpr>
void Enumerator::insertScratch(Type Ty, uint64_t Sig, MakeExpr Make) {
  if (full(Ty))
    return;
  Pool &P = pool(Ty);
  size_t Slot = 0;
  if (P.find(Sig, Scratch, Slot))
    return; // observational twin; the earlier (smaller) one wins
  ExprRef E = Make();
  assert(E->type() == Ty && "candidate inserted into the wrong pool");
  P.add({std::move(E), Scratch}, Sig, Slot);
}

void Enumerator::addLeaf(const ExprRef &E,
                         const std::vector<int64_t> &Values) {
  assert(Values.size() == Scratch.size() && "one value per test");
  std::copy(Values.begin(), Values.end(), Scratch.begin());
  insertScratch(E->type(), signatureOf(Scratch), [&] { return E; });
}

void Enumerator::run() {
  std::vector<Candidate> &Ints = IntPool.Cands;
  std::vector<Candidate> &Bools = BoolPool.Cands;
  const auto &IntBySize = IntPool.BySize;
  const auto &BoolBySize = BoolPool.BySize;

  auto bucket = [](const std::vector<std::vector<size_t>> &Buckets,
                   unsigned Size) -> const std::vector<size_t> * {
    return Size < Buckets.size() ? &Buckets[Size] : nullptr;
  };

  // Note: insertions may reallocate the pools, so operands are re-indexed on
  // every call rather than held by reference across inserts. (Their value
  // columns are heap buffers that move with them, so the column pointers
  // taken below stay valid.)
  auto combine = [&](BinaryOp Op, std::vector<Candidate> &Operands, size_t I,
                     size_t J) {
    Type Ty = resultType(Op);
    if (full(Ty))
      return;
    const int64_t *A = Operands[I].Values.data();
    const int64_t *B = Operands[J].Values.data();
    uint64_t Sig = ops::visitBinary(
        Op, [&](auto F) { return fillScratch(F, A, B); });
    insertScratch(Ty, Sig,
                  [&] { return binary(Op, Operands[I].E, Operands[J].E); });
  };
  auto combineIte = [&](std::vector<Candidate> &Branches, size_t C, size_t I,
                        size_t J) {
    Type Ty = Branches[I].E->type();
    if (full(Ty))
      return;
    uint64_t Sig = fillScratch(
        [](int64_t Cond, int64_t Then, int64_t Else) {
          return Cond ? Then : Else;
        },
        Bools[C].Values.data(), Branches[I].Values.data(),
        Branches[J].Values.data());
    insertScratch(Ty, Sig, [&] {
      return ite(Bools[C].E, Branches[I].E, Branches[J].E);
    });
  };

  // Cooperative cancellation: an early return leaves BuiltSize at the last
  // fully-built size, so the pool stays usable (and resumable) with every
  // size completed so far.
  const Deadline &DL = Options.Timeout;

  for (unsigned Size = std::max(2u, BuiltSize + 1); Size <= Options.MaxSize;
       ++Size) {
    if (DL.expired())
      return;
    // Unary: operand of size Size-1.
    if (const auto *Ops = bucket(IntBySize, Size - 1)) {
      // Copy: insertions extend the pool (into this size's bucket, which we
      // must not iterate while growing).
      std::vector<size_t> Fixed = *Ops;
      for (size_t I : Fixed) {
        if (full(Type::Int))
          break;
        uint64_t Sig = fillScratch([](int64_t V) { return ops::neg(V); },
                                   Ints[I].Values.data());
        insertScratch(Type::Int, Sig, [&] { return neg(Ints[I].E); });
      }
    }
    if (const auto *Ops = bucket(BoolBySize, Size - 1)) {
      std::vector<size_t> Fixed = *Ops;
      for (size_t I : Fixed) {
        if (full(Type::Bool))
          break;
        uint64_t Sig =
            fillScratch([](int64_t V) { return ops::logicalNot(V); },
                        Bools[I].Values.data());
        insertScratch(Type::Bool, Sig, [&] { return notE(Bools[I].E); });
      }
    }

    // Binary: |lhs| + |rhs| + 1 == Size.
    for (unsigned SizeA = 1; SizeA + 2 <= Size; ++SizeA) {
      unsigned SizeB = Size - 1 - SizeA;
      const auto *IntsA = bucket(IntBySize, SizeA);
      const auto *IntsB = bucket(IntBySize, SizeB);
      if (IntsA && IntsB) {
        std::vector<size_t> FixedA = *IntsA, FixedB = *IntsB;
        for (size_t I : FixedA) {
          if (DL.expired())
            return;
          for (size_t J : FixedB) {
            combine(BinaryOp::Add, Ints, I, J);
            combine(BinaryOp::Sub, Ints, I, J);
            combine(BinaryOp::Min, Ints, I, J);
            combine(BinaryOp::Max, Ints, I, J);
            combine(BinaryOp::Mul, Ints, I, J);
            combine(BinaryOp::Div, Ints, I, J);
            combine(BinaryOp::Lt, Ints, I, J);
            combine(BinaryOp::Le, Ints, I, J);
            combine(BinaryOp::Eq, Ints, I, J);
            // Gt/Ge/Ne are the swapped/negated forms; the deduplication
            // would drop them anyway, so skip the evaluation work.
          }
        }
      }
      const auto *BoolsA = bucket(BoolBySize, SizeA);
      const auto *BoolsB = bucket(BoolBySize, SizeB);
      if (BoolsA && BoolsB) {
        std::vector<size_t> FixedA = *BoolsA, FixedB = *BoolsB;
        for (size_t I : FixedA) {
          for (size_t J : FixedB) {
            combine(BinaryOp::And, Bools, I, J);
            combine(BinaryOp::Or, Bools, I, J);
          }
        }
      }
    }

    // Conditionals: |cond| + |then| + |else| + 1 == Size, int- and
    // bool-typed branches.
    for (unsigned SizeC = 1; SizeC + 3 <= Size; ++SizeC) {
      const auto *Conds = bucket(BoolBySize, SizeC);
      if (!Conds)
        continue;
      std::vector<size_t> FixedC = *Conds;
      for (unsigned SizeT = 1; SizeC + SizeT + 2 <= Size; ++SizeT) {
        unsigned SizeE = Size - 1 - SizeC - SizeT;
        const auto *Thens = bucket(IntBySize, SizeT);
        const auto *Elses = bucket(IntBySize, SizeE);
        if (Thens && Elses) {
          std::vector<size_t> FixedT = *Thens, FixedE = *Elses;
          for (size_t C : FixedC) {
            if (DL.expired())
              return;
            for (size_t I : FixedT)
              for (size_t J : FixedE)
                combineIte(Ints, C, I, J);
          }
        }
        const auto *BThens = bucket(BoolBySize, SizeT);
        const auto *BElses = bucket(BoolBySize, SizeE);
        if (BThens && BElses) {
          std::vector<size_t> FixedT = *BThens, FixedE = *BElses;
          for (size_t C : FixedC) {
            if (DL.expired())
              return;
            for (size_t I : FixedT)
              for (size_t J : FixedE)
                combineIte(Bools, C, I, J);
          }
        }
      }
    }
  }
  BuiltSize = std::max(BuiltSize, Options.MaxSize);
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
  size_t Slot = 0;
  return pool(Ty).find(signatureOf(Target), Target, Slot);
}
