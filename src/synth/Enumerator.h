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
/// The enumerator fills three roles: the per-hole candidate pools of the
/// sketch search, the free-grammar fallback of Section 6.3, and the
/// accumulator-update search of the lifting algorithm.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_SYNTH_ENUMERATOR_H
#define PARSYNT_SYNTH_ENUMERATOR_H

#include "ir/Expr.h"
#include "support/Deadline.h"

#include <vector>

namespace parsynt {

/// An enumerated expression with its evaluation on every test, as raw
/// payloads (bools as 0/1; the pool a candidate lives in fixes its
/// type).
struct Candidate {
  ExprRef E;
  std::vector<int64_t> Values;
};

/// Knobs bounding the enumeration.
struct EnumeratorOptions {
  /// Largest term size to build.
  unsigned MaxSize = 7;
  /// Cap on retained candidates per type (observational classes).
  size_t MaxPerType = 20000;
  /// Cooperative cancellation: run() stops early (keeping what was built)
  /// once this expires. Unarmed by default.
  Deadline Timeout;
};

/// Bottom-up enumerator over a fixed number of tests. The enumerator
/// evaluates nothing itself: each leaf comes with its values on the tests
/// (for joins, HomOracle::column over the oracle's rows), and combinations
/// are computed from their operands' values.
class Enumerator {
public:
  explicit Enumerator(size_t NumTests, EnumeratorOptions Options = {});

  /// Registers leaf \p E (variable or constant; any expression works) with
  /// its raw value on every test. Leaves count with their real term size.
  void addLeaf(const ExprRef &E, const std::vector<int64_t> &Values);

  /// Builds all candidates of size <= Options.MaxSize. Safe to call again
  /// after raising MaxSize via options(); already-built sizes are kept.
  /// Stops early when Options.Timeout expires: the pool stays usable with
  /// whatever sizes were completed.
  void run();

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

  EnumeratorOptions &options() { return Options; }
  size_t totalCandidates() const {
    return IntPool.Cands.size() + BoolPool.Cands.size();
  }

private:
  /// One typed pool: the candidates, their value signatures, an
  /// open-addressing index over the signatures for deduplication, and the
  /// candidates bucketed by term size.
  struct Pool {
    std::vector<Candidate> Cands;
    std::vector<uint64_t> Sigs;
    /// Candidate index + 1 per slot (0: empty); a power-of-two size kept at
    /// most half full.
    std::vector<uint32_t> Index;
    std::vector<std::vector<size_t>> BySize;

    /// The candidate with signature \p Sig and exactly \p Values, or null.
    /// On a miss, \p Slot is the free slot that ends the probe.
    const Candidate *find(uint64_t Sig, const std::vector<int64_t> &Values,
                          size_t &Slot) const;
    /// Appends a candidate that find() missed at \p Slot.
    void add(Candidate C, uint64_t Sig, size_t Slot);
  };

  /// Evaluates \p Fn elementwise over the operand columns into Scratch and
  /// returns the signature of the result, hashed in the same pass.
  template <typename Fn, typename... Columns>
  uint64_t fillScratch(Fn F, const Columns *...Operands);
  /// Keeps the value vector in Scratch (signature \p Sig) as a new type-
  /// \p Ty candidate unless an observational twin exists or the pool is
  /// full. The expression is built by \p Make only for a kept candidate.
  template <typename MakeExpr>
  void insertScratch(Type Ty, uint64_t Sig, MakeExpr Make);
  bool full(Type Ty) const {
    return candidates(Ty).size() >= Options.MaxPerType;
  }
  Pool &pool(Type Ty) { return Ty == Type::Int ? IntPool : BoolPool; }
  const Pool &pool(Type Ty) const {
    return Ty == Type::Int ? IntPool : BoolPool;
  }

  EnumeratorOptions Options;
  Pool IntPool, BoolPool;
  /// Reusable value column every combination is evaluated into.
  std::vector<int64_t> Scratch;
  /// Largest size already built.
  unsigned BuiltSize = 0;
};

} // namespace parsynt

#endif // PARSYNT_SYNTH_ENUMERATOR_H
