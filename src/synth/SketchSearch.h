//===- synth/SketchSearch.h - Sketch sweeps in lanes ------------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sketch search of join synthesis, internal to src/synth: JoinSynth.cpp
/// runs it on each C(E) sketch tier by tier, and the tests reach it here to
/// compare it with a brute-force sweep. A sketch is compiled once against
/// the tests; each search fills its holes from per-hole candidate pools in
/// increasing total weight, one sweep per weight. DESIGN.md §5h gives the
/// sweep's order, its minimum-index winner on the shared pool, prefix
/// refutation and the lane blocks ("Lane sweep").
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_SYNTH_SKETCHSEARCH_H
#define PARSYNT_SYNTH_SKETCHSEARCH_H

#include "interp/CompiledExpr.h"
#include "support/Deadline.h"
#include "synth/Enumerator.h"
#include "synth/JoinSynth.h"
#include "synth/Sketch.h"

#include <functional>
#include <optional>
#include <vector>

namespace parsynt {

/// Per-hole candidate pools grouped by term size for exact-weight search.
struct HolePool {
  std::vector<std::vector<const Candidate *>> BySize; // index = size
  unsigned MinSize = 0;
  /// The enumerator whose candidates these are; null for a pool of leaves
  /// (whose expressions are their LeafExpr).
  const Enumerator *Source = nullptr;
};

/// The candidates of \p E of type \p Ty up to term size \p MaxSize.
HolePool makePool(const Enumerator &E, Type Ty, unsigned MaxSize);

/// A sketch compiled once for all its tiers against the tests. Per hole k
/// with a check (the body for the last hole; before it, the prefix
/// condition of prefixConditions() when it can refute a prefix the
/// previous one passed, DESIGN.md §5h "Prefix refutation"), two programs:
/// the check's largest subterms that do not read hole k, over the search's
/// input layout (the holes, the body's other variables, then the target),
/// run once per prefix and test; and the rest, over hole k's value in input
/// 0 and those subterms' values after it, run on one lane per candidate.
struct CompiledSketch {
  /// The value column over the tests of a variable the body reads.
  using ColumnFn = std::function<std::vector<int64_t>(const std::string &)>;

  /// Compiles \p S for \p NumTests tests on which the body must give the
  /// raw \p Target.
  CompiledSketch(const Sketch &S, size_t NumTests, const ColumnFn &Column,
                 std::vector<int64_t> Target);

  struct Check {
    Check(const ExprRef &E, const std::string &Hole,
          const std::vector<std::string> &Names, bool Body);
    /// One root per hoisted subterm.
    CompiledExpr Hoisted;
    size_t NumHoisted = 0;
    CompiledExpr Lane;
    /// True for the body (its lanes must give the target), false for a
    /// prefix condition (its lanes must hold).
    bool Body;
  };

  const Sketch &S;
  size_t NumTests;
  /// Per hole: its check, or none when the prefix up to it needs no check
  /// of its own.
  std::vector<std::optional<Check>> Checks;
  /// The columns of the inputs after the holes; the target's is the last.
  std::vector<std::vector<int64_t>> Columns;
};

/// A search's winner: the filled-in join component and the candidate each
/// hole took, or a null component.
struct SketchMatch {
  ExprRef Component;
  std::vector<const Candidate *> Assignment;
};

/// Searches \p P over \p Pools (one per hole) at total weights up to
/// MaxHoleSize per hole: the first passing assignment in sweep order that
/// the synth.reject fault point lets through, within \p Budget assignments.
/// Adds the search's counts and time to \p Stats; stops unwinding when
/// \p DL expires.
SketchMatch runSketchSearch(const CompiledSketch &P,
                            std::vector<HolePool> Pools, unsigned MaxHoleSize,
                            uint64_t Budget, JoinStats &Stats, Deadline DL);

} // namespace parsynt

#endif // PARSYNT_SYNTH_SKETCHSEARCH_H
