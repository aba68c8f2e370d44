//===- synth/JoinSynth.h - Join operator synthesis --------------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Syntax-guided synthesis of join operators (paper Section 4): per state
/// variable, the sketch C(E) is searched by filling its typed ??LR / ??R
/// holes with enumerated grammar expressions in increasing total weight;
/// when the sketch space is exhausted the search is relaxed to the free
/// Figure-4 grammar (the "un-constrain the compiled sketch" fallback of
/// Sections 4.3/6.3). An outer CEGIS loop checks each assembled join with
/// the Section-7 proof obligations (proof/ProofCheck.h): a proved join is
/// accepted with its proof report, and the split behind a failed
/// obligation joins the oracle's tests for the next round.
///
/// Joins are synthesized per state variable (modularly), mirroring the
/// modular per-variable proof decomposition of Section 7. Two oracle tests
/// that no join can both pass (HomOracle::witness) end the call before any
/// search, and its failure names them. A failed search stops at the first
/// state variable it cannot join and names it in its failure; the pipeline
/// answers a failure on the original loop by lifting it once
/// (pipeline/Parallelizer.h).
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_SYNTH_JOINSYNTH_H
#define PARSYNT_SYNTH_JOINSYNTH_H

#include "synth/HomOracle.h"
#include "support/Failure.h"

#include <map>
#include <string>
#include <vector>

namespace parsynt {

/// Switches for the synthesis search. The search itself (hole-size tiers,
/// free-grammar bound, assignment budget, CEGIS rounds) is the fixed
/// configuration of JoinSynth.cpp.
struct JoinSynthOptions {
  /// Enable the "empty right chunk" guarded sketch variant (an extension
  /// beyond the paper's C(E); the pipeline enables it only for lifted
  /// loops so the Table-1 "parallelizable in original form" judgement
  /// matches the paper's sketch space). It is tried after the sketches and
  /// a free-grammar lookup in the pool they built, and before the free
  /// grammar grows that pool past the sketch tiers.
  bool AllowEmptyGuard = true;
  /// Per equation: a ready-made join component (a trivially-homomorphic
  /// fold from the dependence analysis, or a component of a join accepted
  /// before). A seed passing the oracle's tests is accepted without any
  /// search; a failing seed falls back to the normal search, and so does a
  /// seed whose join the round's proof refutes, once the counterexample
  /// has joined the tests.
  std::map<std::string, ExprRef> Seeds;
  /// Cooperative cancellation for the whole synthesis call (also handed to
  /// the oracle). On expiry the search unwinds with a Timeout failure.
  Deadline Timeout;
};

/// Statistics for Table 1 and the benches.
struct JoinStats {
  uint64_t SketchAssignmentsTried = 0;
  /// Assignments whose body the sweeps ran. The rest of
  /// SketchAssignmentsTried lie under prefixes a prefix check refuted
  /// (DESIGN.md §5h, "Prefix refutation"). Not exact: pool tasks may run
  /// bodies past the winner, and the tests a check reads depend on the
  /// task's earlier failures.
  uint64_t SketchEvaluated = 0;
  uint64_t EnumeratedCandidates = 0;
  unsigned CegisIterations = 0;
  unsigned TestsUsed = 0;
  /// Equations whose join was accepted from a dependence-analysis seed
  /// without running any search.
  unsigned SeedsAccepted = 0;
  /// True when the oracle's tests held a witness (HomOracle::witness) and
  /// the call ended before any search.
  bool Refuted = false;
  /// Combinations the enumerators evaluated or skipped, and the part of
  /// them in size levels large enough to run on the task pool.
  uint64_t EnumeratedCombinations = 0;
  uint64_t ParallelCombinations = 0;
  /// Combinations the free grammar's scans of its last level walked
  /// (Enumerator::nextLevelHas); a level decided by a miss is never built,
  /// so they are not in EnumeratedCombinations.
  uint64_t ScannedCombinations = 0;
  /// The part of SketchAssignmentsTried in sweeps large enough to run on
  /// the task pool.
  uint64_t ParallelAssignments = 0;
  double Seconds = 0.0;
  /// Wall time of the search's phases: growing the candidate pools,
  /// sketch-hole evaluation, and the oracle (test building, seed checks,
  /// each round's proof).
  uint64_t EnumerateNanos = 0;
  uint64_t SketchNanos = 0;
  uint64_t OracleNanos = 0;
  /// The part of EnumerateNanos the calling thread spent merging chunk
  /// survivors into the pools in sequential order (the serial share).
  uint64_t MergeNanos = 0;
};

/// The synthesized join: one expression per equation over the variables
/// v_l / v_r (plus loop parameters).
struct JoinResult {
  bool Success = false;
  std::vector<ExprRef> Components;
  JoinStats Stats;
  /// The Section-7 proof report of the accepted join, from its CEGIS
  /// round; unverified with no checks when the call fails.
  ProofReport Proof;
  /// Structured failure (NotHomomorphic / BudgetExhausted / Timeout); a
  /// NotHomomorphic message names the first state variable no component was
  /// found for, or, for a refuted call, the witness's two tests.
  FailureInfo Failure;
};

/// Synthesizes a join for \p L. On failure (no join found at any tier —
/// evidence the loop needs lifting), Success is false and Failure explains.
JoinResult synthesizeJoin(const Loop &L, const JoinSynthOptions &Options = {});

/// Renders the join as per-variable update lines.
std::string joinToString(const Loop &L, const std::vector<ExprRef> &Components);

} // namespace parsynt

#endif // PARSYNT_SYNTH_JOINSYNTH_H
