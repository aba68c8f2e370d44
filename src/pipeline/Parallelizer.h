//===- pipeline/Parallelizer.h - End-to-end parallelization -----*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end PARSYNT pipeline: join synthesis on the original loop
/// (Section 4); if no join exists, one homomorphic lift (Section 6) followed
/// by one join search on the lifted loop, which fails the pipeline unless
/// it finds a join; finally the
/// remove-redundancies step of Algorithm 1, realized as "drop an auxiliary
/// and re-synthesize" — any auxiliary whose removal still leaves a
/// synthesizable join is redundant. The re-synthesis is seeded with the
/// accepted join's components that do not read the dropped auxiliary.
///
/// Every join search proves the join it accepts (synth/JoinSynth.h), so
/// the pipeline makes no proof call of its own: a result's proof report is
/// Join.Proof. The IR verifier runs at every phase boundary, and every join
/// search is seeded with the trivial joins of the dependence analysis
/// (DESIGN.md §5b).
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_PIPELINE_PARALLELIZER_H
#define PARSYNT_PIPELINE_PARALLELIZER_H

#include "analysis/DependenceGraph.h"
#include "lift/Lift.h"
#include "synth/JoinSynth.h"

#include <string>
#include <vector>

namespace parsynt {

struct PipelineOptions {
  /// Wall-clock budgets in seconds; 0 (the default) means unbounded. The
  /// whole-loop budget caps everything; the per-phase budgets additionally
  /// cap each join-synthesis / lift call, so a single runaway phase cannot
  /// starve the rest of the pipeline.
  double TimeoutSeconds = 0;     ///< whole parallelizeLoop call
  double JoinTimeoutSeconds = 0; ///< each join-synthesis call
  double LiftTimeoutSeconds = 0; ///< the lift
};

struct PipelineResult {
  bool Success = false;
  /// True when the loop was not parallelizable in its original form
  /// (Table 1's "Aux required?" row).
  bool AuxRequired = false;
  Loop Final;      ///< the loop actually parallelized (possibly lifted)
  JoinResult Join; ///< join for Final, with its proof report
  unsigned AuxCount = 0;      ///< auxiliaries in Final (Table 1's "#Aux")
  unsigned AuxDiscovered = 0; ///< before redundancy removal
  bool IndexMaterialized = false;
  std::vector<std::string> DroppedAux; ///< redundant auxiliaries
  std::vector<std::string> Unresolved; ///< lift parts without accumulators
  /// Dependence classification of Final's state variables; empty when the
  /// input or its index rewrite fails verification.
  DependenceInfo Dependences;
  /// Join components accepted from seeds (dependence-analysis folds, or a
  /// redundancy retry's components of the join accepted before it), i.e.
  /// join searches skipped, summed over every synthesis call in the
  /// pipeline.
  unsigned SeedsAccepted = 0;
  /// Join synthesis calls that ended before any search because the
  /// oracle's tests held a witness that no join exists.
  unsigned Refuted = 0;
  double JoinSeconds = 0;  ///< total time in join synthesis
  /// The part of JoinSeconds in synthesis calls that found no join.
  double FailedJoinSeconds = 0;
  double LiftSeconds = 0;  ///< total time in lifting
  double TotalSeconds = 0;
  /// Structured failure (see support/Failure.h); empty on success.
  FailureInfo Failure;
  /// Graceful degradation: true when synthesis failed or timed out and
  /// Final was reset to the verified (index-materialized) input loop with
  /// an empty join — still executable sequentially by InterpReduce and
  /// emittable by the C++ backend. The pipeline never returns nothing
  /// runnable once the input passes frontend verification.
  bool SequentialFallback = false;

  /// Multi-line human-readable summary (final loop + join).
  std::string report() const;
};

/// Runs the full pipeline on \p L.
PipelineResult parallelizeLoop(const Loop &L,
                               const PipelineOptions &Options = {});

} // namespace parsynt

#endif // PARSYNT_PIPELINE_PARALLELIZER_H
