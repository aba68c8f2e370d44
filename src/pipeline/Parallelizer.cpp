//===- pipeline/Parallelizer.cpp - End-to-end parallelization -------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "pipeline/Parallelizer.h"
#include "analysis/Verifier.h"
#include "ir/ExprOps.h"
#include "lift/Unfold.h"
#include "observe/Metrics.h"
#include "observe/Tracer.h"

#include <algorithm>
#include <chrono>
#include <sstream>

using namespace parsynt;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// True if any *other* equation's update references \p Name.
bool referencedByOthers(const Loop &L, const std::string &Name) {
  for (const Equation &Eq : L.Equations) {
    if (Eq.Name == Name)
      continue;
    if (containsVar(Eq.Update, Name))
      return true;
  }
  return false;
}

/// Removes the equation \p Name; returns false if it is still referenced.
bool removeEquation(Loop &L, const std::string &Name) {
  if (referencedByOthers(L, Name))
    return false;
  auto It = std::find_if(L.Equations.begin(), L.Equations.end(),
                         [&](const Equation &Eq) { return Eq.Name == Name; });
  if (It == L.Equations.end())
    return false;
  L.Equations.erase(It);
  return true;
}

/// Verifies \p L at pipeline phase \p Phase. On violation records the
/// report in \p Result.Failure and returns false so the caller can fail
/// gracefully instead of running downstream passes on corrupt IR.
bool verifyAt(const Loop &L, VerifyPhase Phase, PipelineResult &Result) {
  VerifierReport Report = verifyLoop(L, Phase);
  if (Report.ok())
    return true;
  // A frontend-phase violation indicts the input program; every later
  // phase verifies IR produced by our own passes.
  Result.Failure = {Phase == VerifyPhase::AfterFrontend
                        ? FailureKind::FragmentViolation
                        : FailureKind::InternalError,
                    Report.str()};
  return false;
}

/// Runs join synthesis on \p W, seeded with the trivial joins of its
/// dependence analysis plus \p Seeds for the equations it has none for, and
/// folds the timing / seed statistics into \p Result.
JoinResult runJoinSynthesis(const Loop &W, bool AllowEmptyGuard,
                            PipelineResult &Result, const Deadline &DL,
                            const std::map<std::string, ExprRef> &Seeds = {}) {
  JoinSynthOptions JoinOpts;
  JoinOpts.AllowEmptyGuard = AllowEmptyGuard;
  for (const VarDependence &V : analyzeDependences(W).Vars)
    if (V.TrivialJoin)
      JoinOpts.Seeds[V.Name] = V.TrivialJoin;
  JoinOpts.Seeds.insert(Seeds.begin(), Seeds.end());
  JoinOpts.Timeout = DL;
  JoinResult Join = synthesizeJoin(W, JoinOpts);
  Result.JoinSeconds += Join.Stats.Seconds;
  if (!Join.Success)
    Result.FailedJoinSeconds += Join.Stats.Seconds;
  Result.SeedsAccepted += Join.Stats.SeedsAccepted;
  Result.Refuted += Join.Stats.Refuted;
  return Join;
}

/// The components of \p Join, the accepted join of \p L, that read neither
/// split value of \p Dropped: each is a join component of \p L without
/// \p Dropped, unless the smaller loop's tests or proof say otherwise.
std::map<std::string, ExprRef> keptComponents(const Loop &L,
                                              const std::vector<ExprRef> &Join,
                                              const std::string &Dropped) {
  std::map<std::string, ExprRef> Kept;
  for (size_t I = 0; I != L.Equations.size(); ++I) {
    const std::string &Name = L.Equations[I].Name;
    if (Name != Dropped &&
        !containsVar(Join[I], splitName(Dropped, Side::Left)) &&
        !containsVar(Join[I], splitName(Dropped, Side::Right)))
      Kept[Name] = Join[I];
  }
  return Kept;
}

} // namespace

PipelineResult parsynt::parallelizeLoop(const Loop &L,
                                        const PipelineOptions &Options) {
  auto StartTime = std::chrono::steady_clock::now();
  PipelineResult Result;

  // Root span of the whole run: every phase below (verify, analyze, join
  // synthesis with its proofs, lifting, redundancy removal) nests under it.
  // Outcome attributes are stamped when the result is final, whichever
  // return path is taken.
  Span Root("parallelizeLoop", trace::Pipeline);
  Root.attr("loop", L.Name.empty() ? "<loop>" : L.Name);
  struct RootFinisher {
    Span &S;
    PipelineResult &R;
    ~RootFinisher() {
      S.attr("success", R.Success);
      S.attr("aux_required", R.AuxRequired);
      S.attr("aux_count", uint64_t(R.AuxCount));
      S.attr("sequential_fallback", R.SequentialFallback);
      MetricsRegistry &M = MetricsRegistry::global();
      M.counter("pipeline.runs").inc();
      if (R.Success)
        M.counter("pipeline.successes").inc();
      if (R.SequentialFallback)
        M.counter("pipeline.sequential_fallbacks").inc();
      M.counter("pipeline.dropped_aux").add(R.DroppedAux.size());
    }
  } Finish{Root, Result};

  // The input must already be well-formed IR — catches corrupt
  // programmatically-built loops before any synthesis work.
  if (!verifyAt(L, VerifyPhase::AfterFrontend, Result)) {
    Result.TotalSeconds = secondsSince(StartTime);
    return Result;
  }

  // Wall-clock budgets: the whole-loop deadline caps everything; each
  // join-synthesis / lift call additionally gets its own per-phase budget.
  const Deadline Overall = Deadline::after(Options.TimeoutSeconds);
  auto joinDeadline = [&] {
    return Deadline::sooner(Overall,
                            Deadline::after(Options.JoinTimeoutSeconds));
  };

  // Index-reading loops always need the materialized position accumulator;
  // it is part of "the original form is not parallelizable" in our
  // offset-free model (see DESIGN.md).
  Loop Original = materializeIndex(L);
  Result.IndexMaterialized = Original.Equations.size() > L.Equations.size();
  if (!verifyAt(Original, VerifyPhase::AfterNormalize, Result)) {
    // Our index rewrite corrupted an otherwise-verified input: fall back to
    // executing the input loop as-is.
    Result.Final = L;
    Result.SequentialFallback = true;
    Result.TotalSeconds = secondsSince(StartTime);
    return Result;
  }
  Result.Dependences = analyzeDependences(Original);

  // Graceful degradation: on any failure below, hand back the verified
  // (index-materialized) input with an empty join. InterpReduce executes an
  // empty-join result sequentially and the C++ backend emits a sequential
  // program, so the pipeline never returns nothing runnable.
  auto failSequential = [&]() -> PipelineResult & {
    Result.Success = false;
    Result.Final = Original;
    Result.Join.Success = false;
    Result.Join.Components.clear();
    Result.Join.Proof = {};
    Result.SequentialFallback = true;
    Result.TotalSeconds = secondsSince(StartTime);
    return Result;
  };

  // Phase 1: join synthesis on the (index-materialized) original loop. The
  // empty-guard sketch extension stays off here so "parallelizable in
  // original form" means exactly the paper's C(E)+grammar space.
  Result.Join = runJoinSynthesis(Original, /*AllowEmptyGuard=*/false, Result,
                                 joinDeadline());
  Loop Work = Original;

  if (!Result.Join.Success) {
    // A timed-out phase 1 is not evidence that auxiliaries are required,
    // and every lifted loop is strictly larger than the original — its
    // join searches would time out too. Fail fast to honour the budget.
    if (Result.Join.Failure.Kind == FailureKind::Timeout ||
        Overall.expired()) {
      Result.Failure =
          Result.Join.Failure.Kind == FailureKind::Timeout
              ? Result.Join.Failure
              : FailureInfo{FailureKind::Timeout,
                            "pipeline deadline expired after phase-1 join "
                            "synthesis"};
      return failSequential();
    }
    Result.AuxRequired = true;

    // Phase 2: one lift, one join search on the lifted loop.
    if (Overall.expired()) {
      Result.Failure = {FailureKind::Timeout,
                        "pipeline deadline expired during lifting"};
      return failSequential();
    }
    MetricsRegistry::global().counter("pipeline.lift_attempts").inc();
    LiftResult Lift = liftLoop(
        L, Deadline::sooner(Overall,
                            Deadline::after(Options.LiftTimeoutSeconds)));
    Result.LiftSeconds = Lift.Seconds;
    Result.Unresolved = Lift.Unresolved;
    Result.AuxDiscovered = Lift.auxCount();
    Work = std::move(Lift.Lifted);
    if (!verifyAt(Work, VerifyPhase::AfterLift, Result))
      return failSequential();
    // A phase-1 witness says why the original loop has no join; a failure
    // of the lifted loop reports it too.
    std::string PhaseOneWitness =
        Result.Join.Stats.Refuted ? Result.Join.Failure.Message : "";
    Result.Join = runJoinSynthesis(Work, /*AllowEmptyGuard=*/true, Result,
                                   joinDeadline());
    if (!Result.Join.Success) {
      // A lift that stopped on its node ceiling or its deadline explains
      // the failure better than the join search on what it lifted.
      if (!Lift.Failure.empty())
        Result.Failure = Lift.Failure;
      else if (!Result.Join.Failure.empty())
        Result.Failure = Result.Join.Failure;
      else
        Result.Failure = {FailureKind::NotHomomorphic,
                          "lifting did not produce a joinable loop"};
      if (!PhaseOneWitness.empty())
        Result.Failure.Message += "; before lifting, " + PhaseOneWitness;
      // Keep the lifted loop's auxiliary figures for Table 1 even though
      // the runnable fallback is the original loop.
      Result.AuxCount = Work.auxiliaryCount();
      return failSequential();
    }
  } else {
    Result.AuxRequired = Result.IndexMaterialized;
  }

  // Phase 3: remove-redundancies — drop each auxiliary (latest first) whose
  // removal still admits a join.
  if (Work.auxiliaryCount() > 0) {
    Span Redundancy("removeRedundancies", trace::Pipeline);
    Redundancy.attr("aux_before", uint64_t(Work.auxiliaryCount()));
    std::vector<std::string> AuxNames;
    for (const Equation &Eq : Work.Equations)
      if (Eq.IsAuxiliary)
        AuxNames.push_back(Eq.Name);
    for (auto It = AuxNames.rbegin(); It != AuxNames.rend(); ++It) {
      // Redundancy removal is an optimization: with the budget gone, keep
      // the proven join we already have rather than failing.
      if (Overall.expired())
        break;
      Loop Candidate = Work;
      if (!removeEquation(Candidate, *It))
        continue;
      // The accepted join's components that do not read the dropped
      // auxiliary seed the retry; each still faces the retry's tests and
      // its CEGIS rounds' proofs.
      JoinResult Retry = runJoinSynthesis(
          Candidate, /*AllowEmptyGuard=*/true, Result, joinDeadline(),
          keptComponents(Work, Result.Join.Components, *It));
      if (Retry.Success) {
        Work = std::move(Candidate);
        Result.Join = std::move(Retry);
        Result.DroppedAux.push_back(*It + " (redundant)");
      }
    }
  }

  // Final gate: the loop and its join must verify before we hand either to
  // code generation or report success.
  if (!verifyAt(Work, VerifyPhase::BeforeCodegen, Result))
    return failSequential();
  VerifierReport JoinReport = verifyJoin(Work, Result.Join.Components);
  if (!JoinReport.ok()) {
    Result.Failure = {FailureKind::InternalError, JoinReport.str()};
    return failSequential();
  }
  Result.Dependences = analyzeDependences(Work);

  Result.Success = true;
  Result.Final = std::move(Work);
  Result.AuxCount = Result.Final.auxiliaryCount();
  // AuxRequired reports the phase-1 judgement (the paper's "parallelizable
  // in original form?" over the C(E)+grammar space). The final auxiliary
  // count can still be zero when the empty-guard extension finds a join no
  // plain sketch expresses (line-sight) — that combination is reported
  // as-is and discussed in EXPERIMENTS.md.
  Result.TotalSeconds = secondsSince(StartTime);
  return Result;
}

std::string PipelineResult::report() const {
  std::ostringstream OS;
  OS << (Success ? "PARALLELIZED" : "FAILED") << " "
     << (Final.Name.empty() ? "<loop>" : Final.Name) << "\n";
  OS << "  aux required: " << (AuxRequired ? "yes" : "no")
     << ", #aux: " << AuxCount << " (discovered " << AuxDiscovered << ")\n";
  if (!Dependences.Vars.empty()) {
    OS << "  dependence classes:";
    for (DepClass C : {DepClass::Constant, DepClass::IndependentFold,
                       DepClass::Conditional, DepClass::PrefixDependent})
      if (unsigned N = Dependences.count(C))
        OS << " " << depClassName(C) << "=" << N;
    OS << "\n";
  }
  if (SeedsAccepted)
    OS << "  join searches skipped via seeds: " << SeedsAccepted << "\n";
  if (Refuted)
    OS << "  join searches refuted by a witness: " << Refuted << "\n";
  if (!Failure.empty())
    OS << "  failure: " << Failure << "\n";
  if (SequentialFallback)
    OS << "  sequential fallback: loop remains runnable single-threaded\n";
  for (const std::string &Dropped : DroppedAux)
    OS << "  dropped: " << Dropped << "\n";
  for (const std::string &U : Unresolved)
    OS << "  unresolved: " << U << "\n";
  OS << Final.str();
  if (Success) {
    OS << "join:\n";
    for (size_t I = 0; I != Join.Components.size(); ++I)
      OS << "  " << Final.Equations[I].Name << " = "
         << exprToString(Join.Components[I]) << "\n";
  }
  return OS.str();
}
