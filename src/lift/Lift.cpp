//===- lift/Lift.cpp - Homomorphic lifting (Algorithm 1) ------------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "lift/Lift.h"
#include "analysis/Verifier.h"
#include "frontend/Convert.h"
#include "interp/CompiledExpr.h"
#include "interp/Interp.h"
#include "ir/ExprOps.h"
#include "lift/NormalForms.h"
#include "lift/Unfold.h"
#include "normalize/Simplify.h"
#include "observe/Metrics.h"
#include "observe/Tracer.h"
#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <set>
#include <sstream>

using namespace parsynt;

namespace {

/// The frames: how many, and the seed they are drawn from.
constexpr unsigned FrameSamples = 48;
constexpr uint64_t FrameSeed = 0x11f7;
/// The unfolding depth (the paper's k): 3 suffices for every Table-1 loop.
constexpr unsigned K = 3;

/// True if \p E references a per-step input ("s@k").
bool hasStepInput(const ExprRef &E) {
  bool Found = false;
  forEachNode(E, [&](const ExprRef &Node) {
    if (const auto *V = dyn_cast<VarExpr>(Node))
      if (V->varClass() == VarClass::Input &&
          V->name().find('@') != std::string::npos)
        Found = true;
  });
  return Found;
}

/// True if \p Part occurs in \p Parts.
bool partPresent(const ExprRef &Part, const std::vector<ExprRef> &Parts) {
  return std::find(Parts.begin(), Parts.end(), Part) != Parts.end();
}

/// Collects the maximal unknown-free subexpressions of \p E that read at
/// least one per-step input (the 'collect' of Algorithm 1). Integer
/// literals adjacent to unknowns are also collected: a literal that varies
/// across unfoldings is a constant-family accumulator (atoi's power of the
/// base); non-varying literals are filtered by the caller. A part that
/// occurs twice is kept once, at its first occurrence.
void collectParts(const ExprRef &E, std::vector<ExprRef> &Out) {
  if (!containsVarClass(E, VarClass::Unknown)) {
    if ((hasStepInput(E) || isa<IntConstExpr>(E)) && !partPresent(E, Out))
      Out.push_back(E);
    return;
  }
  for (const ExprRef &Child : children(E))
    collectParts(Child, Out);
}

/// The lifting engine. Owns the unfoldings, the sampled frames, and the
/// evolving lifted loop.
class Lifter {
public:
  Lifter(const Loop &Input, const Deadline &Timeout)
      : Timeout(Timeout), Work(materializeIndex(Input)), Frames(Work, K) {
    Result.IndexMaterialized = Work.Equations.size() > Input.Equations.size();
    if (Result.IndexMaterialized)
      Result.Notes.push_back(
          "loop reads its index; materialized position accumulator '_pos'");
    {
      Span U("unfold", trace::Lift);
      U.attr("from", "init");
      U.attr("depth", uint64_t(K));
      FromInit = unfoldLoop(Work, K, /*FromUnknowns=*/false);
      U.attr("exceeded", FromInit.Exceeded);
    }
    noteIfExceeded("from-initialization");
  }

  LiftResult run();

private:
  /// Records a BudgetExhausted failure (and aborts further discovery) when
  /// the last unfolding hit the node ceiling.
  void noteIfExceeded(const char *Which) {
    if (!FromInit.Exceeded || Aborted)
      return;
    Aborted = true;
    Result.Failure = {
        FailureKind::BudgetExhausted,
        std::string("unfolding (") + Which + ") exceeded the " +
            std::to_string(UnfoldNodeCeiling) +
            "-node expression ceiling at step " +
            std::to_string(FromInit.Steps + 1) +
            "; the loop's updates grow too fast to lift at this depth"};
  }

  /// Semantic equality of two step-input expressions over all frames.
  bool equivOnFrames(const ExprRef &A, const ExprRef &B) const {
    return A->type() == B->type() && Frames.column(A) == Frames.column(B);
  }

  /// True if \p Part is semantically the step-\p Step value of an existing
  /// state variable or discovered auxiliary.
  bool isCovered(const ExprRef &Part, unsigned Step) const;

  /// Folding: rewrites the step-\p Step expression \p Part over
  /// {aux, state vars, s[i], params}. Returns null on failure. \p MatchedPrev
  /// receives the step-(Step-1) expression the auxiliary reference stands
  /// for (null if the fold needed no auxiliary reference).
  ExprRef foldBack(const ExprRef &Part, unsigned Step, Type AuxTy,
                   const std::vector<ExprRef> &PrevParts,
                   ExprRef &MatchedPrev) const;

  /// Simulates the accumulator (Update=G, Init=C) alongside the loop on
  /// every frame and checks it reproduces \p Part at step \p Step (and
  /// \p Prev at Step-1 when non-null). When \p Step < K, the accumulator's
  /// step-K value must additionally coincide with one of the step-K
  /// collected parts (\p PartsAtK) — a family that stops matching at later
  /// unfoldings was mis-folded, so reject it (this kills "memoryless"
  /// mis-generalizations that happen to agree at a single step).
  bool validateAccumulator(const ExprRef &G, const ExprRef &C,
                           const ExprRef &Part, unsigned Step,
                           const ExprRef &Prev,
                           const std::vector<ExprRef> &PartsAtK) const;

  /// Tries to derive a full accumulator for \p Part at \p Step; on success
  /// registers it (extending Work and FromInit) and returns true.
  bool deriveAccumulator(const ExprRef &Part, unsigned Step,
                         const std::vector<ExprRef> &PrevParts,
                         const std::vector<ExprRef> &PartsAtK);

  /// Adds the guarded first-step fallback: ite(<at-start>, E1, G).
  ExprRef guardedUpdate(const ExprRef &G, const ExprRef &Part, unsigned Step,
                        const std::vector<ExprRef> &PrevParts,
                        const std::vector<ExprRef> &PartsAtK);

  /// Registers the accumulator as a new equation of Work.
  void registerAux(const ExprRef &Definition, const ExprRef &Update,
                   const ExprRef &Init);

  /// Cooperative cancellation, polled per unfolding step and per
  /// fixpoint equation, and by the normalizer once per expansion.
  Deadline Timeout;
  Loop Work; ///< input + materialized index + discovered auxiliaries
  /// Over Work's parameters and sequences, which adding an auxiliary never
  /// changes.
  LiftFrames Frames;
  /// Set when an unfolding hit the node ceiling; discovery stops.
  bool Aborted = false;
  Unfolding FromInit; ///< of Work, refreshed when an auxiliary is added
  LiftResult Result;
};

} // namespace

LiftFrames::LiftFrames(const Loop &L, unsigned K) {
  std::set<int64_t> PoolSet = {-2, -1, 0, 1, 2, 3};
  for (const Equation &Eq : L.Equations) {
    forEachNode(Eq.Update, [&](const ExprRef &Node) {
      if (const auto *C = dyn_cast<IntConstExpr>(Node)) {
        if (std::abs(C->value()) > 1000)
          return;
        PoolSet.insert(C->value());
        PoolSet.insert(C->value() + 1);
        PoolSet.insert(C->value() - 1);
      }
    });
  }
  std::vector<int64_t> Pool(PoolSet.begin(), PoolSet.end());
  for (const ParamDecl &P : L.Params)
    Names.push_back(P.Name);
  for (const SeqDecl &S : L.Sequences)
    for (unsigned Step = 1; Step <= K; ++Step)
      Names.push_back(stepInputName(S.Name, Step));
  NumFrames = FrameSamples;
  Rows.reserve(NumFrames * Names.size());
  Rng R(FrameSeed);
  for (size_t F = 0; F != NumFrames; ++F) {
    for (const ParamDecl &P : L.Params)
      Rows.push_back(P.Ty == Type::Int ? R.intIn(-3, 3) : R.flip());
    for (size_t E = 0; E != L.Sequences.size() * K; ++E)
      Rows.push_back(Pool[R.index(Pool.size())]);
  }
}

std::vector<int64_t> LiftFrames::column(const ExprRef &E) const {
  std::vector<std::string> Inputs = Names;
  CompiledExpr Code({E}, Inputs);
  assert(Inputs.size() == Names.size() &&
         "a frame expression reads parameters and step inputs only");
  std::vector<int64_t> Regs = Code.makeRegisters(), Values(NumFrames);
  for (size_t F = 0; F != NumFrames; ++F) {
    std::copy_n(row(F), Names.size(), Regs.begin());
    Values[F] = Code.run(Regs.data());
  }
  return Values;
}

namespace {

bool Lifter::isCovered(const ExprRef &Part, unsigned Step) const {
  for (const Equation &Eq : Work.Equations) {
    const auto &Values = FromInit.ValuesAtStep.at(Eq.Name);
    if (Values.size() <= Step)
      continue; // truncated unfolding (node ceiling)
    const ExprRef &AtStep = Values[Step];
    if (AtStep->type() == Part->type() && equivOnFrames(Part, AtStep))
      return true;
  }
  return false;
}

ExprRef Lifter::foldBack(const ExprRef &Part, unsigned Step, Type AuxTy,
                         const std::vector<ExprRef> &PrevParts,
                         ExprRef &MatchedPrev) const {
  // Whole-term matches, in priority order.
  if (Part->type() == AuxTy) {
    for (const ExprRef &Prev : PrevParts) {
      if (Prev->type() == AuxTy && equivOnFrames(Part, Prev)) {
        MatchedPrev = Prev;
        return stateVar("?aux", AuxTy);
      }
    }
  }
  for (const SeqDecl &S : Work.Sequences) {
    if (Part->type() == S.ElemTy &&
        equivOnFrames(Part, inputVar(stepInputName(S.Name, Step), S.ElemTy)))
      return seqAccess(S.Name, inputVar(Work.IndexName, Type::Int), S.ElemTy);
  }
  for (const Equation &Eq : Work.Equations) {
    if (Eq.Ty != Part->type())
      continue;
    const auto &Values = FromInit.ValuesAtStep.at(Eq.Name);
    if (Values.size() < Step)
      continue; // truncated unfolding (node ceiling)
    if (equivOnFrames(Part, Values[Step - 1]))
      return stateVar(Eq.Name, Eq.Ty);
  }
  for (const Equation &Eq : Work.Equations) {
    if (Eq.Ty != Part->type())
      continue;
    const auto &Values = FromInit.ValuesAtStep.at(Eq.Name);
    if (Values.size() <= Step)
      continue;
    // Step-k value of a state variable: inline its update expression (the
    // accumulator reads the pre-update state, so the update is evaluated in
    // place).
    if (equivOnFrames(Part, Values[Step]))
      return Eq.Update;
  }

  switch (Part->kind()) {
  case ExprKind::IntConst:
  case ExprKind::BoolConst:
    return Part;
  case ExprKind::Var: {
    const auto *V = cast<VarExpr>(Part);
    // Parameters survive; unmatched step inputs are a fold failure.
    if (V->name().find('@') == std::string::npos)
      return Part;
    return nullptr;
  }
  default:
    break;
  }

  // Recurse into children; any child failure aborts the fold.
  bool Failed = false;
  ExprRef Rebuilt = mapChildren(Part, [&](const ExprRef &Child) -> ExprRef {
    ExprRef Folded =
        foldBack(Child, Step, AuxTy, PrevParts, MatchedPrev);
    if (!Folded) {
      Failed = true;
      return Child; // placeholder; result discarded
    }
    return Folded;
  });
  return Failed ? nullptr : Rebuilt;
}

bool Lifter::validateAccumulator(const ExprRef &G, const ExprRef &C,
                                 const ExprRef &Part, unsigned Step,
                                 const ExprRef &Prev,
                                 const std::vector<ExprRef> &PartsAtK) const {
  // Run the loop with the candidate accumulator alongside on every frame.
  Loop Candidate = Work;
  Candidate.Equations.push_back({"?aux", Part->type(), C, G});
  const CompiledLoop Code(Candidate);
  CompiledLoop::Registers Regs = Code.makeRegisters();
  const size_t Width = Candidate.Equations.size();
  std::vector<int64_t> States((K + 1) * Width);
  // AuxAt[J * Frames.size() + F]: the accumulator after J iterations of
  // frame F.
  std::vector<int64_t> AuxAt((K + 1) * Frames.size());
  for (size_t F = 0; F != Frames.size(); ++F) {
    Code.runRaw(Frames.row(F), K, States.data(), Regs);
    for (unsigned J = 0; J <= K; ++J)
      AuxAt[J * Frames.size() + F] = States[J * Width + Width - 1];
  }
  auto reproduces = [&](const ExprRef &E, unsigned J) {
    std::vector<int64_t> Expected = Frames.column(E);
    return std::equal(Expected.begin(), Expected.end(),
                      AuxAt.begin() + J * Frames.size());
  };
  if (Prev && Step > 1 && !reproduces(Prev, Step - 1))
    return false;
  if (!reproduces(Part, Step))
    return false;
  if (Step == K)
    return true;
  // Future consistency: the accumulator's step-K value must match the
  // *same* step-K part on every frame.
  for (const ExprRef &P : PartsAtK)
    if (P->type() == Part->type() && reproduces(P, K))
      return true;
  return false;
}

ExprRef Lifter::guardedUpdate(const ExprRef &G, const ExprRef &Part,
                              unsigned Step,
                              const std::vector<ExprRef> &PrevParts,
                              const std::vector<ExprRef> &PartsAtK) {
  // Fold the family's first-step expression over the step-1 frame. Use the
  // step-(Step-1) member if the family is flat, otherwise Part itself at
  // step 1 is unavailable and the guarded form does not apply.
  ExprRef E1;
  for (const ExprRef &Prev : PrevParts) {
    if (Prev->type() != Part->type())
      continue;
    ExprRef Ignored;
    if (ExprRef Folded = foldBack(Prev, 1, Part->type(), {}, Ignored)) {
      E1 = Folded;
      break;
    }
  }
  if (!E1) {
    ExprRef Ignored;
    E1 = foldBack(Part, 1, Part->type(), {}, Ignored);
  }
  if (!E1 || E1->type() != Part->type())
    return nullptr;

  // Guard candidates: "<state> == <literal init>" for each state variable
  // with a literal initial value (e.g. prev == MIN_INT before the first
  // element).
  std::vector<ExprRef> Guards;
  for (const Equation &Eq : Work.Equations) {
    if (isa<IntConstExpr>(Eq.Init) || isa<BoolConstExpr>(Eq.Init))
      Guards.push_back(eq(stateVar(Eq.Name, Eq.Ty), Eq.Init));
  }
  ExprRef InitCand =
      Part->type() == Type::Int ? intConst(0) : boolConst(false);
  for (const ExprRef &Guard : Guards) {
    ExprRef Candidate = ite(Guard, E1, G);
    if (validateAccumulator(Candidate, InitCand, Part, Step, nullptr,
                            PartsAtK))
      return Candidate;
  }

  // Last resort: guard on the explicit position accumulator, materializing
  // it on demand (the paper's TBB backend gets the global index for free;
  // in the offset-free model position knowledge is itself an accumulator).
  if (!Work.findEquation("_pos")) {
    Equation Pos;
    Pos.Name = "_pos";
    Pos.Ty = Type::Int;
    Pos.Init = intConst(0);
    Pos.Update = add(stateVar("_pos", Type::Int), intConst(1));
    Pos.IsAuxiliary = true;
    Work.Equations.push_back(std::move(Pos));
    FromInit = unfoldLoop(Work, K, /*FromUnknowns=*/false);
    noteIfExceeded("position-guard refresh");
    Result.Notes.push_back("materialized '_pos' for a start-guarded "
                           "accumulator");
    ExprRef Guard = eq(stateVar("_pos", Type::Int), intConst(0));
    ExprRef Candidate = ite(Guard, E1, G);
    if (!Aborted && validateAccumulator(Candidate, InitCand, Part, Step,
                                        nullptr, PartsAtK))
      return Candidate;
    // Undo: the guard did not validate.
    Work.Equations.pop_back();
    FromInit = unfoldLoop(Work, K, /*FromUnknowns=*/false);
    Result.Notes.pop_back();
  }
  return nullptr;
}

void Lifter::registerAux(const ExprRef &Definition, const ExprRef &Update,
                         const ExprRef &Init) {
  std::string Name = "aux" + std::to_string(Result.Auxiliaries.size());
  Substitution Subst;
  Subst["?aux"] = stateVar(Name, Definition->type());
  ExprRef Renamed = substitute(Update, Subst);

  Equation Eq;
  Eq.Name = Name;
  Eq.Ty = Definition->type();
  Eq.Init = Init;
  Eq.Update = Renamed;
  Eq.IsAuxiliary = true;
  Work.Equations.push_back(Eq);

  Result.Auxiliaries.push_back({Name, Eq.Ty, Definition, Renamed, Init});
  // Refresh the from-initialization unfolding so later coverage checks see
  // the new accumulator.
  {
    Span U("unfold", trace::Lift);
    U.attr("from", "aux-refresh");
    U.attr("aux", Name);
    U.attr("depth", uint64_t(K));
    FromInit = unfoldLoop(Work, K, /*FromUnknowns=*/false);
    U.attr("exceeded", FromInit.Exceeded);
  }
  noteIfExceeded("auxiliary refresh");
}

bool Lifter::deriveAccumulator(const ExprRef &Part, unsigned Step,
                               const std::vector<ExprRef> &PrevParts,
                               const std::vector<ExprRef> &PartsAtK) {
  // Constant families (atoi's 10, 100, 1000, ...): geometric or arithmetic
  // progressions against the previous step's literals.
  if (const auto *PartC = dyn_cast<IntConstExpr>(Part)) {
    ExprRef AuxVar = stateVar("?aux", Type::Int);
    for (const ExprRef &Prev : PrevParts) {
      const auto *PrevC = dyn_cast<IntConstExpr>(Prev);
      if (!PrevC || PrevC->value() == PartC->value())
        continue;
      std::vector<ExprRef> Updates;
      if (PrevC->value() != 0 && PartC->value() % PrevC->value() == 0)
        Updates.push_back(
            mul(AuxVar, intConst(PartC->value() / PrevC->value())));
      Updates.push_back(
          add(AuxVar, intConst(PartC->value() - PrevC->value())));
      for (const ExprRef &G : Updates) {
        for (int64_t C0 : {int64_t(1), int64_t(0), int64_t(-1)}) {
          if (validateAccumulator(G, intConst(C0), Part, Step, Prev,
                                  PartsAtK)) {
            registerAux(Part, G, intConst(C0));
            return true;
          }
        }
      }
    }
    return false;
  }

  ExprRef MatchedPrev;
  ExprRef G = foldBack(Part, Step, Part->type(), PrevParts, MatchedPrev);
  if (!G)
    return false;
  G = simplify(G);

  // Initial-value menu (paper: auxiliary accumulators are initialized with
  // neutral constants; the menu covers the identities of the operators in
  // the grammar).
  std::vector<ExprRef> InitMenu;
  if (Part->type() == Type::Int)
    InitMenu = {intConst(0), intConst(1), intConst(-1),
                intConst(MinIntSentinel), intConst(MaxIntSentinel)};
  else
    InitMenu = {boolConst(false), boolConst(true)};
  for (const ExprRef &C : InitMenu) {
    if (validateAccumulator(G, C, Part, Step, MatchedPrev, PartsAtK)) {
      registerAux(Part, G, C);
      return true;
    }
  }
  // Initialization-dependent accumulator (e.g. "first element"): guard the
  // first step.
  if (ExprRef Guarded = guardedUpdate(G, Part, Step, PrevParts, PartsAtK)) {
    registerAux(Part, Guarded,
                Part->type() == Type::Int ? intConst(0) : boolConst(false));
    return true;
  }
  return false;
}

LiftResult Lifter::run() {
  auto StartTime = std::chrono::steady_clock::now();
  auto finish = [&]() -> LiftResult {
    Result.Lifted = Work;
    Result.Seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      StartTime)
            .count();
    return Result;
  };

  // The constructor's from-initialization unfolding already hit the node
  // ceiling: nothing can be discovered at this depth.
  if (Aborted)
    return finish();

  // Unfold the *input* part of the loop from the symbolic split state.
  Unfolding FromUnknown;
  {
    Span U("unfold", trace::Lift);
    U.attr("from", "unknowns");
    U.attr("depth", uint64_t(K));
    FromUnknown = unfoldLoop(Work, K, /*FromUnknowns=*/true);
    U.attr("exceeded", FromUnknown.Exceeded);
  }
  if (FromUnknown.Exceeded) {
    Result.Failure = {
        FailureKind::BudgetExhausted,
        "unfolding (from split unknowns) exceeded the " +
            std::to_string(UnfoldNodeCeiling) +
            "-node expression ceiling at step " +
            std::to_string(FromUnknown.Steps + 1) +
            "; the loop's updates grow too fast to lift at this depth"};
    return finish();
  }

  std::set<std::string> Unknowns;
  for (const Equation &Eq : Work.Equations)
    Unknowns.insert(unknownName(Eq.Name));

  // Normalize every unfolding and collect candidate parts per step. The
  // normal forms depend only on the input equations, so they are computed
  // once and reused across fixpoint passes.
  std::vector<Equation> OriginalEqs = Work.Equations; // aux added during run
  // Dependency order: variables whose updates read fewer *other* state
  // variables first (mts before mss), so their accumulators are available
  // when the dependent variable's parts are folded.
  std::stable_sort(OriginalEqs.begin(), OriginalEqs.end(),
                   [](const Equation &A, const Equation &B) {
                     auto OtherReads = [](const Equation &Eq) {
                       size_t Count = 0;
                       for (const std::string &V :
                            collectVars(Eq.Update, VarClass::State))
                         if (V != Eq.Name)
                           ++Count;
                       return Count;
                     };
                     return OtherReads(A) < OtherReads(B);
                   });
  std::map<std::string, std::vector<std::vector<ExprRef>>> PartsByEq;
  for (const Equation &Eq : OriginalEqs) {
    if (Eq.IsAuxiliary)
      continue; // the materialized position accumulator needs no lifting
    Span NormSpan("normalizeUnfoldings", trace::Lift);
    NormSpan.attr("equation", Eq.Name);
    NormSpan.attr("steps", uint64_t(K));
    std::vector<std::vector<ExprRef>> Parts(K + 1);
    auto normalizeTimedOut = [&] {
      Result.Failure = {FailureKind::Timeout,
                        "lifting deadline expired while normalizing the "
                        "unfoldings of '" +
                            Eq.Name + "'"};
      return finish();
    };
    for (unsigned Step = 1; Step <= K; ++Step) {
      if (Timeout.expired())
        return normalizeTimedOut();
      ExprRef Tau = FromUnknown.ValuesAtStep.at(Eq.Name)[Step];
      // Canonical domain-specific normal forms first; the generic
      // cost-directed search is the fallback.
      ExprRef Ell = tropicalNormalize(Tau, Unknowns);
      if (!Ell)
        Ell = booleanNormalize(Tau, Unknowns);
      if (!Ell) {
        NormalizeOptions NormOpts;
        NormOpts.Timeout = Timeout;
        NormalizeStats NormStats;
        Ell = normalizeExpr(Tau, Unknowns, NormOpts, &NormStats);
        if (NormStats.TimedOut)
          return normalizeTimedOut();
      }
      VerifierReport Report = verifyExpr(Ell, VerifyPhase::AfterNormalize,
                                         /*AllowUnknowns=*/true);
      if (!Report.ok()) {
        // A rewriter bug, not a property of the input: skip the corrupt
        // normal form rather than collecting parts from it.
        Result.Notes.push_back("verifier rejected normal form of " + Eq.Name +
                               " step " + std::to_string(Step) + ": " +
                               Report.str());
        continue;
      }
      collectParts(Ell, Parts[Step]);
    }
    PartsByEq.emplace(Eq.Name, std::move(Parts));
  }

  // Fixpoint over the equation system: an accumulator discovered for one
  // variable (e.g. mts's running sum) can be the missing ingredient of a
  // later variable's fold (e.g. mss's max-prefix-sum), so iterate until no
  // pass adds an auxiliary — the 'while Aux != OldAux' of Algorithm 1.
  const unsigned MaxPasses = 4;
  for (unsigned Pass = 0; Pass != MaxPasses && !Aborted; ++Pass) {
    Span PassSpan("fixpointPass", trace::Lift);
    PassSpan.attr("pass", uint64_t(Pass));
    size_t AuxBase = Result.Auxiliaries.size();
    Result.Unresolved.clear();
    bool Changed = false;
    for (const Equation &Eq : OriginalEqs) {
      if (Timeout.expired()) {
        // Keep whatever auxiliaries are already registered: a partially
        // lifted loop is still a valid loop.
        Result.Failure = {FailureKind::Timeout,
                          "lifting deadline expired during accumulator "
                          "discovery (pass " +
                              std::to_string(Pass + 1) + ")"};
        return finish();
      }
      auto PartsIt = PartsByEq.find(Eq.Name);
      if (PartsIt == PartsByEq.end())
        continue;
      const auto &Parts = PartsIt->second;
      for (unsigned Step = 2; Step <= K && !Aborted; ++Step) {
        for (const ExprRef &Part : Parts[Step]) {
          // A literal repeated from the previous step is a fixed constant —
          // always available to a join, never an accumulator.
          if (isa<IntConstExpr>(Part) && partPresent(Part, Parts[Step - 1]))
            continue;
          if (isCovered(Part, Step))
            continue;
          if (deriveAccumulator(Part, Step, Parts[Step - 1], Parts[K]))
            Changed = true;
          else
            Result.Unresolved.push_back(Eq.Name + "@" +
                                        std::to_string(Step) + ": " +
                                        exprToString(Part));
        }
      }
    }
    std::string Discovered;
    for (size_t A = AuxBase; A != Result.Auxiliaries.size(); ++A) {
      if (!Discovered.empty())
        Discovered += ",";
      Discovered += Result.Auxiliaries[A].Name;
    }
    PassSpan.attr("discovered", Discovered);
    PassSpan.attr("changed", Changed);
    if (!Changed)
      break;
  }

  return finish();
}

} // namespace

LiftResult parsynt::liftLoop(const Loop &L, const Deadline &Timeout) {
  Span Root("liftLoop", trace::Lift);
  Root.attr("loop", L.Name.empty() ? "<loop>" : L.Name);
  Root.attr("depth", uint64_t(K));
  Lifter Engine(L, Timeout);
  LiftResult Result = Engine.run();
  Root.attr("aux_discovered", uint64_t(Result.auxCount()));
  Root.attr("unresolved", uint64_t(Result.Unresolved.size()));

  MetricsRegistry &M = MetricsRegistry::global();
  M.counter("lift.calls").inc();
  M.counter("lift.aux_discovered").add(Result.auxCount());
  M.counter("lift.unresolved").add(Result.Unresolved.size());
  M.histogram("lift.millis")
      .observe(static_cast<uint64_t>(Result.Seconds * 1e3));
  return Result;
}
