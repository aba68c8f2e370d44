//===- perfbench/synth.cpp - The quick-loops and search-loops workloads ---===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// One pass sends every loop of the workload through the public layer calls
// (parseLoop, analyzeDependences, parallelizeLoop, checkHomomorphismProof,
// verifyJoin, emitParallelCpp), timing each call from outside and reading
// the registry's exact counters around the pipeline and proof calls. After
// the timed passes every synthesized join runs on a seeded held-out input:
// runLoop on the original loop against parallelRunLoop on the lifted loop
// at 1 and nproc threads.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "analysis/DependenceGraph.h"
#include "analysis/Verifier.h"
#include "codegen/EmitCpp.h"
#include "frontend/Convert.h"
#include "ir/ExprOps.h"
#include "observe/Metrics.h"
#include "observe/Report.h"
#include "pipeline/Parallelizer.h"
#include "proof/ProofCheck.h"
#include "runtime/InterpReduce.h"
#include "suite/Benchmarks.h"
#include "suite/Kernels.h"
#include "support/Random.h"
#include "synth/JoinSynth.h"

#include <algorithm>
#include <optional>

using namespace parsynt;

namespace perfbench {
namespace {

/// Registry counters attributed to each loop. Synthesis is deterministic, so
/// every one of them repeats exactly between passes and between runs of the
/// same code.
const char *const ExactCounters[] = {
    "synth.sketch.assignments", "synth.candidates.enumerated",
    "synth.cegis.rounds",       "synth.calls",
    "synth.seeds.accepted",     "synth.restriction.retries",
    "oracle.counterexamples",   "lift.calls",
    "lift.aux_discovered",      "normalize.expanded",
    "normalize.rule_hits",      "proof.base_checks",
    "proof.step_checks"};

/// Held-out input length and grain (32 leaves, enough to keep nproc
/// threads busy). Single parallel runs of a few milliseconds scatter widely
/// on a shared host, so every loop runs ProgramRounds times and the report
/// takes medians. The first few set-ups of a process run cold (page faults,
/// cold caches) at up to three times the steady time, so the set-up is
/// repeated often enough that its median lies well past them.
constexpr size_t HeldOutElements = size_t(1) << 17;
constexpr size_t HeldOutGrain = size_t(1) << 12;
constexpr unsigned ProgramRounds = 5;
constexpr unsigned SetupReps = 25;

uint64_t fnv1a(const std::string &S, uint64_t H) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

struct HeldOut {
  SeqEnv Seqs;
  Env Params;
};

/// A seeded input in the value domain of the loop's Figure-8 kernel
/// (digits for atoi, bits for 0after1, ...), so no operation can fail on
/// a domain error.
HeldOut makeHeldOut(const Loop &L, uint64_t Seed) {
  const NativeKernel *K = findKernel(L.Name);
  InputKind Kind = K ? K->Kind : InputKind::Random;
  uint64_t S = fnv1a(L.Name, 1469598103934665603ull ^ Seed);
  HeldOut In;
  for (size_t J = 0; J != L.Sequences.size(); ++J) {
    std::vector<int64_t> Raw = generateInput(Kind, HeldOutElements, S + J);
    bool IsBool = L.Sequences[J].ElemTy == Type::Bool;
    std::vector<Value> Vals;
    Vals.reserve(Raw.size());
    for (int64_t V : Raw)
      Vals.push_back(IsBool ? Value::ofBool(V & 1) : Value::ofInt(V));
    In.Seqs[L.Sequences[J].Name] = std::move(Vals);
  }
  Rng R(S);
  for (const ParamDecl &P : L.Params)
    In.Params[P.Name] = P.Ty == Type::Bool ? Value::ofBool(R.flip())
                                           : Value::ofInt(R.intIn(-3, 3));
  return In;
}

struct Prepared {
  const Benchmark *B = nullptr;
  Loop Original;
  HeldOut Input;
};

/// Suite parsing plus held-out input generation: the synthesis workloads'
/// set-up.
std::vector<Prepared> prepare(const std::vector<std::string> &Names,
                              uint64_t Seed) {
  std::vector<Prepared> Out;
  for (const std::string &Name : Names) {
    const Benchmark *B = findBenchmark(Name);
    if (!B) {
      std::fprintf(stderr, "perfbench: unknown loop %s\n", Name.c_str());
      std::exit(2);
    }
    Prepared P;
    P.B = B;
    P.Original = parseBenchmark(*B);
    P.Input = makeHeldOut(P.Original, Seed);
    Out.push_back(std::move(P));
  }
  return Out;
}

std::map<std::string, uint64_t>
exactDeltas(const MetricsRegistry::Snapshot &Before,
            const MetricsRegistry::Snapshot &After) {
  std::map<std::string, uint64_t> Out;
  for (const char *Name : ExactCounters)
    Out[Name] = 0;
  for (const auto &KV : counterDeltas(Before, After))
    if (Out.count(KV.first))
      Out[KV.first] = KV.second;
  return Out;
}

/// The pass-level gates on one loop: it parallelized, the proof check
/// accepted the join, and the join is well formed. Returns the failure, or
/// an empty string.
std::string checkGates(const PipelineResult &R, const ProofReport &Proof,
                       const VerifierReport &Verify) {
  if (!R.Success)
    return "not parallelized: " + R.Failure.str();
  if (!Proof.Verified)
    return "proof rejected the join: " + Proof.str();
  if (!Verify.ok())
    return "verifyJoin failed: " + Verify.str();
  return "";
}

/// Runs one pass and returns each loop's pipeline result.
std::vector<PipelineResult> runPass(const std::vector<Prepared> &Loops,
                                    bool Traced, RunData &D) {
  PassSample P;
  P.Traced = Traced;
  std::vector<PipelineResult> Results;
  MetricsRegistry &Registry = MetricsRegistry::global();
  // The reference work runs before the first loop and after every loop,
  // outside the loops' timings.
  P.Refs.push_back(referenceSeconds(1));
  auto Finish = [&](const std::string &Name, double T0, double Cpu0) {
    double End = now();
    P.LoopWall[Name] = End - T0;
    P.Wall += End - T0;
    P.Cpu += cpuNow() - Cpu0;
    P.Refs.push_back(referenceSeconds(1));
  };
  for (const Prepared &Item : Loops) {
    const std::string &Name = Item.B->Name;
    double T0 = now(), Cpu0 = cpuNow();
    DiagnosticEngine Diags;
    std::optional<Loop> L;
    {
      Span S("perfbench.parse", trace::Frontend);
      L = parseLoop(Item.B->Source, Name, Diags);
    }
    double T1 = now();
    P.Layers["frontend.parse_s"] += T1 - T0;
    if (!L) {
      Finish(Name, T0, Cpu0);
      D.Operations.record(false, Name + ": parse failed");
      Results.emplace_back();
      continue;
    }
    {
      Span S("perfbench.dependences", trace::Analysis);
      DependenceInfo Deps = analyzeDependences(*L);
      (void)Deps;
    }
    MetricsRegistry::Snapshot Before = Registry.snapshot();
    double T2 = now();
    P.Layers["analysis.dependence_s"] += T2 - T1;
    PipelineResult R;
    {
      Span S("perfbench.parallelize", trace::Pipeline);
      R = parallelizeLoop(*L);
    }
    double T3 = now();
    P.Layers["pipeline.parallelize_s"] += T3 - T2;
    P.Layers["pipeline.join_s"] += R.JoinSeconds;
    P.Layers["pipeline.lift_s"] += R.LiftSeconds;
    ProofReport Proof;
    if (R.Success) {
      Span S("perfbench.proof", trace::Proof);
      Proof = checkHomomorphismProof(R.Final, R.Join.Components);
    }
    double T4 = now();
    P.Layers["proof.check_s"] += T4 - T3;
    MetricsRegistry::Snapshot After = Registry.snapshot();
    double T5 = now();
    VerifierReport Verify;
    {
      Span S("perfbench.verify_join", trace::Analysis);
      Verify = verifyJoin(R.Final, R.Join.Components);
    }
    double T6 = now();
    P.Layers["analysis.verify_s"] += T6 - T5;
    std::string Code;
    {
      Span S("perfbench.emit", trace::Codegen);
      Code = emitParallelCpp(R.Final, R.Join.Components);
    }
    P.Layers["codegen.emit_s"] += now() - T6;
    Finish(Name, T0, Cpu0);
    P.Layers["codegen.bytes"] += double(Code.size());

    std::string Why = checkGates(R, Proof, Verify);
    D.Operations.record(Why.empty(), Name + ": " + Why);

    std::string Join = joinToString(R.Final, R.Join.Components);
    std::map<std::string, uint64_t> Counters = exactDeltas(Before, After);
    auto It = std::find_if(D.Loops.begin(), D.Loops.end(),
                           [&](const LoopRecord &Rec) {
                             return Rec.Name == Name;
                           });
    if (It == D.Loops.end())
      D.Loops.push_back({Name, Join, Counters, true});
    else if (It->Join != Join || It->Counters != Counters)
      It->Stable = false;
    Results.push_back(std::move(R));
  }
  D.Passes.push_back(std::move(P));
  return Results;
}

/// Values of the original loop's outputs in a state of \p L (the lifted
/// loop keeps the original variables under their names).
std::vector<Value> outputsOf(const Loop &Original, const Loop &L,
                             const StateTuple &State) {
  Env E = stateToEnv(L, State);
  std::vector<Value> Out;
  for (const std::string &Name : Original.outputNames())
    Out.push_back(E.at(Name));
  return Out;
}

/// One {seq, par1, parN} repetition of a synthesized loop on its held-out
/// input. Returns whether both parallel results equal the sequential one.
bool runProgramRep(const Prepared &Item, const PipelineResult &R,
                   const std::vector<ExprRef> &Join, TaskPool &Pool1,
                   TaskPool &PoolN, ProgramSamples &Out) {
  double T0 = now(), Cpu0 = cpuNow();
  StateTuple Seq = runLoop(Item.Original, Item.Input.Seqs, Item.Input.Params);
  double T1 = now();
  StateTuple Par1 = parallelRunLoop(R.Final, Join, Item.Input.Seqs, Pool1,
                                    HeldOutGrain, Item.Input.Params);
  double T2 = now();
  PoolN.resetStats();
  StateTuple ParN = parallelRunLoop(R.Final, Join, Item.Input.Seqs, PoolN,
                                    HeldOutGrain, Item.Input.Params);
  double T3 = now();
  StatsSnapshot Snap = PoolN.statsSnapshot();
  Out.Reps.push_back({T1 - T0, T2 - T1, T3 - T2, cpuNow() - Cpu0});
  Out.Pool.push_back({Snap.Total.Spawned, Snap.Total.Stolen,
                      Snap.Total.StealFails, Snap.Total.Parks,
                      Snap.Total.Inlined});
  std::vector<Value> Expected = outputsOf(Item.Original, Item.Original, Seq);
  return outputsOf(Item.Original, R.Final, Par1) == Expected &&
         outputsOf(Item.Original, R.Final, ParN) == Expected;
}

/// The join with every `<v>_l` and `<v>_r` operand exchanged: wrong for
/// any loop whose join is not symmetric (mts, mps).
std::vector<ExprRef> swapSides(const Loop &L,
                               const std::vector<ExprRef> &Join) {
  Substitution Swap;
  for (const Equation &E : L.Equations) {
    Swap[E.Name + "_l"] = inputVar(E.Name + "_r", E.Ty);
    Swap[E.Name + "_r"] = inputVar(E.Name + "_l", E.Ty);
  }
  std::vector<ExprRef> Out;
  for (const ExprRef &C : Join)
    Out.push_back(substitute(C, Swap));
  return Out;
}

} // namespace

void runSynthWorkload(const Options &O, const std::vector<std::string> &Names,
                      const std::string &SelfTestLoop, RunData &D) {
  std::vector<Prepared> Loops;
  for (unsigned I = 0; I != SetupReps; ++I) {
    double T0 = now();
    Loops = prepare(Names, O.Seed);
    D.SetupSeconds.push_back(now() - T0);
  }

  // Passes fill the run; at least one always runs. A traced run alternates
  // untraced and traced passes, so drift in the host's speed hits both
  // sides of trace.overhead alike.
  std::vector<PipelineResult> Results;
  const double PassStart = now();
  do {
    Results = runPass(Loops, /*Traced=*/false, D);
    if (O.Trace) {
      Tracer::setEnabled(true);
      runPass(Loops, /*Traced=*/true, D);
      Tracer::setEnabled(false);
    }
  } while (now() - PassStart < O.Seconds);
  if (O.Trace) {
    std::vector<TraceEvent> Events = Tracer::instance().drain();
    addSelfTimes(Events, D.SelfSeconds);
  }

  TaskPool Pool1(1), PoolN(O.Threads);
  warmUp(O.Threads, WarmUpSeconds);
  D.Programs.resize(Loops.size());
  for (size_t I = 0; I != Loops.size(); ++I) {
    ProgramSamples &Prog = D.Programs[I];
    Prog.Name = Loops[I].B->Name;
    Prog.Elements = double(HeldOutElements);
    Prog.Bytes = double(HeldOutElements * Loops[I].Original.Sequences.size() *
                        sizeof(Value));
  }
  // Repetitions interleave across loops, so a burst of contention from
  // other tenants hits one repetition of several loops instead of every
  // repetition of one.
  for (unsigned Round = 0; Round != ProgramRounds; ++Round)
    for (size_t I = 0; I != Loops.size(); ++I)
      if (Results[I].Success)
        D.Operations.record(
            runProgramRep(Loops[I], Results[I], Results[I].Join.Components,
                          Pool1, PoolN, D.Programs[I]),
            Loops[I].B->Name + ": parallel result differs from the "
                               "sequential loop on the held-out input");

  // Self-test: a deliberately wrong join must fail the same gates.
  for (size_t I = 0; I != Loops.size(); ++I) {
    if (Loops[I].B->Name != SelfTestLoop || !Results[I].Success)
      continue;
    const PipelineResult &R = Results[I];
    std::vector<ExprRef> Wrong = swapSides(R.Final, R.Join.Components);
    ProofReport Proof = checkHomomorphismProof(R.Final, Wrong);
    std::string Why = checkGates(R, Proof, verifyJoin(R.Final, Wrong));
    ProgramSamples Scratch;
    bool Same = runProgramRep(Loops[I], R, Wrong, Pool1, PoolN, Scratch);
    D.SelfTest.record(Why.empty() && Same,
                      SelfTestLoop + " with _l/_r swapped");
  }

  if (!O.Trace)
    return;
  // One more round with the pool's leaf/join timing on.
  PoolN.setTimingEnabled(true);
  for (size_t I = 0; I != Loops.size(); ++I) {
    if (!Results[I].Success)
      continue;
    ProgramSamples Scratch;
    runProgramRep(Loops[I], Results[I], Results[I].Join.Components, Pool1,
                  PoolN, Scratch);
    StatsSnapshot Snap = PoolN.statsSnapshot();
    D.PoolLeafSeconds += double(Snap.LeafNanos) * 1e-9;
    D.PoolJoinSeconds += double(Snap.JoinNanos) * 1e-9;
  }
}

} // namespace perfbench
