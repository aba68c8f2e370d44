//===- tools/parsynt/main.cpp - The PARSYNT command-line driver -----------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Usage:
//   parsynt <file>                parallelize the loop in <file>
//   parsynt --benchmark <name>    parallelize a Table-1 benchmark
//   parsynt --list                list the Table-1 benchmarks
//   parsynt --analyze ...         static analysis only: lint diagnostics,
//                                 per-variable dependence classification,
//                                 and the IR verifier verdict — no synthesis
//   Flags: --emit-dafny <path>    write the Figure-7 proof artifact
//          --emit-cpp <path>      write the parallel C++ program (or the
//                                 sequential fallback when synthesis fails)
//          --emit-kernel <path>   with --benchmark: write the benchmark's
//                                 Figure-8 kernel (src/suite/generated/;
//                                 tools/ci/regen_kernels.sh rewrites them
//                                 all), from the benchmark's hand lifting
//                                 when synthesis fails
//          --check-proof          check the induction obligations
//          --selftest             run the join on random data in parallel
//                                 and compare with the sequential loop
//          --runtime-stats        with --selftest: print the scheduler's
//                                 per-worker spawn/steal/park counters and
//                                 leaf/join timings after the runs
//          --trace <path>         record structured spans across the whole
//                                 pipeline and write a Chrome/Perfetto JSON
//                                 trace (load in ui.perfetto.dev)
//          --phase-report         print per-phase wall time, span counts,
//                                 and the hottest spans (implies tracing)
//          --report json          print a machine-readable run report
//                                 (schema observe/Report.h) on stdout; the
//                                 human-readable output moves to stderr
//          --timeout <dur>        whole-loop wall-clock budget
//          --join-timeout <dur>   budget for each join-synthesis call
//          --lift-timeout <dur>   budget for each lifting attempt
//                                 (<dur> is e.g. '500ms', '2s', '1m', or a
//                                 plain number of seconds)
//
// Exit codes:
//   0  success (join synthesized, requested artifacts written)
//   1  synthesis failure (no join; a sequential fallback is still emitted
//      when --emit-cpp was given) or an internal error
//   2  usage / input error (bad flags, unknown benchmark, unreadable or
//      unparsable file)
//   3  timeout (a deadline from --timeout/--join-timeout/--lift-timeout
//      expired; a sequential fallback is still emitted with --emit-cpp)
//
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "codegen/EmitCpp.h"
#include "frontend/Convert.h"
#include "observe/PoolMetrics.h"
#include "observe/Report.h"
#include "observe/TraceExport.h"
#include "observe/Tracer.h"
#include "pipeline/Parallelizer.h"
#include "proof/DafnyEmit.h"
#include "proof/ProofCheck.h"
#include "runtime/InterpReduce.h"
#include "runtime/SharedPool.h"
#include "suite/Benchmarks.h"
#include "support/Random.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

using namespace parsynt;

namespace {

constexpr int ExitSuccess = 0;
constexpr int ExitSynthFailure = 1;
constexpr int ExitUsage = 2;
constexpr int ExitTimeout = 3;

/// Human-readable output stream: stdout normally, stderr under
/// `--report json` so the JSON document owns stdout.
FILE *HumanOut = stdout;

int usage() {
  std::fprintf(stderr,
               "usage: parsynt [<file> | --benchmark <name> | --list]\n"
               "               [--analyze] [--emit-dafny <path>] "
               "[--emit-cpp <path>]\n"
               "               [--emit-kernel <path>]\n"
               "               [--check-proof] [--selftest] "
               "[--runtime-stats]\n"
               "               [--trace <path>] [--phase-report] "
               "[--report json]\n"
               "               [--timeout <dur>] [--join-timeout <dur>] "
               "[--lift-timeout <dur>]\n"
               "durations: '500ms', '2s', '1m', or plain seconds\n"
               "exit codes: 0 success, 1 synthesis failure, 2 usage, "
               "3 timeout\n");
  return ExitUsage;
}

/// Parses "500ms" / "2s" / "1.5m" / plain seconds. Returns a negative
/// value on malformed input.
double parseDuration(const std::string &Spec) {
  if (Spec.empty())
    return -1;
  size_t End = 0;
  double Magnitude;
  try {
    Magnitude = std::stod(Spec, &End);
  } catch (const std::exception &) {
    return -1;
  }
  if (Magnitude < 0)
    return -1;
  std::string Unit = Spec.substr(End);
  if (Unit.empty() || Unit == "s")
    return Magnitude;
  if (Unit == "ms")
    return Magnitude / 1000.0;
  if (Unit == "m")
    return Magnitude * 60.0;
  return -1;
}

bool runSelfTest(const PipelineResult &Result, bool RuntimeStats) {
  const Loop &L = Result.Final;
  // The process's one pool, which synthesis has already used: clear its
  // counters so --runtime-stats reports the self-test alone.
  TaskPool &Pool = sharedTaskPool();
  Pool.resetStats();
  Pool.setTimingEnabled(RuntimeStats);
  Rng R(0x7357);
  for (unsigned Round = 0; Round != 20; ++Round) {
    size_t Len = static_cast<size_t>(R.intIn(0, 4000));
    SeqEnv Seqs;
    for (const SeqDecl &S : L.Sequences) {
      std::vector<Value> Elems;
      for (size_t I = 0; I != Len; ++I)
        Elems.push_back(Value::ofInt(R.intIn(-60, 60)));
      Seqs[S.Name] = std::move(Elems);
    }
    Env Params;
    for (const ParamDecl &P : L.Params)
      Params[P.Name] = Value::ofInt(R.intIn(-3, 3));
    StateTuple Seq = runLoop(L, Seqs, Params);
    StateTuple Par = parallelRunLoop(L, Result.Join.Components, Seqs, Pool,
                                     /*Grain=*/64, Params);
    if (Seq != Par) {
      std::fprintf(HumanOut,
                   "selftest MISMATCH at round %u\n  sequential: %s\n  "
                   "parallel:   %s\n",
                   Round, stateToString(L, Seq).c_str(),
                   stateToString(L, Par).c_str());
      return false;
    }
  }
  if (Result.SequentialFallback)
    std::fprintf(HumanOut, "selftest: 20 sequential-fallback runs match the "
                           "sequential loop\n");
  else
    std::fprintf(HumanOut,
                 "selftest: 20 parallel runs match the sequential loop\n");
  if (RuntimeStats)
    std::fprintf(HumanOut, "runtime stats (%u threads):\n%s",
                 Pool.threadCount(), poolTable(Pool.statsSnapshot()).c_str());
  return true;
}

int run(int argc, char **argv, std::string &CurrentInput) {
  std::string File, BenchmarkName, DafnyPath, CppPath, KernelPath, TracePath;
  bool CheckProof = false, SelfTest = false, List = false, Analyze = false;
  bool RuntimeStats = false, PhaseReport = false, ReportJson = false;
  PipelineOptions Options;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--benchmark" && I + 1 < argc)
      BenchmarkName = argv[++I];
    else if (Arg == "--emit-dafny" && I + 1 < argc)
      DafnyPath = argv[++I];
    else if (Arg == "--emit-cpp" && I + 1 < argc)
      CppPath = argv[++I];
    else if (Arg == "--emit-kernel" && I + 1 < argc)
      KernelPath = argv[++I];
    else if (Arg == "--trace" && I + 1 < argc)
      TracePath = argv[++I];
    else if (Arg == "--phase-report")
      PhaseReport = true;
    else if (Arg == "--report") {
      if (I + 1 >= argc || std::string(argv[I + 1]) != "json") {
        std::fprintf(stderr,
                     "error: --report takes the format 'json' (got '%s')\n",
                     I + 1 < argc ? argv[I + 1] : "<nothing>");
        return ExitUsage;
      }
      ++I;
      ReportJson = true;
    } else if ((Arg == "--timeout" || Arg == "--join-timeout" ||
              Arg == "--lift-timeout") &&
             I + 1 < argc) {
      double Seconds = parseDuration(argv[++I]);
      if (Seconds < 0) {
        std::fprintf(stderr,
                     "error: malformed duration '%s' for %s (expected e.g. "
                     "'500ms', '2s', '1m')\n",
                     argv[I], Arg.c_str());
        return ExitUsage;
      }
      if (Arg == "--timeout")
        Options.TimeoutSeconds = Seconds;
      else if (Arg == "--join-timeout")
        Options.JoinTimeoutSeconds = Seconds;
      else
        Options.LiftTimeoutSeconds = Seconds;
    } else if (Arg == "--analyze")
      Analyze = true;
    else if (Arg == "--check-proof")
      CheckProof = true;
    else if (Arg == "--selftest")
      SelfTest = true;
    else if (Arg == "--runtime-stats")
      RuntimeStats = true;
    else if (Arg == "--list")
      List = true;
    else if (!Arg.empty() && Arg[0] == '-')
      return usage();
    else
      File = Arg;
  }

  if (!KernelPath.empty() && BenchmarkName.empty()) {
    std::fprintf(stderr, "error: --emit-kernel needs --benchmark\n");
    return ExitUsage;
  }
  if (ReportJson)
    HumanOut = stderr;
  if (PhaseReport || !TracePath.empty())
    Tracer::setEnabled(true);

  if (List) {
    for (const Benchmark &B : allBenchmarks())
      std::printf("%-12s %s\n", B.Name.c_str(), B.Description.c_str());
    return ExitSuccess;
  }

  Loop L;
  const Benchmark *B = nullptr;
  if (!BenchmarkName.empty()) {
    CurrentInput = "benchmark '" + BenchmarkName + "'";
    B = findBenchmark(BenchmarkName);
    if (!B) {
      std::fprintf(stderr, "error: unknown benchmark '%s' (try --list)\n",
                   BenchmarkName.c_str());
      return ExitUsage;
    }
    L = parseBenchmark(*B);
  } else if (!File.empty()) {
    CurrentInput = "'" + File + "'";
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
      return ExitUsage;
    }
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    DiagnosticEngine Diags;
    auto Parsed = parseLoop(Buffer.str(), File, Diags);
    if (!Parsed) {
      std::fprintf(stderr, "%s", Diags.str().c_str());
      return ExitUsage;
    }
    // Surface non-fatal lint warnings (e.g. index-dependence notes).
    if (!Diags.diagnostics().empty())
      std::fprintf(stderr, "%s", Diags.str().c_str());
    L = *Parsed;
  } else {
    return usage();
  }

  if (Analyze) {
    DependenceInfo Info = analyzeDependences(L);
    std::fprintf(HumanOut, "%s", Info.table().c_str());
    VerifierReport Report = verifyLoop(L, VerifyPhase::AfterFrontend);
    if (!Report.ok()) {
      std::fprintf(HumanOut, "%s", Report.str().c_str());
      return ExitSynthFailure;
    }
    std::fprintf(HumanOut, "verifier: ok (%zu state variables, %zu sccs)\n",
                 Info.Vars.size(), Info.Sccs.size());
    return ExitSuccess;
  }

  PipelineResult Result = parallelizeLoop(L, Options);
  std::fprintf(HumanOut, "%s", Result.report().c_str());
  std::fprintf(HumanOut, "times: join %.2fs, lift %.2fs, total %.2fs\n",
               Result.JoinSeconds, Result.LiftSeconds, Result.TotalSeconds);

  // Every post-pipeline exit goes through here so `--report json` covers
  // failures and timeouts with the same schema as successes.
  double ProofSeconds = -1;
  const std::string ReportName =
      !BenchmarkName.empty() ? BenchmarkName : File;
  auto finish = [&](int Code) {
    if (ReportJson) {
      RunReport Report;
      Report.Tool = "parsynt";
      Report.Benchmarks.push_back(
          makeBenchmarkEntry(ReportName, Result, ProofSeconds));
      std::printf("%s", Report.toJson().c_str());
    }
    return Code;
  };

  // The Figure-8 kernel: from the pipeline's lifted loop and join, or from
  // the benchmark's hand lifting when synthesis fails.
  if (!KernelPath.empty()) {
    std::optional<HandLifting> Hand;
    if (!Result.Success)
      Hand = handLifting(*B);
    if (Result.Success || Hand) {
      std::ofstream Out(KernelPath);
      Out << (Hand ? emitNativeKernel(L, Hand->Lifted, Hand->Join, B->Result)
                   : emitNativeKernel(L, Result.Final, Result.Join.Components,
                                      B->Result));
      std::fprintf(HumanOut, "wrote native kernel%s to %s\n",
                   Hand ? " (hand lifting)" : "", KernelPath.c_str());
    } else {
      std::fprintf(HumanOut, "no native kernel written: synthesis failed\n");
    }
  }

  if (!Result.Success) {
    // Graceful degradation: the sequential fallback is still emittable
    // and runnable, so honor --emit-cpp / --selftest before exiting with
    // the failure taxonomy code.
    if (!CppPath.empty() && Result.SequentialFallback) {
      std::ofstream Out(CppPath);
      Out << emitParallelCpp(Result.Final, Result.Join.Components);
      std::fprintf(HumanOut,
                   "wrote sequential fallback C++ to %s (build: g++ -O2 "
                   "-std=c++17 -pthread -I <parsynt>/src %s)\n",
                   CppPath.c_str(), CppPath.c_str());
    }
    if (SelfTest && Result.SequentialFallback)
      runSelfTest(Result, RuntimeStats);
    return finish(Result.Failure.Kind == FailureKind::Timeout
                      ? ExitTimeout
                      : ExitSynthFailure);
  }

  if (CheckProof) {
    ProofReport Proof =
        checkHomomorphismProof(Result.Final, Result.Join.Components);
    ProofSeconds = Proof.Seconds;
    std::fprintf(HumanOut, "%s\n", Proof.str().c_str());
    if (!Proof.Verified)
      return finish(ExitSynthFailure);
  }
  if (!DafnyPath.empty()) {
    std::ofstream Out(DafnyPath);
    Out << emitDafnyProof(Result.Final, Result.Join.Components);
    std::fprintf(HumanOut, "wrote Dafny artifact to %s\n", DafnyPath.c_str());
  }
  if (!CppPath.empty()) {
    std::ofstream Out(CppPath);
    Out << emitParallelCpp(Result.Final, Result.Join.Components);
    std::fprintf(HumanOut,
                 "wrote parallel C++ to %s (build: g++ -O2 -std=c++17 "
                 "-pthread -I <parsynt>/src %s)\n",
                 CppPath.c_str(), CppPath.c_str());
  }
  if (SelfTest && !runSelfTest(Result, RuntimeStats))
    return finish(ExitSynthFailure);
  return finish(ExitSuccess);
}

/// The internal-error epilogue. When `--report json` was requested the
/// caught exception's message is preserved in the report's failure entry
/// instead of being dropped on stderr only.
int internalError(const std::string &Input, const std::string &Message,
                  bool ReportJson) {
  std::fprintf(stderr, "parsynt: internal error while processing %s: %s\n",
               Input.c_str(), Message.c_str());
  if (ReportJson) {
    RunReport Report;
    Report.Tool = "parsynt";
    BenchmarkEntry E;
    E.Name = Input;
    E.Failure = FailureInfo(FailureKind::InternalError, Message);
    Report.Benchmarks.push_back(std::move(E));
    std::printf("%s", Report.toJson().c_str());
  }
  return ExitSynthFailure;
}

} // namespace

int main(int argc, char **argv) {
  std::string CurrentInput = "<no input>";
  // Pre-scan the observability flags so the error paths still honor them:
  // an internal error must flush the trace and produce the report.
  std::string TracePath;
  bool PhaseReport = false, ReportJson = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--trace" && I + 1 < argc)
      TracePath = argv[++I];
    else if (Arg == "--phase-report")
      PhaseReport = true;
    else if (Arg == "--report" && I + 1 < argc &&
             std::string(argv[I + 1]) == "json")
      ReportJson = true;
  }
  if (PhaseReport || !TracePath.empty())
    Tracer::setEnabled(true);

  int Code;
  try {
    Code = run(argc, argv, CurrentInput);
  } catch (const std::exception &E) {
    Code = internalError(CurrentInput, E.what(), ReportJson);
  } catch (...) {
    Code = internalError(CurrentInput, "unknown exception", ReportJson);
  }

  if (PhaseReport)
    std::fprintf(ReportJson ? stderr : stdout, "%s", phaseReport().c_str());
  if (!TracePath.empty()) {
    std::string Error;
    if (writeTraceFile(TracePath, &Error))
      std::fprintf(stderr, "wrote trace to %s\n", TracePath.c_str());
    else
      std::fprintf(stderr, "parsynt: %s\n", Error.c_str());
  }
  return Code;
}
