//===- bench/fig8.cpp - Reproduction of the paper's Figure 8 --------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Regenerates Figure 8 (speedup of the synthesized parallel programs over
// the original sequential loops) and the Section-8.2 single-core overhead
// measurement (slowdown mean ~1.0, sigma ~0.04 in the paper).
//
// The paper runs 2-billion-element arrays with grain 50k on a 64-core
// Proliant; this harness defaults to 2^26 elements (override with
// PARSYNT_FIG8_ELEMS) and sweeps thread counts up to the machine's core
// count, or up to PARSYNT_FIG8_THREADS to probe oversubscription (the
// shape — near-linear scaling to the core count, ~1.0 one-core overhead —
// is the reproduction target; see EXPERIMENTS.md). Either variable, when
// set, must be a positive integer, or fig8 exits 2. Every thread first
// spins for 2 s so that no timed run meets a cold virtual CPU, and each
// time reported is the median of its repetitions.
//
// `--report json` prints the machine-readable run report
// (observe/Report.h) on stdout with the human table moved to stderr; CI
// archives it as BENCH_fig8.json. `--stats` prints the scheduler's
// counters after each row, formatted through the metrics registry.
//
//===----------------------------------------------------------------------===//

#include "observe/PoolMetrics.h"
#include "observe/Report.h"
#include "runtime/ParallelReduce.h"
#include "suite/Kernels.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

using namespace parsynt;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The median wall time of \p Reps runs of \p Body.
template <typename Fn> double medianOf(unsigned Reps, Fn &&Body) {
  std::vector<double> Times;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    double Start = now();
    Body();
    Times.push_back(now() - Start);
  }
  std::nth_element(Times.begin(), Times.begin() + Reps / 2, Times.end());
  return Times[Reps / 2];
}

/// Reads environment variable \p Name, when set, into \p Out. Returns
/// false, with a message, unless it is a positive decimal integer that fits.
bool positiveFromEnv(const char *Name, size_t Max, size_t &Out) {
  const char *Env = std::getenv(Name);
  if (!Env)
    return true;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Env, &End, 10);
  if (!std::isdigit(static_cast<unsigned char>(Env[0])) || *End != '\0' ||
      errno == ERANGE || V == 0 || V > Max) {
    std::fprintf(stderr, "fig8: %s must be a positive integer (got '%s')\n",
                 Name, Env);
    return false;
  }
  Out = static_cast<size_t>(V);
  return true;
}

/// Keeps \p Threads threads busy for \p Seconds. Virtual CPUs that have
/// been idle run at a fraction of their speed for several seconds.
void warmUp(unsigned Threads, double Seconds) {
  const double Start = now();
  std::vector<std::thread> Spinners;
  for (unsigned T = 0; T != Threads; ++T)
    Spinners.emplace_back([Start, Seconds] {
      while (now() - Start < Seconds) {
      }
    });
  for (std::thread &S : Spinners)
    S.join();
}

} // namespace

int main(int argc, char **argv) {
  bool Stats = false, ReportJson = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--stats") == 0) {
      Stats = true;
    } else if (std::strcmp(argv[I], "--report") == 0 && I + 1 < argc &&
               std::strcmp(argv[I + 1], "json") == 0) {
      ReportJson = true;
      ++I;
    } else {
      std::fprintf(stderr, "usage: fig8 [--stats] [--report json]\n");
      return 2;
    }
  }
  // In report mode the JSON document owns stdout.
  FILE *HumanOut = ReportJson ? stderr : stdout;
  size_t N = size_t(1) << 26;
  const size_t Grain = 50000; // the paper's grain size
  // PARSYNT_FIG8_THREADS extends the sweep past the core count so the
  // scheduler's oversubscription behaviour is measurable on small machines.
  size_t Threads = defaultThreadCount();
  if (!positiveFromEnv("PARSYNT_FIG8_ELEMS", SIZE_MAX, N) ||
      !positiveFromEnv("PARSYNT_FIG8_THREADS", UINT_MAX, Threads))
    return 2;
  const unsigned Cores = static_cast<unsigned>(Threads);
  std::vector<unsigned> ThreadCounts;
  for (unsigned T = 1; T <= Cores; T *= 2)
    ThreadCounts.push_back(T);
  if (ThreadCounts.back() != Cores)
    ThreadCounts.push_back(Cores);
  const unsigned Reps = 5;

  std::fprintf(HumanOut,
               "Figure 8: speedup of the synthesized divide-and-conquer "
               "programs over the sequential originals\n");
  std::fprintf(HumanOut,
               "elements=%zu grain=%zu cores=%u (paper: 2bn elements, grain "
               "50k, 64 cores)\n\n",
               N, Grain, Cores);
  std::fprintf(HumanOut, "%-12s %10s |", "benchmark", "seq (s)");
  for (unsigned T : ThreadCounts)
    std::fprintf(HumanOut, "  x%-5u", T);
  std::fprintf(HumanOut, "   (speedup per thread count)\n");

  warmUp(std::max(Cores, defaultThreadCount()), 2.0);
  RunReport Report;
  Report.Tool = "fig8";
  std::vector<double> OneThreadSlowdowns;
  for (const NativeKernel &K : nativeKernels()) {
    std::vector<int64_t> A = generateInput(K.Kind, N, 0xF168);
    std::vector<int64_t> B =
        K.TwoSequences ? generateInput(K.Kind, N, 77) : std::vector<int64_t>();
    const int64_t *PB = K.TwoSequences ? B.data() : nullptr;

    volatile int64_t Sink = 0;
    double SeqTime = medianOf(Reps, [&] {
      KState S = K.Sequential(A.data(), PB, N);
      Sink = K.Output(S);
    });

    std::fprintf(HumanOut, "%-12s %10.3f |", K.Name.c_str(), SeqTime);
    BenchmarkEntry Entry;
    Entry.Name = K.Name;
    Entry.Success = true;
    Entry.TotalSeconds = SeqTime;
    Entry.Extra.emplace_back("seq_seconds", SeqTime);
    Entry.Extra.emplace_back("elements", double(N));
    std::vector<std::string> StatLines;
    for (unsigned T : ThreadCounts) {
      TaskPool Pool(T);
      Pool.setTimingEnabled(Stats);
      int64_t ParOut = 0;
      double ParTime = medianOf(Reps, [&] {
        KState S = parallelReduce<KState>(
            BlockedRange{0, N, Grain}, Pool,
            [&](size_t Begin, size_t End) {
              return K.Leaf(A.data(), PB, Begin, End);
            },
            [&](const KState &L, const KState &R) { return K.Join(L, R); });
        ParOut = K.Output(S);
      });
      if (ParOut != Sink) {
        std::fprintf(HumanOut, " WRONG! ");
        Entry.Success = false;
      } else {
        std::fprintf(HumanOut, "  %5.2f ", SeqTime / ParTime);
      }
      Entry.Extra.emplace_back("speedup_x" + std::to_string(T),
                               SeqTime / ParTime);
      // Exclude degenerate rows from the §8.2 statistic: when the
      // sequential loop compiles to O(1) (length), the ratio divides by
      // ~0 and measures nothing but the fixed cost of the grain tree.
      if (T == 1 && SeqTime > 1e-3) {
        OneThreadSlowdowns.push_back(ParTime / SeqTime);
        Entry.Extra.emplace_back("one_thread_slowdown", ParTime / SeqTime);
      }
      // One code path for the scheduler counters: the pool snapshot is
      // absorbed into the metrics registry (under "pool.") and both the
      // report and the --stats lines read from there.
      StatsSnapshot Snap = Pool.statsSnapshot();
      absorbPoolStats(MetricsRegistry::global(), Snap);
      if (Stats)
        StatLines.push_back("    x" + std::to_string(T) + " (" +
                            std::to_string(Reps) + " reps): " +
                            poolSummary(Snap));
    }
    if (!Entry.Success)
      Entry.Failure =
          FailureInfo(FailureKind::InternalError,
                      "parallel output mismatches the sequential loop");
    Report.Benchmarks.push_back(std::move(Entry));
    std::fprintf(HumanOut, "\n");
    for (const std::string &Line : StatLines)
      std::fprintf(HumanOut, "%s\n", Line.c_str());
  }

  // Section 8.2: single-core overhead of the runtime + lifted leaves.
  std::fprintf(HumanOut, "\nSingle-core slowdown of the parallel version "
                         "(paper: mean ~1.0, sigma ~0.04):\n");
  if (OneThreadSlowdowns.empty()) {
    std::fprintf(HumanOut, "  none: no sequential loop ran for 1 ms\n");
  } else {
    double Mean = 0;
    for (double S : OneThreadSlowdowns)
      Mean += S;
    Mean /= OneThreadSlowdowns.size();
    double Var = 0;
    for (double S : OneThreadSlowdowns)
      Var += (S - Mean) * (S - Mean);
    double Sigma = std::sqrt(Var / OneThreadSlowdowns.size());
    std::fprintf(HumanOut,
                 "  mean %.3f, sigma %.3f over %zu benchmarks (degenerate "
                 "seq<1ms rows excluded)\n",
                 Mean, Sigma, OneThreadSlowdowns.size());
  }

  bool AllOk = true;
  for (const BenchmarkEntry &E : Report.Benchmarks)
    AllOk = AllOk && E.Success;
  if (ReportJson)
    std::printf("%s", Report.toJson().c_str());
  return AllOk ? 0 : 1;
}
