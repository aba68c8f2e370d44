//===- perfbench/main.cpp - Entry point of the repository benchmark -------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload <quick-loops|search-loops|run-kernels>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload in this process and prints one raw JSON document on
// stdout: the host block, every timing sample, the exact counters, the
// joins, and the error accounting. perfbench/run.py builds this binary,
// reduces the document to the reported metrics and checks it.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "runtime/TaskPool.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>

using namespace parsynt;

namespace perfbench {

void addSelfTimes(const std::vector<TraceEvent> &Events,
                  std::map<std::string, double> &Out) {
  std::unordered_map<uint64_t, std::vector<const TraceEvent *>> Children;
  for (const TraceEvent &E : Events)
    if (E.ParentId)
      Children[E.ParentId].push_back(&E);
  for (const TraceEvent &E : Events) {
    uint64_t Covered = 0;
    auto It = Children.find(E.SpanId);
    if (It != Children.end()) {
      std::vector<std::pair<uint64_t, uint64_t>> Spans;
      for (const TraceEvent *C : It->second)
        Spans.emplace_back(std::max(C->StartNs, E.StartNs),
                           std::min(C->EndNs, E.EndNs));
      std::sort(Spans.begin(), Spans.end());
      uint64_t Reach = E.StartNs;
      for (const auto &[Begin, End] : Spans) {
        uint64_t From = std::max(Begin, Reach);
        if (End > From) {
          Covered += End - From;
          Reach = End;
        }
      }
    }
    Out[E.Category] += double(E.EndNs - E.StartNs - Covered) * 1e-9;
  }
}

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

} // namespace perfbench

namespace {

using namespace perfbench;

/// Doubles with all their digits (JsonWriter keeps six decimals).
void num(JsonWriter &J, double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  J.raw(Buf);
}

template <typename Map>
void numMap(JsonWriter &J, const char *Key, const Map &M) {
  J.key(Key).beginObject();
  for (const auto &KV : M) {
    J.key(KV.first);
    num(J, double(KV.second));
  }
  J.endObject();
}

void ops(JsonWriter &J, const char *Key, const Ops &O) {
  J.key(Key).beginObject();
  J.key("attempted").number(O.Attempted);
  J.key("failed").number(O.Failed);
  J.key("failures").beginArray();
  for (const std::string &F : O.Failures)
    J.string(F);
  J.endArray().endObject();
}

std::string serialize(const Options &O, const RunData &D) {
  JsonWriter J(/*Pretty=*/false);
  J.beginObject();
  J.key("workload").string(O.Workload);
  J.key("seed").number(O.Seed);
  J.key("trace").number(O.Trace ? 1 : 0);
  J.key("host").beginObject();
  J.key("nproc").number(O.Threads);
  J.key("compiler").string(PERFBENCH_COMPILER);
  J.key("build_type").string(PERFBENCH_BUILD_TYPE);
  long Llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  J.key("llc_bytes").number(int64_t(Llc > 0 ? Llc : 0));
  J.key("array_bytes").number(D.ArrayBytes);
  J.endObject();

  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  J.key("peak_rss_mib");
  num(J, double(Usage.ru_maxrss) / 1024.0);
  J.key("setup_s").beginArray();
  for (double S : D.SetupSeconds)
    num(J, S);
  J.endArray();
  ops(J, "ops", D.Operations);
  ops(J, "selftest", D.SelfTest);

  J.key("passes").beginArray();
  for (const PassSample &P : D.Passes) {
    J.beginObject();
    J.key("traced").boolean(P.Traced);
    J.key("wall_s");
    num(J, P.Wall);
    J.key("cpu_s");
    num(J, P.Cpu);
    numMap(J, "layers", P.Layers);
    numMap(J, "loop_wall_s", P.LoopWall);
    J.key("refs").beginArray();
    for (double R : P.Refs)
      num(J, R);
    J.endArray();
    J.endObject();
  }
  J.endArray();

  J.key("loops").beginArray();
  for (const LoopRecord &L : D.Loops) {
    J.beginObject();
    J.key("name").string(L.Name);
    J.key("join").string(L.Join);
    J.key("stable").boolean(L.Stable);
    numMap(J, "counters", L.Counters);
    J.endObject();
  }
  J.endArray();

  J.key("programs").beginArray();
  for (const ProgramSamples &P : D.Programs) {
    J.beginObject();
    J.key("name").string(P.Name);
    J.key("elements");
    num(J, P.Elements);
    J.key("bytes");
    num(J, P.Bytes);
    J.key("reps").beginArray();
    for (const auto &R : P.Reps) {
      J.beginArray();
      for (double V : R)
        num(J, V);
      J.endArray();
    }
    J.endArray();
    J.key("refs").beginArray();
    for (double R : P.Refs)
      num(J, R);
    J.endArray();
    J.key("pool").beginArray();
    for (const auto &S : P.Pool) {
      J.beginArray();
      for (uint64_t V : S)
        J.number(V);
      J.endArray();
    }
    J.endArray();
    J.endObject();
  }
  J.endArray();

  J.key("probes").beginArray();
  for (const Probe &P : D.Probes) {
    J.beginObject();
    J.key("read_gbs_1t");
    num(J, P.ReadGbs1);
    J.key("read_gbs_nt");
    num(J, P.ReadGbsN);
    J.key("cpu_scale");
    num(J, P.CpuScale);
    J.endObject();
  }
  J.endArray();

  J.key("traced").beginObject();
  J.key("sweep_s");
  num(J, D.TracedSweep);
  J.key("pool_leaf_s");
  num(J, D.PoolLeafSeconds);
  J.key("pool_join_s");
  num(J, D.PoolJoinSeconds);
  numMap(J, "self_s", D.SelfSeconds);
  J.endObject();
  J.endObject();
  return J.str();
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <quick-loops|search-loops|"
               "run-kernels> --seed <n> --seconds <s> --trace <0|1>\n");
  std::exit(2);
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  O.Threads = defaultThreadCount();
  for (int I = 1; I < argc; I += 2) {
    if (I + 1 >= argc)
      usage();
    const char *Flag = argv[I], *Arg = argv[I + 1];
    char *End = nullptr;
    if (!std::strcmp(Flag, "--workload")) {
      O.Workload = Arg;
    } else if (!std::strcmp(Flag, "--seed")) {
      O.Seed = std::strtoull(Arg, &End, 10);
    } else if (!std::strcmp(Flag, "--seconds")) {
      O.Seconds = std::strtod(Arg, &End);
    } else if (!std::strcmp(Flag, "--trace")) {
      O.Trace = std::strtol(Arg, &End, 10) != 0;
    } else {
      usage();
    }
    if (End && *End)
      usage();
  }

  // Loops in Table-1 order; perfbench/README.md says why each workload
  // holds the loops it does. The last argument names the loop whose join,
  // with its sides swapped, is the wrong-join self-test.
  RunData D;
  if (O.Workload == "quick-loops")
    runSynthWorkload(O,
                     {"sum", "min", "max", "average", "hamming", "length",
                      "2nd-min", "mps", "mps-p", "poly", "dropwhile"},
                     "mps", D);
  else if (O.Workload == "search-loops")
    runSynthWorkload(O,
                     {"mts", "mts-p", "line-sight"},
                     "mts", D);
  else if (O.Workload == "run-kernels")
    runKernelWorkload(O, D);
  else
    usage();
  std::printf("%s\n", serialize(O, D).c_str());
  return 0;
}
