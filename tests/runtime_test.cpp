//===- tests/runtime_test.cpp - TaskPool / parallelReduce tests -----------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "observe/PoolMetrics.h"
#include "runtime/InterpReduce.h"
#include "runtime/ParallelReduce.h"
#include "support/FaultInjector.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <numeric>
#include <thread>
#include <utility>

#ifdef __linux__
#include <ctime>
#endif

using namespace parsynt;
using namespace parsynt::test;

namespace {

TEST(TaskPool, RunsAllSpawnedTasks) {
  TaskPool Pool(4);
  std::atomic<int> Counter{0};
  TaskGroup Group;
  for (int I = 0; I != 1000; ++I)
    Pool.spawn(Group, [&] { Counter.fetch_add(1); });
  Pool.wait(Group);
  EXPECT_EQ(Counter.load(), 1000);
}

TEST(TaskPool, SingleThreadPoolWorks) {
  TaskPool Pool(1);
  std::atomic<int> Counter{0};
  TaskGroup Group;
  for (int I = 0; I != 100; ++I)
    Pool.spawn(Group, [&] { Counter.fetch_add(1); });
  Pool.wait(Group);
  EXPECT_EQ(Counter.load(), 100);
}

TEST(TaskPool, NestedSpawnDoesNotDeadlock) {
  TaskPool Pool(2);
  std::atomic<int> Counter{0};
  TaskGroup Outer;
  for (int I = 0; I != 16; ++I) {
    Pool.spawn(Outer, [&] {
      TaskGroup Inner;
      for (int J = 0; J != 16; ++J)
        Pool.spawn(Inner, [&] { Counter.fetch_add(1); });
      Pool.wait(Inner);
    });
  }
  Pool.wait(Outer);
  EXPECT_EQ(Counter.load(), 256);
}

// The seed pool's wait() busy-spun on yield() while the group was
// unfinished. A joining thread with no runnable work must park: its CPU
// time while a worker runs a long task should be near zero, not the full
// wall time of the task.
TEST(TaskPool, WaitParksInsteadOfSpinning) {
#ifdef __linux__
  TaskPool Pool(2);
  TaskGroup Group;
  std::atomic<bool> Started{false};
  Pool.spawn(Group, [&] {
    Started.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  });
  // Let the dedicated worker take the task so our wait() finds an empty
  // deque and nothing to steal.
  while (!Started.load())
    std::this_thread::yield();

  auto ThreadCpuNanos = [] {
    timespec Ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
    return uint64_t(Ts.tv_sec) * 1000000000ull + uint64_t(Ts.tv_nsec);
  };
  uint64_t CpuBefore = ThreadCpuNanos();
  auto WallBefore = std::chrono::steady_clock::now();
  Pool.wait(Group);
  uint64_t CpuSpent = ThreadCpuNanos() - CpuBefore;
  auto WallSpent = std::chrono::steady_clock::now() - WallBefore;

  // The join waited most of the sleep; a spinning join burns that long in
  // CPU, a parked one only the park/unpark cost. 100ms leaves a wide
  // margin for sanitizer and scheduling noise.
  EXPECT_GT(std::chrono::duration_cast<std::chrono::milliseconds>(WallSpent)
                .count(),
            100);
  EXPECT_LT(CpuSpent, 100u * 1000 * 1000)
      << "wait() burned CPU while blocked - spin-wait regression";
#else
  GTEST_SKIP() << "thread CPU clock test is Linux-only";
#endif
}

// Fine-grain recursive reduce across a wide range of pool sizes,
// including heavy oversubscription of the host. Also the ThreadSanitizer
// workhorse: grain 1 maximizes spawn/steal/park traffic.
TEST(TaskPool, RecursiveGrainOneAcrossThreadCounts) {
  const size_t N = 300;
  for (unsigned Threads : {2u, 4u, 8u, 16u, 32u, 64u}) {
    TaskPool Pool(Threads);
    int64_t Sum = parallelReduce<int64_t>(
        BlockedRange{0, N, 1}, Pool,
        [](size_t B, size_t E) {
          int64_t S = 0;
          for (size_t I = B; I != E; ++I)
            S += static_cast<int64_t>(I);
          return S;
        },
        [](const int64_t &A, const int64_t &B) { return A + B; });
    EXPECT_EQ(Sum, static_cast<int64_t>(N * (N - 1) / 2))
        << "threads " << Threads;
  }
}

// The join tree is fixed by (range, grain), not by the schedule, so even
// a non-associative floating-point reduction must be bitwise identical
// across thread counts and equal to sequentialReduce over the same tree.
TEST(ParallelReduce, BitwiseDeterministicAcrossThreadCounts) {
  const size_t N = 10007;
  std::vector<double> Data(N);
  for (size_t I = 0; I != N; ++I)
    Data[I] = (I % 2 ? 1.0 : -1.0) / static_cast<double>(3 * I + 1);
  auto Leaf = [&](size_t B, size_t E) {
    double S = 0;
    for (size_t I = B; I != E; ++I)
      S += Data[I];
    return S;
  };
  auto Join = [](const double &A, const double &B) { return A + B; };

  const BlockedRange Range{0, N, 64};
  double Reference = sequentialReduce<double>(Range, Leaf, Join);
  for (unsigned Threads : {1u, 2u, 3u, 8u, 32u}) {
    TaskPool Pool(Threads);
    for (int Round = 0; Round != 3; ++Round) {
      double Par = parallelReduce<double>(Range, Pool, Leaf, Join);
      EXPECT_EQ(std::memcmp(&Par, &Reference, sizeof(double)), 0)
          << "threads " << Threads << " round " << Round
          << ": " << Par << " vs " << Reference;
    }
  }
}

// More concurrent waits than workers: every task in a deep spawn/wait
// recursion blocks on a child group. Designs where a joining thread can
// only sleep (without helping) or only help its own queue (without being
// woken on completion) starve here.
TEST(TaskPool, OversubscribedNestedWaits) {
  TaskPool Pool(2);
  std::function<int64_t(int)> Fib = [&](int K) -> int64_t {
    if (K < 2)
      return K;
    int64_t Right = 0;
    TaskGroup Group;
    Pool.spawn(Group, [&] { Right = Fib(K - 2); });
    int64_t Left = Fib(K - 1);
    Pool.wait(Group);
    return Left + Right;
  };
  EXPECT_EQ(Fib(16), 987);
}

// Several external (non-pool) threads drive the same pool concurrently:
// one claims the caller slot, the rest go through the injection queue.
TEST(TaskPool, MultipleExternalThreads) {
  TaskPool Pool(2);
  constexpr int NumDrivers = 4;
  const size_t N = 4096;
  std::vector<int64_t> Results(NumDrivers, -1);
  std::vector<std::thread> Drivers;
  for (int D = 0; D != NumDrivers; ++D)
    Drivers.emplace_back([&, D] {
      Results[D] = parallelReduce<int64_t>(
          BlockedRange{0, N, 16}, Pool,
          [](size_t B, size_t E) { return static_cast<int64_t>(E - B); },
          [](const int64_t &A, const int64_t &B) { return A + B; });
    });
  for (std::thread &T : Drivers)
    T.join();
  for (int D = 0; D != NumDrivers; ++D)
    EXPECT_EQ(Results[D], static_cast<int64_t>(N)) << "driver " << D;
}

TEST(TaskPool, StatsCountersAddUp) {
  TaskPool Pool(4);
  Pool.setTimingEnabled(true);
  const size_t N = 1000, Grain = 100;
  // The tree splits until size <= grain: count its leaves/joins.
  std::function<std::pair<uint64_t, uint64_t>(size_t)> Shape =
      [&](size_t Len) -> std::pair<uint64_t, uint64_t> {
    if (Len <= Grain)
      return {1, 0};
    auto L = Shape(Len / 2), R = Shape(Len - Len / 2);
    return {L.first + R.first, L.second + R.second + 1};
  };
  auto [Leaves, Joins] = Shape(N);

  int64_t Sum = parallelReduce<int64_t>(
      BlockedRange{0, N, Grain}, Pool,
      [](size_t B, size_t E) { return static_cast<int64_t>(E - B); },
      [](const int64_t &A, const int64_t &B) { return A + B; });
  EXPECT_EQ(Sum, static_cast<int64_t>(N));

  StatsSnapshot Snap = Pool.statsSnapshot();
  // Every interior node spawns exactly one task, and every spawned task is
  // executed exactly once, by somebody.
  EXPECT_EQ(Snap.Total.Spawned, Joins);
  EXPECT_EQ(Snap.Total.Executed, Snap.Total.Spawned);
  EXPECT_EQ(Snap.LeafCount, Leaves);
  EXPECT_EQ(Snap.JoinCount, Joins);
  EXPECT_FALSE(poolSummary(Snap).empty());
  EXPECT_FALSE(poolTable(Snap).empty());

  Pool.resetStats();
  StatsSnapshot Zero = Pool.statsSnapshot();
  EXPECT_EQ(Zero.Total.Spawned, 0u);
  EXPECT_EQ(Zero.LeafCount, 0u);
}

TEST(TaskPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(defaultThreadCount(), 1u);
}

TEST(ParallelReduce, MatchesSequentialSum) {
  std::vector<int64_t> Data(100001);
  std::iota(Data.begin(), Data.end(), -50000);
  TaskPool Pool(4);
  auto Leaf = [&](size_t B, size_t E) {
    return std::accumulate(Data.begin() + B, Data.begin() + E, int64_t(0));
  };
  auto Join = [](int64_t A, int64_t B) { return A + B; };
  for (size_t Grain : {1ul, 7ul, 100ul, 100000ul, 1000000ul}) {
    int64_t Par =
        parallelReduce<int64_t>({0, Data.size(), Grain}, Pool, Leaf, Join);
    EXPECT_EQ(Par, Leaf(0, Data.size())) << "grain " << Grain;
  }
}

TEST(ParallelReduce, DeterministicForNonCommutativeJoin) {
  // String-concatenation-like join: result must equal the in-order fold
  // regardless of scheduling (the join tree is fixed by the recursion).
  std::vector<int64_t> Data(5000);
  for (size_t I = 0; I != Data.size(); ++I)
    Data[I] = static_cast<int64_t>(I % 10);
  TaskPool Pool(4);
  auto Leaf = [&](size_t B, size_t E) {
    std::string S;
    for (size_t I = B; I != E; ++I)
      S += static_cast<char>('0' + Data[I]);
    return S;
  };
  auto Join = [](const std::string &A, const std::string &B) {
    return A + B;
  };
  std::string Expected = Leaf(0, Data.size());
  for (int Round = 0; Round != 5; ++Round)
    EXPECT_EQ(parallelReduce<std::string>({0, Data.size(), 64}, Pool, Leaf,
                                          Join),
              Expected);
}

TEST(ParallelReduce, EmptyAndTinyRanges) {
  TaskPool Pool(2);
  auto Leaf = [&](size_t B, size_t E) {
    return static_cast<int64_t>(E - B);
  };
  auto Join = [](int64_t A, int64_t B) { return A + B; };
  EXPECT_EQ(parallelReduce<int64_t>({0, 0, 4}, Pool, Leaf, Join), 0);
  EXPECT_EQ(parallelReduce<int64_t>({5, 6, 4}, Pool, Leaf, Join), 1);
}

TEST(SequentialReduce, SameTreeAsParallel) {
  std::vector<int64_t> Data(999);
  std::iota(Data.begin(), Data.end(), 1);
  TaskPool Pool(3);
  auto Leaf = [&](size_t B, size_t E) {
    int64_t M = INT64_MIN;
    for (size_t I = B; I != E; ++I)
      M = std::max(M, Data[I]);
    return M;
  };
  auto Join = [](int64_t A, int64_t B) { return std::max(A, B); };
  EXPECT_EQ(sequentialReduce<int64_t>({0, Data.size(), 10}, Leaf, Join),
            parallelReduce<int64_t>({0, Data.size(), 10}, Pool, Leaf, Join));
}

/// balanced-()'s lifted loop and the join the pipeline synthesizes for it
/// (PipelineSweep pins it), written out so that no synthesis runs here
/// (the tests stay fast under TSan). The equations are in the order this
/// source assigns them.
const char *const BalancedLifted =
    "ofs = 0;\nbal = true;\naux0 = -1;\nfor (i = 0; i < |s|; i++) {\n"
    "  aux0 = max(aux0, (40 == s[i] ? -1 : 1) - ofs);\n"
    "  ofs = s[i] == 40 ? ofs + 1 : ofs - 1;\n"
    "  bal = bal && ofs >= 0;\n}";

std::vector<ExprRef> balancedJoin() {
  auto v = [](const char *Name, Type Ty = Type::Int) {
    return inputVar(Name, Ty);
  };
  return {maxE(v("aux0_l"), sub(v("aux0_r"), v("ofs_l"))),
          add(v("ofs_l"), v("ofs_r")),
          andE(v("bal_l", Type::Bool), ge(v("ofs_l"), v("aux0_r")))};
}

TEST(InterpReduce, RunsSynthesizedJoinOnData) {
  Loop L = mustParse(BalancedLifted, "balanced-()");
  std::vector<ExprRef> Join = balancedJoin();
  TaskPool Pool(4);
  Rng R(0xFEED);
  for (int Round = 0; Round != 10; ++Round) {
    size_t Len = static_cast<size_t>(R.intIn(0, 3000));
    SeqEnv Seqs;
    std::vector<Value> Elems;
    for (size_t I = 0; I != Len; ++I)
      Elems.push_back(Value::ofInt(R.flip() ? '(' : ')'));
    Seqs["s"] = std::move(Elems);
    StateTuple Par = parallelRunLoop(L, Join, Seqs, Pool, /*Grain=*/37);
    StateTuple Seq = runLoop(L, Seqs);
    ASSERT_EQ(Par, Seq) << "round " << Round;
  }
}

TEST(InterpReduce, CompiledRunMatchesReferenceOnSharedPrograms) {
  // Hand-written joins (no synthesis, so the test stays fast under TSan):
  // an auxiliary-lifted fold, a parameterized one, a boolean one, a
  // two-sequence one, one reading the loop index, and balanced-()'s. Four
  // workers share each compiled loop and join; the result must equal the
  // evalExpr reference over the same join tree, on wrap-around edge inputs.
  struct Case {
    const char *Source;
    std::vector<ExprRef> Join;
  };
  auto v = [](const char *Name, Type Ty = Type::Int) {
    return inputVar(Name, Ty);
  };
  const Case Cases[] = {
      {"mts = 0;\nsum = 0;\nfor (i = 0; i < |s|; i++) {\n"
       "  mts = max(mts + s[i], 0);\n  sum = sum + s[i];\n}",
       {maxE(add(v("mts_l"), v("sum_r")), v("mts_r")),
        add(v("sum_l"), v("sum_r"))}},
      {"res = 0;\np = 1;\nfor (i = 0; i < |s|; i++) {\n"
       "  res = res + s[i] * p;\n  p = p * x;\n}",
       {add(v("res_l"), mul(v("res_r"), v("p_l"))), mul(v("p_l"), v("p_r"))}},
      {"any = false;\nall = true;\nfor (i = 0; i < |s|; i++) {\n"
       "  any = any || s[i] == 0;\n  all = all && s[i] != 1;\n}",
       {orE(v("any_l", Type::Bool), v("any_r", Type::Bool)),
        andE(v("all_l", Type::Bool), v("all_r", Type::Bool))}},
      {"ham = 0;\nfor (i = 0; i < |s|; i++) {\n"
       "  if (s[i] != t[i]) { ham = ham + 1; }\n}",
       {add(v("ham_l"), v("ham_r"))}},
      {"last = -1;\nfor (i = 0; i < |s|; i++) {\n"
       "  if (s[i] == 0) { last = i; }\n}",
       {ite(eq(v("last_r"), intConst(-1)), v("last_l"), v("last_r"))}},
      {BalancedLifted, balancedJoin()},
  };
  TaskPool Pool(4);
  Rng R(0x5eed);
  for (const Case &C : Cases) {
    Loop L = mustParse(C.Source);
    for (unsigned Round = 0; Round != 8; ++Round) {
      SeqEnv Seqs = edgeInputs(L, static_cast<size_t>(R.intIn(0, 3000)),
                               {-3, -2, 1, 2, 5, 40, 41, 1000}, R);
      Env Params;
      for (const ParamDecl &P : L.Params)
        Params[P.Name] = Value::ofInt(Round % 2 ? INT64_MIN : -1);
      size_t Grain = static_cast<size_t>(R.intIn(1, 64));
      EXPECT_EQ(parallelRunLoop(L, C.Join, Seqs, Pool, Grain, Params),
                referenceParallelRun(L, C.Join, Seqs, Grain, Params))
          << C.Source << "\nround " << Round << ", grain " << Grain;
    }
  }
}

TEST(InterpReduce, EmptyInput) {
  Loop L = mustParse("sum = 0;\n"
                     "for (i = 0; i < |s|; i++) { sum = sum + s[i]; }");
  std::vector<ExprRef> Join = {add(inputVar("sum_l"), inputVar("sum_r"))};
  TaskPool Pool(2);
  SeqEnv Seqs;
  Seqs["s"] = {};
  StateTuple S = parallelRunLoop(L, Join, Seqs, Pool, 16);
  EXPECT_EQ(S[0].asInt(), 0);
}

TEST(InterpReduce, EmptyJoinRunsSequentially) {
  // An empty join vector is the pipeline's sequential-fallback signal: the
  // run must match the plain interpreter instead of asserting on arity.
  Loop L = mustParse("sum = 0;\n"
                     "for (i = 0; i < |s|; i++) { sum = sum + s[i]; }");
  TaskPool Pool(2);
  SeqEnv Seqs;
  Seqs["s"] = {Value::ofInt(3), Value::ofInt(-1), Value::ofInt(7)};
  StateTuple S = parallelRunLoop(L, {}, Seqs, Pool, 1);
  EXPECT_EQ(S, runLoop(L, Seqs));
}

// Fault-injected scheduler runs. Each FaultScope is declared before the
// pool so its lifetime brackets every worker thread (configure/reset must
// not race active polls), and each spec bounds its faults (a limit or a
// sparse `every`) so the schedule stays live. These are part of the TSan
// CI sweep — the injected paths must be as race-free as the clean ones.

TEST(TaskPool, FaultInjectedStealFailure) {
  FaultScope Scope("pool.steal:every=3:limit=500");
  TaskPool Pool(4);
  std::atomic<int> Counter{0};
  TaskGroup Group;
  for (int I = 0; I != 1000; ++I)
    Pool.spawn(Group, [&] { Counter.fetch_add(1); });
  Pool.wait(Group);
  EXPECT_EQ(Counter.load(), 1000);
  EXPECT_GE(Pool.statsSnapshot().Total.StealFails,
            FaultInjector::instance().fireCount("pool.steal"));
}

TEST(TaskPool, FaultInjectedAllocationFailure) {
  FaultScope Scope("pool.alloc:every=2");
  TaskPool Pool(4);
  std::atomic<int> Counter{0};
  TaskGroup Group;
  for (int I = 0; I != 200; ++I)
    Pool.spawn(Group, [&] { Counter.fetch_add(1); });
  Pool.wait(Group);
  EXPECT_EQ(Counter.load(), 200);
  // Half the spawns degraded to inline calls — and still all ran.
  StatsSnapshot Snap = Pool.statsSnapshot();
  EXPECT_EQ(Snap.Total.Inlined, 100u);
  EXPECT_EQ(Snap.Total.Spawned, 200u);
  EXPECT_EQ(Snap.Total.Executed, 100u); // the non-inlined half
}

TEST(TaskPool, FaultInjectedSpuriousWakeups) {
  FaultScope Scope("pool.wakeup:every=2");
  TaskPool Pool(4);
  // Recursive fine-grain reduce maximizes park/wake traffic under the
  // injected timed waits.
  const size_t N = 300;
  int64_t Sum = parallelReduce<int64_t>(
      BlockedRange{0, N, 1}, Pool,
      [](size_t B, size_t E) {
        int64_t S = 0;
        for (size_t I = B; I != E; ++I)
          S += static_cast<int64_t>(I);
        return S;
      },
      [](const int64_t &A, const int64_t &B) { return A + B; });
  EXPECT_EQ(Sum, static_cast<int64_t>(N * (N - 1) / 2));
}

TEST(TaskPool, FaultInjectedCombinedChaos) {
  FaultScope Scope(
      "pool.steal:every=5:limit=200,pool.wakeup:every=3,pool.alloc:every=7");
  TaskPool Pool(3);
  std::atomic<int> Counter{0};
  TaskGroup Outer;
  for (int I = 0; I != 16; ++I) {
    Pool.spawn(Outer, [&] {
      TaskGroup Inner;
      for (int J = 0; J != 16; ++J)
        Pool.spawn(Inner, [&] { Counter.fetch_add(1); });
      Pool.wait(Inner);
    });
  }
  Pool.wait(Outer);
  EXPECT_EQ(Counter.load(), 256);
}

} // namespace
