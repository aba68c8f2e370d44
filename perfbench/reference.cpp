//===- perfbench/reference.cpp - Fixed reference work for host speed -----===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// A fixed amount of interpreter-like work that uses nothing from src/: a
// tree-walking evaluator over a fixed pool of expression nodes, run on a
// fixed set of inputs. Its time moves only with the host, so a program
// time divided by the reference time taken beside it tells a slow program
// from a slow host.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

/// An expression node; children are indices into the same pool, so the
/// work allocates nothing and does not depend on the heap the program
/// left behind.
struct Node {
  enum Kind : uint8_t { Var, Const, Add, Sub, Mul, Min, Max, Select } K;
  int64_t Val; ///< the constant, or the variable's index
  uint32_t A, B, C;
};

uint64_t nextRandom(uint64_t &S) {
  S ^= S << 13;
  S ^= S >> 7;
  S ^= S << 17;
  return S;
}

uint32_t build(std::vector<Node> &Pool, unsigned Depth, uint64_t &S) {
  Node N{Node::Const, 0, 0, 0, 0};
  if (Depth == 0) {
    bool IsVar = nextRandom(S) % 3 != 0;
    N.K = IsVar ? Node::Var : Node::Const;
    N.Val = IsVar ? int64_t(nextRandom(S) % 4) : int64_t(nextRandom(S) % 7);
  } else {
    N.K = Node::Kind(Node::Add + nextRandom(S) % 6);
    N.A = build(Pool, Depth - 1, S);
    N.B = build(Pool, Depth - 1, S);
    if (N.K == Node::Select)
      N.C = build(Pool, Depth - 1, S);
  }
  Pool.push_back(N);
  return uint32_t(Pool.size() - 1);
}

int64_t eval(const std::vector<Node> &Pool, uint32_t I, const int64_t *Vars) {
  const Node &N = Pool[I];
  switch (N.K) {
  case Node::Var:
    return Vars[N.Val];
  case Node::Const:
    return N.Val;
  case Node::Add:
    return eval(Pool, N.A, Vars) + eval(Pool, N.B, Vars);
  case Node::Sub:
    return eval(Pool, N.A, Vars) - eval(Pool, N.B, Vars);
  case Node::Mul:
    return (eval(Pool, N.A, Vars) * eval(Pool, N.B, Vars)) % 1000003;
  case Node::Min:
    return std::min(eval(Pool, N.A, Vars), eval(Pool, N.B, Vars));
  case Node::Max:
    return std::max(eval(Pool, N.A, Vars), eval(Pool, N.B, Vars));
  case Node::Select:
    return eval(Pool, N.A, Vars) > 0 ? eval(Pool, N.B, Vars)
                                     : eval(Pool, N.C, Vars);
  }
  return 0;
}

/// Sixteen fixed random trees of depth 7 in one pool, built once.
struct Forest {
  std::vector<Node> Pool;
  std::vector<uint32_t> Roots;

  Forest() {
    uint64_t S = 0x9e3779b97f4a7c15ull;
    for (unsigned T = 0; T != 16; ++T)
      Roots.push_back(build(Pool, 7, S));
  }
};

/// The fixed work: every tree evaluated on 256 rows.
int64_t referenceWork() {
  static const Forest F;
  int64_t Sum = 0;
  for (size_t T = 0; T != F.Roots.size(); ++T)
    for (int64_t R = 0; R != 256; ++R) {
      const int64_t Vars[4] = {R, R % 5 - 2, int64_t(T),
                               R * int64_t(T) % 11 - 5};
      Sum += eval(F.Pool, F.Roots[T], Vars);
    }
  return Sum;
}

/// Keeps the evaluations observable so they are not dropped.
volatile int64_t ReferenceSink = 0;

} // namespace

double referenceSeconds(unsigned Threads) {
  const double Start = now();
  int64_t Sum = 0;
  if (Threads <= 1) {
    Sum = referenceWork();
  } else {
    std::vector<int64_t> Sums(Threads);
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T != Threads; ++T)
      Workers.emplace_back([&Sums, T] { Sums[T] = referenceWork(); });
    for (std::thread &W : Workers)
      W.join();
    for (int64_t S : Sums)
      Sum += S;
  }
  const double Seconds = now() - Start;
  ReferenceSink = ReferenceSink + Sum;
  return Seconds;
}

} // namespace perfbench
