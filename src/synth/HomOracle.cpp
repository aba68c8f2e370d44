//===- synth/HomOracle.cpp - Bounded homomorphism oracle ------------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "synth/HomOracle.h"
#include "ir/ExprOps.h"
#include "observe/Metrics.h"
#include "observe/Tracer.h"

#include <algorithm>
#include <numeric>
#include <set>

using namespace parsynt;

namespace {

// The bounded specification's fixed shape.
/// Max chunk length in the exhaustive phase.
constexpr unsigned ExhaustiveLen = 2;
/// Element values of the exhaustive phase (beyond the loop's constants).
constexpr int64_t ExhaustiveValues[] = {-1, 0, 1};
/// Random tests in the initial set, and their max chunk length.
constexpr unsigned RandomTests = 64;
constexpr unsigned RandomLen = 5;
/// Cap on the initial test count.
constexpr size_t MaxTests = 300;
constexpr uint64_t Seed = 0x5eed;

} // namespace

HomOracle::HomOracle(const Loop &L, Deadline Timeout)
    : L(L), Timeout(Timeout), Code(L), Layout(L), R(Seed) {
  // Element pool: the exhaustive values plus every constant of an update
  // and its neighbours. The focused pool: exactly the constants the loop
  // compares against (plus 0/1). Bit- and character-structured benchmarks
  // need dense patterns (adjacent blocks of 1's, nested parentheses) that a
  // diffuse pool produces too rarely to refute near-miss joins.
  std::set<int64_t> PoolSet(std::begin(ExhaustiveValues),
                            std::end(ExhaustiveValues));
  std::set<int64_t> FocusedSet = {0, 1};
  for (int64_t C : updateConstants(L)) {
    PoolSet.insert({C - 1, C, C + 1});
    FocusedSet.insert(C);
  }
  Pool.assign(PoolSet.begin(), PoolSet.end());
  Focused.assign(FocusedSet.begin(), FocusedSet.end());
  buildInitialTests();
}

struct HomOracle::RawExample {
  explicit RawExample(const HomOracle &O)
      : Params(O.L.Params.size()), JoinRow(O.Layout.width()),
        Regs(O.Code.makeRegisters()) {}

  /// The chunk lengths |x| and |y|.
  size_t LeftLen = 0, RightLen = 0;
  /// The parameters in declaration order, and the chunks: Left[K * LeftLen
  /// + J] is element J of sequence K in x, and likewise for y.
  std::vector<int64_t> Params, Left, Right;
  /// The rows of x • y and of y for CompiledLoop::runRaw, and the states
  /// it wrote after every iteration.
  std::vector<int64_t> WholeRow, RightRow, WholeStates, RightStates;
  /// The join row of (fE(x), fE(y)), written by evaluate().
  std::vector<int64_t> JoinRow;
  CompiledLoop::Registers Regs;

  /// fE(x), fE(y) and fE(x • y) after evaluate(), for \p N state variables.
  const int64_t *left(size_t N) const {
    return WholeStates.data() + LeftLen * N;
  }
  const int64_t *right(size_t N) const {
    return RightStates.data() + RightLen * N;
  }
  const int64_t *expected(size_t N) const {
    return WholeStates.data() + (LeftLen + RightLen) * N;
  }
};

void HomOracle::drawRandom(unsigned MaxLen, const std::vector<int64_t> &From,
                           RawExample &Ex) {
  Ex.LeftLen = static_cast<size_t>(R.intIn(0, MaxLen));
  Ex.RightLen = static_cast<size_t>(R.intIn(0, MaxLen));
  for (size_t P = 0; P != L.Params.size(); ++P)
    Ex.Params[P] = L.Params[P].Ty == Type::Int ? R.intIn(-3, 3) : R.flip();
  auto drawChunk = [&](std::vector<int64_t> &Chunk, size_t Len) {
    Chunk.resize(L.Sequences.size() * Len);
    for (int64_t &Element : Chunk)
      Element = From[R.index(From.size())];
  };
  // The right chunk is drawn first: the test set, and with it every join
  // and search counter, was fixed in this order.
  drawChunk(Ex.Right, Ex.RightLen);
  drawChunk(Ex.Left, Ex.LeftLen);
}

void HomOracle::evaluate(RawExample &Ex) const {
  const size_t N = L.Equations.size();
  // One run over x • y yields fE(x) after |x| iterations and fE(x • y)
  // after all of them; a second run over y yields fE(y).
  Ex.WholeRow = Ex.Params;
  Ex.RightRow = Ex.Params;
  for (size_t K = 0; K != L.Sequences.size(); ++K) {
    auto X = Ex.Left.begin() + K * Ex.LeftLen;
    auto Y = Ex.Right.begin() + K * Ex.RightLen;
    Ex.WholeRow.insert(Ex.WholeRow.end(), X, X + Ex.LeftLen);
    Ex.WholeRow.insert(Ex.WholeRow.end(), Y, Y + Ex.RightLen);
    Ex.RightRow.insert(Ex.RightRow.end(), Y, Y + Ex.RightLen);
  }
  Ex.WholeStates.resize((Ex.LeftLen + Ex.RightLen + 1) * N);
  Ex.RightStates.resize((Ex.RightLen + 1) * N);
  Code.runRaw(Ex.WholeRow.data(), Ex.LeftLen + Ex.RightLen,
              Ex.WholeStates.data(), Ex.Regs);
  Code.runRaw(Ex.RightRow.data(), Ex.RightLen, Ex.RightStates.data(), Ex.Regs);
  Layout.writeRow(Ex.left(N), Ex.right(N), Ex.Params.data(), Ex.JoinRow.data());
}

JoinExample HomOracle::box(const RawExample &Ex) const {
  const size_t N = L.Equations.size();
  JoinExample Example;
  Example.Left = rawToState(L, Ex.left(N));
  Example.Right = rawToState(L, Ex.right(N));
  Example.Expected = rawToState(L, Ex.expected(N));
  for (size_t P = 0; P != L.Params.size(); ++P)
    Example.Params[L.Params[P].Name] =
        Value::ofRaw(L.Params[P].Ty, Ex.Params[P]);
  for (size_t K = 0; K != L.Sequences.size(); ++K) {
    auto boxChunk = [&](const std::vector<int64_t> &Chunk, size_t Len) {
      std::vector<Value> Values;
      Values.reserve(Len);
      for (size_t J = 0; J != Len; ++J)
        Values.push_back(Value::ofInt(Chunk[K * Len + J]));
      return Values;
    };
    Example.LeftSeqs[L.Sequences[K].Name] = boxChunk(Ex.Left, Ex.LeftLen);
    Example.RightSeqs[L.Sequences[K].Name] = boxChunk(Ex.Right, Ex.RightLen);
  }
  return Example;
}

void HomOracle::keep(const RawExample &Ex) {
  Rows.insert(Rows.end(), Ex.JoinRow.begin(), Ex.JoinRow.end());
  Tests.push_back(box(Ex));
}

void HomOracle::buildInitialTests() {
  Span TestSpan("buildInitialTests", trace::Oracle);
  struct TestFinisher {
    Span &S;
    const std::vector<JoinExample> &Tests;
    ~TestFinisher() { S.attr("tests", uint64_t(Tests.size())); }
  } Finish{TestSpan, Tests};
  // Parameter bindings (raw, in declaration order): a few fixed draws
  // reused across the exhaustive part so parameterized loops (poly) see
  // more than one evaluation point.
  std::vector<std::vector<int64_t>> ParamDraws;
  for (int Binding = 0; Binding != 3; ++Binding) {
    std::vector<int64_t> P;
    for (const ParamDecl &Param : L.Params)
      P.push_back(Param.Ty == Type::Int ? (Binding == 0 ? 2 : R.intIn(-3, 3))
                                        : R.flip());
    ParamDraws.push_back(std::move(P));
    if (L.Params.empty())
      break;
  }

  // Exhaustive phase: every pair of chunks with length <= ExhaustiveLen over
  // a reduced pool (at most 3 values to keep the product bounded).
  std::vector<int64_t> Reduced = Pool;
  if (Reduced.size() > 3) {
    // Keep the extremes and a middle value; loop constants live at the
    // extremes for character benchmarks.
    std::vector<int64_t> Picked = {Reduced.front(),
                                   Reduced[Reduced.size() / 2],
                                   Reduced.back()};
    Reduced = Picked;
  }

  // All chunks over Reduced with length <= ExhaustiveLen.
  std::vector<std::vector<int64_t>> Chunks;
  Chunks.push_back({});
  size_t TierBegin = 0;
  for (unsigned Len = 1; Len <= ExhaustiveLen; ++Len) {
    size_t TierEnd = Chunks.size();
    for (size_t I = TierBegin; I != TierEnd; ++I) {
      for (int64_t V : Reduced) {
        std::vector<int64_t> Next = Chunks[I];
        Next.push_back(V);
        Chunks.push_back(std::move(Next));
      }
    }
    TierBegin = TierEnd;
  }

  RawExample Ex(*this);
  // Every sequence of a chunk pair gets the same contents.
  auto setChunk = [&](std::vector<int64_t> &Out, size_t &Len,
                      const std::vector<int64_t> &Chunk) {
    Len = Chunk.size();
    Out.clear();
    for (size_t K = 0; K != L.Sequences.size(); ++K)
      Out.insert(Out.end(), Chunk.begin(), Chunk.end());
  };
  Ex.Params = ParamDraws.front();
  // Stopping the test-set build early on deadline expiry is sound: the
  // bounded specification just gets weaker, and an accepted join still
  // faces its CEGIS round's proof.
  for (const auto &LeftChunk : Chunks) {
    if (Timeout.expired())
      break;
    for (const auto &RightChunk : Chunks) {
      if (Tests.size() >= MaxTests)
        break;
      setChunk(Ex.Left, Ex.LeftLen, LeftChunk);
      setChunk(Ex.Right, Ex.RightLen, RightChunk);
      evaluate(Ex);
      keep(Ex);
    }
  }

  if (Timeout.expired())
    return;

  // Random phase: longer chunks, full pool, varied parameters, and (for
  // multi-sequence loops) per-sequence independent contents.
  for (unsigned T = 0; T != RandomTests && Tests.size() < MaxTests; ++T) {
    if (Timeout.expired())
      return;
    const std::vector<int64_t> &P = ParamDraws[R.index(ParamDraws.size())];
    // Alternate the diffuse and the focused pool; focused draws use longer
    // chunks so multi-block patterns appear.
    bool UseFocused = T % 2 == 1;
    drawRandom(UseFocused ? RandomLen + 3 : RandomLen,
               UseFocused ? Focused : Pool, Ex);
    // The test runs under the chosen binding, not the drawn one.
    Ex.Params = P;
    evaluate(Ex);
    keep(Ex);
  }
}

std::vector<int64_t> HomOracle::column(const ExprRef &E) const {
  CompiledJoin Expr(Layout, {E});
  std::vector<int64_t> Regs = Expr.makeRegisters();
  std::vector<int64_t> Values;
  Values.reserve(Tests.size());
  for (size_t T = 0; T != Tests.size(); ++T) {
    Expr.eval(testRow(T), Regs.data());
    Values.push_back(Expr.value(Regs.data(), 0));
  }
  return Values;
}

std::optional<size_t>
HomOracle::firstFailure(const ExprRef &JoinComponent,
                        size_t EquationIndex) const {
  std::vector<int64_t> Values = column(JoinComponent);
  for (size_t T = 0; T != Tests.size(); ++T)
    if (Values[T] != Tests[T].Expected[EquationIndex].raw())
      return T;
  return std::nullopt;
}

std::optional<JoinWitness> HomOracle::witness() const {
  // Sorting the test indices by row brings equal rows together; within a
  // run of equal rows, two tests with different expected states include a
  // neighbouring pair that differs.
  const size_t Width = Layout.width();
  auto rowLess = [&](size_t A, size_t B) {
    const int64_t *RowA = testRow(A);
    auto [PA, PB] = std::mismatch(RowA, RowA + Width, testRow(B));
    return PA != RowA + Width ? *PA < *PB : A < B;
  };
  std::vector<size_t> Order(Tests.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::sort(Order.begin(), Order.end(), rowLess);
  for (size_t K = 1; K < Order.size(); ++K) {
    size_t A = Order[K - 1], B = Order[K];
    if (!std::equal(testRow(A), testRow(A) + Width, testRow(B)))
      continue;
    for (size_t I = 0; I != L.Equations.size(); ++I)
      if (Tests[A].Expected[I].raw() != Tests[B].Expected[I].raw())
        return JoinWitness{A, B, I};
  }
  return std::nullopt;
}

const JoinExample &HomOracle::addCounterexample(const ProofSplit &Split) {
  RawExample Ex(*this);
  Ex.Params = Split.Params;
  Ex.Left = Split.Left;
  Ex.Right = Split.Right;
  Ex.LeftLen = Split.LeftLen;
  Ex.RightLen = Split.RightLen;
  evaluate(Ex);
  keep(Ex);
  MetricsRegistry::global().counter("oracle.counterexamples").inc();
  return Tests.back();
}
