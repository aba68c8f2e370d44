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

/// Concatenates the per-sequence contents of two chunks.
SeqEnv concatSeqs(const SeqEnv &A, const SeqEnv &B) {
  SeqEnv Result = A;
  for (const auto &[Name, Values] : B) {
    auto &Out = Result[Name];
    Out.insert(Out.end(), Values.begin(), Values.end());
  }
  return Result;
}

} // namespace

HomOracle::HomOracle(const Loop &L, Deadline Timeout)
    : L(L), Timeout(Timeout), Code(L), Layout(L), R(Seed) {
  // Element pool: the exhaustive values plus every integer constant
  // appearing in an update (and its neighbours), so equality tests against
  // characters or thresholds are exercised on both sides.
  std::set<int64_t> PoolSet(std::begin(ExhaustiveValues),
                            std::end(ExhaustiveValues));
  for (const Equation &Eq : L.Equations) {
    forEachNode(Eq.Update, [&](const ExprRef &Node) {
      if (const auto *C = dyn_cast<IntConstExpr>(Node)) {
        // Sentinels and huge constants are not plausible element values.
        if (std::abs(C->value()) > 1000)
          return;
        PoolSet.insert(C->value());
        PoolSet.insert(C->value() + 1);
        PoolSet.insert(C->value() - 1);
      }
    });
  }
  Pool.assign(PoolSet.begin(), PoolSet.end());
  // The focused pool: exactly the constants the loop compares against
  // (plus 0/1). Bit- and character-structured benchmarks need dense
  // patterns (adjacent blocks of 1's, nested parentheses) that a diffuse
  // pool produces too rarely to refute near-miss joins.
  std::set<int64_t> FocusedSet = {0, 1};
  for (const Equation &Eq : L.Equations) {
    forEachNode(Eq.Update, [&](const ExprRef &Node) {
      if (const auto *C = dyn_cast<IntConstExpr>(Node))
        if (std::abs(C->value()) <= 1000)
          FocusedSet.insert(C->value());
    });
  }
  Focused.assign(FocusedSet.begin(), FocusedSet.end());
  buildInitialTests();
}

JoinExample HomOracle::makeExample(const SeqEnv &LeftSeqs,
                                   const SeqEnv &RightSeqs,
                                   const Env &Params) const {
  JoinExample Example;
  Example.LeftSeqs = LeftSeqs;
  Example.RightSeqs = RightSeqs;
  Example.Params = Params;
  Example.Left = Code.run(LeftSeqs, Params);
  Example.Right = Code.run(RightSeqs, Params);
  Example.Expected = Code.run(concatSeqs(LeftSeqs, RightSeqs), Params);
  return Example;
}

void HomOracle::buildInitialTests() {
  Span TestSpan("buildInitialTests", trace::Oracle);
  struct TestFinisher {
    Span &S;
    const std::vector<JoinExample> &Tests;
    ~TestFinisher() { S.attr("tests", uint64_t(Tests.size())); }
  } Finish{TestSpan, Tests};
  // Parameter bindings: a few fixed draws reused across the exhaustive part
  // so parameterized loops (poly) see more than one evaluation point.
  std::vector<Env> ParamDraws;
  for (int Draw = 0; Draw != 3; ++Draw) {
    Env P;
    for (const ParamDecl &Param : L.Params)
      P[Param.Name] = Param.Ty == Type::Int
                          ? Value::ofInt(Draw == 0 ? 2 : R.intIn(-3, 3))
                          : Value::ofBool(R.flip());
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

  auto chunkToSeqs = [&](const std::vector<int64_t> &Chunk) {
    SeqEnv Seqs;
    for (const SeqDecl &S : L.Sequences) {
      std::vector<Value> Values;
      Values.reserve(Chunk.size());
      for (int64_t V : Chunk)
        Values.push_back(Value::ofInt(V));
      Seqs[S.Name] = std::move(Values);
    }
    return Seqs;
  };

  Env P0 = ParamDraws.empty() ? Env() : ParamDraws.front();
  // Stopping the test-set build early on deadline expiry is sound: the
  // bounded specification just gets weaker, and accepted joins still face
  // the CEGIS re-validation and the proof gate.
  for (const auto &LeftChunk : Chunks) {
    if (Timeout.expired())
      break;
    for (const auto &RightChunk : Chunks) {
      if (Tests.size() >= MaxTests)
        break;
      addTest(makeExample(chunkToSeqs(LeftChunk), chunkToSeqs(RightChunk), P0));
    }
  }

  if (Timeout.expired())
    return;

  // Random phase: longer chunks, full pool, varied parameters, and (for
  // multi-sequence loops) per-sequence independent contents.
  for (unsigned T = 0; T != RandomTests && Tests.size() < MaxTests; ++T) {
    if (Timeout.expired())
      return;
    Env P = ParamDraws.empty() ? Env()
                               : ParamDraws[R.index(ParamDraws.size())];
    // Alternate the diffuse and the focused pool; focused draws use longer
    // chunks so multi-block patterns appear.
    bool UseFocused = T % 2 == 1;
    JoinExample Example =
        randomExample(UseFocused ? RandomLen + 3 : RandomLen,
                      UseFocused ? Focused : Pool, R);
    Example.Params = P;
    // Recompute with the chosen parameters.
    addTest(makeExample(Example.LeftSeqs, Example.RightSeqs, P));
  }
}

JoinExample HomOracle::randomExample(unsigned MaxLen,
                                     const std::vector<int64_t> &From,
                                     Rng &Random) const {
  auto randomSeqs = [&](size_t Len) {
    SeqEnv Seqs;
    for (const SeqDecl &S : L.Sequences) {
      std::vector<Value> Values;
      Values.reserve(Len);
      for (size_t I = 0; I != Len; ++I)
        Values.push_back(Value::ofInt(From[Random.index(From.size())]));
      Seqs[S.Name] = std::move(Values);
    }
    return Seqs;
  };
  size_t LeftLen = static_cast<size_t>(Random.intIn(0, MaxLen));
  size_t RightLen = static_cast<size_t>(Random.intIn(0, MaxLen));
  Env Params;
  for (const ParamDecl &Param : L.Params)
    Params[Param.Name] = Param.Ty == Type::Int ? Value::ofInt(Random.intIn(-3, 3))
                                               : Value::ofBool(Random.flip());
  return makeExample(randomSeqs(LeftLen), randomSeqs(RightLen), Params);
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

std::optional<JoinExample>
HomOracle::findCounterexample(const std::vector<ExprRef> &Join,
                              unsigned Rounds) {
  assert(Join.size() == L.Equations.size() && "join arity mismatch");
  Span CexSpan("findCounterexample", trace::Oracle);
  CexSpan.attr("rounds", uint64_t(Rounds));
  // Widen the value pool beyond the synthesis pool to catch coincidences.
  std::vector<int64_t> Wide = Pool;
  Wide.push_back(17);
  Wide.push_back(-23);
  Wide.push_back(100);
  const CompiledJoin Joiner(Layout, Join);
  for (unsigned Round = 0; Round != Rounds; ++Round) {
    // Deadline expiry returns "no counterexample found"; callers that care
    // about the distinction re-check expired() — a timed-out validation
    // must never be read as a passed one.
    if (Timeout.expired())
      return std::nullopt;
    unsigned MaxLen = 1 + Round % 12;
    JoinExample Example =
        randomExample(MaxLen, Round % 2 ? Focused : Wide, R);
    StateTuple Joined =
        Joiner.apply(Example.Left, Example.Right, Example.Params);
    for (size_t I = 0; I != Join.size(); ++I) {
      if (Joined[I].raw() != Example.Expected[I].raw()) {
        CexSpan.attr("found", true);
        CexSpan.attr("at_round", uint64_t(Round));
        MetricsRegistry::global().counter("oracle.counterexamples").inc();
        return Example;
      }
    }
  }
  CexSpan.attr("found", false);
  return std::nullopt;
}

void HomOracle::addTest(JoinExample Example) {
  Rows.resize(Rows.size() + Layout.width());
  Layout.writeRow(Example.Left, Example.Right, Example.Params,
                  Rows.data() + Rows.size() - Layout.width());
  Tests.push_back(std::move(Example));
}
