//===- tests/enum_oracle_test.cpp - Enumerator / sketch / oracle tests ----===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "suite/Benchmarks.h"
#include "synth/Enumerator.h"
#include "synth/HomOracle.h"
#include "synth/Sketch.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <array>
#include <climits>
#include <set>

using namespace parsynt;
using namespace parsynt::test;

namespace {

std::vector<Env> smallEnvs() {
  Rng R(77);
  return sampleEnvs({{"x", Type::Int}, {"y", Type::Int}, {"p", Type::Bool}},
                    24, R);
}

/// The raw values of \p E on every environment of \p Envs.
std::vector<int64_t> column(const ExprRef &E, const std::vector<Env> &Envs) {
  std::vector<int64_t> Values;
  for (const Env &TestEnv : Envs)
    Values.push_back(evalExpr(E, TestEnv).raw());
  return Values;
}

/// An enumerator over \p Envs with the given leaves.
Enumerator enumeratorOver(const std::vector<Env> &Envs,
                          const std::vector<ExprRef> &Leaves,
                          EnumeratorOptions Opts = {}) {
  Enumerator E(Envs.size(), Opts);
  for (const ExprRef &Leaf : Leaves)
    E.addLeaf(Leaf, column(Leaf, Envs));
  return E;
}

TEST(Enumerator, BuildsBySizeWithDedup) {
  // Edge points on top of the random ones: overflowing sums and products,
  // INT64_MIN / -1, and division by zero.
  std::vector<Env> Envs = smallEnvs();
  for (auto [X, Y] : {std::pair<int64_t, int64_t>{INT64_MIN, -1},
                      {INT64_MAX, INT64_MAX},
                      {INT64_MIN, INT64_MAX},
                      {5, 0}}) {
    Env Edge;
    Edge["x"] = Value::ofInt(X);
    Edge["y"] = Value::ofInt(Y);
    Edge["p"] = Value::ofBool(X < Y);
    Envs.push_back(std::move(Edge));
  }
  Enumerator E = enumeratorOver(Envs, {inputVar("x"), inputVar("y"),
                                       intConst(0), inputVar("p", Type::Bool)});
  E.growTo(3);
  // x + 0 is observationally x: never kept as a separate class.
  for (const Candidate *C : E.candidatesUpTo(Type::Int, 3))
    EXPECT_NE(exprToString(E.expr(*C)), "(x + 0)");
  // x + y exists.
  bool Found = false;
  for (const Candidate *C : E.candidatesUpTo(Type::Int, 3))
    if (exprToString(E.expr(*C)) == "(x + y)")
      Found = true;
  EXPECT_TRUE(Found);

  // Every retained candidate's cached column is its expression's value,
  // through size 5 (unary, binary and ite combinations of both types).
  E.growTo(5);
  for (Type Ty : {Type::Int, Type::Bool}) {
    for (const Candidate *C : E.candidatesUpTo(Ty, 5)) {
      ASSERT_EQ(E.numTests(), Envs.size());
      const ExprRef Expr = E.expr(*C);
      ASSERT_EQ(Expr->size(), C->Size);
      for (size_t T = 0; T != Envs.size(); ++T)
        ASSERT_EQ(C->Values[T], evalExpr(Expr, Envs[T]).raw())
            << exprToString(Expr) << " on test " << T;
    }
  }
}

TEST(Enumerator, FindMatchingByValueVector) {
  std::vector<Env> Envs = smallEnvs();
  Enumerator E = enumeratorOver(Envs, {inputVar("x"), inputVar("y")});
  E.growTo(5);
  const Candidate *C = E.findMatching(
      Type::Int, column(maxE(inputVar("x"), inputVar("y")), Envs));
  ASSERT_NE(C, nullptr);
  expectEquivalent(E.expr(*C), maxE(inputVar("x"), inputVar("y")));
}

TEST(Enumerator, IncrementalGrowth) {
  Enumerator E = enumeratorOver(smallEnvs(), {inputVar("x"), inputVar("y")});
  E.growTo(3);
  size_t After3 = E.totalCandidates();
  EXPECT_EQ(E.builtSize(), 3u);
  E.growTo(5);
  EXPECT_GT(E.totalCandidates(), After3);
  EXPECT_EQ(E.builtSize(), 5u);
  // Growing to a size already built adds nothing.
  const size_t After5 = E.totalCandidates();
  E.growTo(4);
  EXPECT_EQ(E.totalCandidates(), After5);
  EXPECT_EQ(E.builtSize(), 5u);
}

TEST(Enumerator, RespectsCaps) {
  EnumeratorOptions Opts;
  Opts.MaxPerType = 50;
  Enumerator E = enumeratorOver(
      smallEnvs(), {inputVar("x"), inputVar("y"), intConst(1)}, Opts);
  E.growTo(7);
  EXPECT_LE(E.candidates(Type::Int).size(), 50u);
}

/// The operators the enumerator combines, per operand type.
const std::vector<BinaryOp> &operatorsOver(Type Ty) {
  static const std::vector<BinaryOp> Int = {
      BinaryOp::Add, BinaryOp::Sub, BinaryOp::Min, BinaryOp::Max, BinaryOp::Mul,
      BinaryOp::Div, BinaryOp::Lt,  BinaryOp::Le,  BinaryOp::Eq};
  static const std::vector<BinaryOp> Bool = {BinaryOp::And, BinaryOp::Or};
  return Ty == Type::Int ? Int : Bool;
}

/// Per type (Int, Bool), the columns of every combination of term size \p
/// Size over the candidates of \p E, both operand orders included, as the
/// interpreter evaluates their expressions on \p Envs.
std::array<std::set<std::vector<int64_t>>, 2>
levelColumns(const Enumerator &E, unsigned Size, const std::vector<Env> &Envs) {
  auto bucket = [&](Type Ty, unsigned S) {
    std::vector<ExprRef> Exprs;
    for (const Candidate *C : E.candidatesUpTo(Ty, S))
      if (C->Size == S)
        Exprs.push_back(E.expr(*C));
    return Exprs;
  };
  std::vector<ExprRef> Level;
  for (const ExprRef &A : bucket(Type::Int, Size - 1))
    Level.push_back(neg(A));
  for (const ExprRef &A : bucket(Type::Bool, Size - 1))
    Level.push_back(notE(A));
  for (Type Ty : {Type::Int, Type::Bool}) {
    for (unsigned SizeA = 1; SizeA + 2 <= Size; ++SizeA)
      for (const ExprRef &A : bucket(Ty, SizeA))
        for (const ExprRef &B : bucket(Ty, Size - 1 - SizeA))
          for (BinaryOp Op : operatorsOver(Ty))
            Level.push_back(binary(Op, A, B));
    for (unsigned SizeC = 1; SizeC + 3 <= Size; ++SizeC)
      for (unsigned SizeT = 1; SizeC + SizeT + 2 <= Size; ++SizeT)
        for (const ExprRef &C : bucket(Type::Bool, SizeC))
          for (const ExprRef &T : bucket(Ty, SizeT))
            for (const ExprRef &F : bucket(Ty, Size - 1 - SizeC - SizeT))
              Level.push_back(ite(C, T, F));
  }
  std::array<std::set<std::vector<int64_t>>, 2> Columns;
  for (const ExprRef &X : Level)
    Columns[X->type() == Type::Bool].insert(column(X, Envs));
  return Columns;
}

TEST(Enumerator, NextLevelScanNeverMissesAMatch) {
  // Random leaf sets of both types over a few tests; targets from the next
  // level's combinations (built or dropped as twins), from the pool, and
  // perturbed from both. The scan reports a hit exactly when some
  // combination of the next level evaluates to the target, so growing the
  // level never finds a target the pool lacked where the scan missed; the
  // scan builds nothing.
  uint64_t Hits = 0, Misses = 0;
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    Rng R(Seed);
    std::vector<std::pair<std::string, Type>> Vars;
    for (int I = 0, N = int(R.intIn(1, 3)); I != N; ++I)
      Vars.push_back({"x" + std::to_string(I), Type::Int});
    for (int I = 0, N = int(R.intIn(1, 2)); I != N; ++I)
      Vars.push_back({"p" + std::to_string(I), Type::Bool});
    const std::vector<Env> Envs = sampleEnvs(Vars, 8 + R.intIn(0, 8), R);
    std::vector<ExprRef> Leaves = {intConst(R.intIn(-2, 2))};
    for (const auto &[Name, Ty] : Vars)
      Leaves.push_back(inputVar(Name, Ty));
    const unsigned Built = static_cast<unsigned>(R.intIn(2, 4));
    SCOPED_TRACE("seed " + std::to_string(Seed) + ", level " +
                 std::to_string(Built + 1));

    Enumerator E = enumeratorOver(Envs, Leaves);
    E.growTo(Built);
    Enumerator Grown = enumeratorOver(Envs, Leaves);
    Grown.growTo(Built + 1);
    const auto Level = levelColumns(E, Built + 1, Envs);
    const size_t Candidates = E.totalCandidates();

    for (Type Ty : {Type::Int, Type::Bool}) {
      // Up to 24 targets drawn from each source, and each one perturbed.
      std::vector<std::vector<int64_t>> Targets;
      auto draw = [&](const std::vector<std::vector<int64_t>> &From) {
        for (int I = 0; I != 24 && !From.empty(); ++I)
          Targets.push_back(From[R.intIn(0, int64_t(From.size()) - 1)]);
      };
      draw({Level[Ty == Type::Bool].begin(), Level[Ty == Type::Bool].end()});
      std::vector<std::vector<int64_t>> InPool;
      for (const Candidate &C : E.candidates(Ty))
        InPool.emplace_back(C.Values, C.Values + E.numTests());
      draw(InPool);
      for (size_t I = 0, N = Targets.size(); I != N; ++I) {
        std::vector<int64_t> Perturbed = Targets[I];
        int64_t &V = Perturbed[R.intIn(0, int64_t(Perturbed.size()) - 1)];
        V = Ty == Type::Bool ? !V : V + R.intIn(1, 3);
        Targets.push_back(std::move(Perturbed));
      }
      for (const std::vector<int64_t> &Target : Targets) {
        const bool Hit = E.nextLevelHas(Ty, Target);
        EXPECT_EQ(Hit, Level[Ty == Type::Bool].count(Target) != 0)
            << (Ty == Type::Int ? "int" : "bool") << " target";
        if (!E.findMatching(Ty, Target) && Grown.findMatching(Ty, Target)) {
          EXPECT_TRUE(Hit) << "a false miss";
        }
        ++(Hit ? Hits : Misses);
      }
    }
    EXPECT_EQ(E.builtSize(), Built);
    EXPECT_EQ(E.totalCandidates(), Candidates);
    EXPECT_GT(E.scanned(), 0u);
  }
  EXPECT_GT(Hits, 0u);
  EXPECT_GT(Misses, 0u);
}

TEST(Enumerator, NextLevelScanMissesWhenThePoolIsFull) {
  // A full pool takes nothing from the next level: the scan reports a
  // miss, walking nothing, for a target that level does evaluate to.
  std::vector<Env> Envs = smallEnvs();
  EnumeratorOptions Opts;
  Opts.MaxPerType = 2;
  Enumerator E = enumeratorOver(
      Envs, {inputVar("x"), inputVar("y"), inputVar("p", Type::Bool)}, Opts);
  ASSERT_EQ(E.candidates(Type::Int).size(), 2u);
  const std::vector<int64_t> Target = column(neg(inputVar("x")), Envs);
  EXPECT_EQ(levelColumns(E, 2, Envs)[0].count(Target), 1u);
  EXPECT_FALSE(E.nextLevelHas(Type::Int, Target));
  EXPECT_EQ(E.scanned(), 0u);
  // The other type's pool is not full, so its level is scanned.
  EXPECT_TRUE(
      E.nextLevelHas(Type::Bool, column(notE(inputVar("p", Type::Bool)), Envs)));
}

TEST(Sketch, CompilationFollowsC) {
  // C(min(m2, max(m, s[i]))) == min(??LR, max(??LR, ??R)) — Example 4.2.
  Loop L = mustParse("m = MAX_INT;\nm2 = MAX_INT;\n"
                     "for (i = 0; i < |s|; i++) {\n"
                     "  m2 = min(m2, max(m, s[i]));\n"
                     "  m = min(m, s[i]);\n"
                     "}");
  Sketch S2 = compileSketch(L.Equations[0]); // m2
  EXPECT_EQ(sketchToString(S2), "min(??LR, max(??LR, ??R))");
  ASSERT_EQ(S2.Holes.size(), 3u);
  EXPECT_FALSE(S2.Holes[0].RightOnly);
  EXPECT_FALSE(S2.Holes[1].RightOnly);
  EXPECT_TRUE(S2.Holes[2].RightOnly);

  Sketch S1 = compileSketch(L.Equations[1]); // m
  EXPECT_EQ(sketchToString(S1), "min(??LR, ??R)");
}

TEST(Sketch, ConstantsBecomeRightHoles) {
  Loop L = mustParse("mts = 0;\n"
                     "for (i = 0; i < |s|; i++) { mts = max(mts + s[i], 0); }");
  Sketch S = compileSketch(L.Equations[0]);
  EXPECT_EQ(sketchToString(S), "max((??LR + ??R), ??R)");
}

TEST(Sketch, HolesAreTyped) {
  Loop L = mustParse("bal = true;\nofs = 0;\n"
                     "for (i = 0; i < |s|; i++) {\n"
                     "  ofs = ofs + 1;\n"
                     "  bal = bal && (ofs >= 0);\n"
                     "}");
  Sketch S = compileSketch(*L.findEquation("bal"));
  // First hole replaces the boolean state read; it must be typed bool.
  ASSERT_FALSE(S.Holes.empty());
  EXPECT_EQ(S.Holes[0].Ty, Type::Bool);
}

/// Checks \p T of \p Oracle against the reference semantics: each state is
/// the tree-walking run of its chunks, and \p Row is the test's join row.
void expectMatchesReference(const HomOracle &Oracle, const JoinExample &T,
                            const int64_t *Row) {
  const Loop &L = Oracle.loop();
  EXPECT_EQ(T.Left, referenceRunLoop(L, T.LeftSeqs, T.Params));
  EXPECT_EQ(T.Right, referenceRunLoop(L, T.RightSeqs, T.Params));
  SeqEnv Whole = T.LeftSeqs;
  for (const auto &[Name, Values] : T.RightSeqs) {
    auto &Out = Whole[Name];
    Out.insert(Out.end(), Values.begin(), Values.end());
  }
  EXPECT_EQ(T.Expected, referenceRunLoop(L, Whole, T.Params));
  const JoinLayout &Layout = Oracle.layout();
  std::vector<int64_t> Boxed(Layout.width());
  Layout.writeRow(T.Left, T.Right, T.Params, Boxed.data());
  EXPECT_EQ(std::vector<int64_t>(Row, Row + Layout.width()), Boxed);
}

/// Every test is a point of the bounded specification: its states are the
/// reference runs of its chunks and of their concatenation, on every
/// Table-1 loop.
TEST(Oracle, SpecMatchesDefinition) {
  for (const Benchmark &B : allBenchmarks()) {
    SCOPED_TRACE(B.Name);
    Loop L = parseBenchmark(B);
    HomOracle Oracle(L);
    ASSERT_FALSE(Oracle.tests().empty());
    for (size_t T = 0; T != Oracle.tests().size(); ++T)
      expectMatchesReference(Oracle, Oracle.tests()[T], Oracle.testRow(T));
    // A counterexample is built the same way: the split behind the proof's
    // refutation of the left-only join.
    ProofReport Proof = checkHomomorphismProof(L, leftOnlyJoin(L));
    ASSERT_FALSE(Proof.Verified);
    Oracle.addCounterexample(Proof.Failure->Split);
    size_t Last = Oracle.tests().size() - 1;
    expectMatchesReference(Oracle, Oracle.tests()[Last], Oracle.testRow(Last));
  }
}

TEST(Oracle, AcceptsCorrectRejectsWrong) {
  Loop L = mustParse("sum = 0;\n"
                     "for (i = 0; i < |s|; i++) { sum = sum + s[i]; }");
  HomOracle Oracle(L);
  std::vector<ExprRef> Good = {add(inputVar("sum_l"), inputVar("sum_r"))};
  EXPECT_TRUE(checkHomomorphismProof(L, Good).Verified);
  std::vector<ExprRef> Bad = {maxE(inputVar("sum_l"), inputVar("sum_r"))};
  ProofReport Refuted = checkHomomorphismProof(L, Bad);
  ASSERT_FALSE(Refuted.Verified);

  EXPECT_FALSE(Oracle.firstFailure(Good[0], 0).has_value());
  EXPECT_TRUE(Oracle.firstFailure(Bad[0], 0).has_value());
  // The refutation's split becomes a test the wrong join fails and the
  // right one passes.
  const JoinExample &Added = Oracle.addCounterexample(Refuted.Failure->Split);
  EXPECT_NE(Oracle.column(Bad[0]).back(), Added.Expected[0].raw());
  EXPECT_FALSE(Oracle.firstFailure(Good[0], 0).has_value());
}

/// FNV-1a over the raw payloads of \p Values.
uint64_t fnv(uint64_t Hash, const std::vector<Value> &Values) {
  for (const Value &V : Values) {
    Hash ^= static_cast<uint64_t>(V.raw());
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

/// A digest of everything an example holds: chunks, parameters, states.
uint64_t digest(uint64_t Hash, const JoinExample &T) {
  for (const SeqEnv *Seqs : {&T.LeftSeqs, &T.RightSeqs})
    for (const auto &[Name, Values] : *Seqs)
      Hash = fnv(Hash, Values);
  for (const auto &[Name, V] : T.Params)
    Hash = fnv(Hash, {V});
  Hash = fnv(Hash, T.Left);
  Hash = fnv(Hash, T.Right);
  return fnv(Hash, T.Expected);
}

/// The oracle's draws are part of its contract: the test set (and so every
/// synthesized join and counter) is fixed by its seed, and a counterexample
/// by the proof's own seed. These digests pin them for loops with one and
/// two sequences, with parameters, and with bool state.
TEST(Oracle, DrawsArePinned) {
  struct Pin {
    const char *Name;
    uint64_t Tests, Counterexample;
  };
  const Pin Pins[] = {
      {"mts", 0x1cf235ff6deb061cull, 0x674def7a2573705eull},
      {"poly", 0xde9e7cf41f92a9cdull, 0xe442e6e02b6e6ab0ull},
      {"balanced-()", 0x2a70f63193d29142ull, 0x7aa7a759e00966b6ull},
      {"line-sight", 0x73d064bfde5ee9b9ull, 0x521d396b0e894033ull},
      {"is-sorted", 0x006a9fcd2b864331ull, 0xb9f2424b2a5371ffull},
      {"dot", 0x3bbba76234d716afull, 0x9ddc4b0ed8aca1e4ull},
  };
  const uint64_t Basis = 0xcbf29ce484222325ull;
  for (const Pin &P : Pins) {
    SCOPED_TRACE(P.Name);
    // Two sequences: each chunk draws s's elements, then t's.
    Loop L = std::string(P.Name) == "dot"
                 ? mustParse("d = 0;\nfor (i = 0; i < |s|; i++) "
                             "{ d = d + s[i] * t[i]; }")
                 : parseBenchmark(*findBenchmark(P.Name));
    HomOracle Oracle(L);
    EXPECT_EQ(Oracle.tests().size(), 233u);
    uint64_t Tests = Basis;
    for (const JoinExample &T : Oracle.tests())
      Tests = digest(Tests, T);
    EXPECT_EQ(Tests, P.Tests);
    ProofReport Proof = checkHomomorphismProof(L, leftOnlyJoin(L));
    ASSERT_FALSE(Proof.Verified);
    EXPECT_EQ(digest(Basis, Oracle.addCounterexample(Proof.Failure->Split)),
              P.Counterexample);
  }
  // The proof draws from its own seed, not the oracle's: a proof that
  // passes first leaves the next refutation's counterexample unchanged.
  Loop Poly = parseBenchmark(*findBenchmark("poly"));
  HomOracle Oracle(Poly);
  auto v = [](const char *Name) { return inputVar(Name); };
  std::vector<ExprRef> Join = {add(v("res_l"), mul(v("res_r"), v("p_l"))),
                               mul(v("p_l"), v("p_r"))};
  EXPECT_TRUE(checkHomomorphismProof(Poly, Join).Verified);
  ProofReport Proof = checkHomomorphismProof(Poly, leftOnlyJoin(Poly));
  ASSERT_FALSE(Proof.Verified);
  EXPECT_EQ(digest(Basis, Oracle.addCounterexample(Proof.Failure->Split)),
            Pins[1].Counterexample);
}

TEST(Oracle, ElementPoolContainsLoopConstants) {
  Loop L = mustParse("bal = true;\nofs = 0;\n"
                     "for (i = 0; i < |s|; i++) {\n"
                     "  if (s[i] == '(') { ofs = ofs + 1; }\n"
                     "  else { ofs = ofs - 1; }\n"
                     "  bal = bal && (ofs >= 0);\n"
                     "}");
  HomOracle Oracle(L);
  const auto &Pool = Oracle.elementPool();
  EXPECT_NE(std::find(Pool.begin(), Pool.end(), '('), Pool.end());
}

} // namespace
