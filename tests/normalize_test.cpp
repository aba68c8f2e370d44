//===- tests/normalize_test.cpp - Simplifier/rules/normalizer tests -------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "interp/OpSemantics.h"
#include "lift/Unfold.h"
#include "normalize/Normalizer.h"
#include "normalize/Rules.h"
#include "normalize/Simplify.h"
#include "suite/Benchmarks.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <unordered_map>

using namespace parsynt;
using namespace parsynt::test;

namespace {

TEST(Simplify, FoldsAndReduces) {
  EXPECT_EQ(exprToString(simplify(add(intConst(2), intConst(3)))), "5");
  EXPECT_EQ(exprToString(simplify(add(inputVar("x"), intConst(0)))), "x");
  EXPECT_EQ(exprToString(simplify(mul(inputVar("x"), intConst(1)))), "x");
  EXPECT_EQ(exprToString(simplify(mul(inputVar("x"), intConst(0)))), "0");
  EXPECT_EQ(exprToString(simplify(sub(inputVar("x"), inputVar("x")))), "0");
  EXPECT_EQ(exprToString(simplify(andE(inputVar("p", Type::Bool),
                                       boolConst(true)))),
            "p");
  EXPECT_EQ(exprToString(simplify(orE(inputVar("p", Type::Bool),
                                      boolConst(true)))),
            "true");
  EXPECT_EQ(exprToString(simplify(notE(notE(inputVar("p", Type::Bool))))),
            "p");
  EXPECT_EQ(exprToString(simplify(neg(neg(inputVar("x"))))), "x");
  EXPECT_EQ(exprToString(simplify(
                ite(boolConst(true), inputVar("x"), inputVar("y")))),
            "x");
  EXPECT_EQ(exprToString(simplify(ite(inputVar("p", Type::Bool),
                                      inputVar("x"), inputVar("x")))),
            "x");
  EXPECT_EQ(exprToString(simplify(le(inputVar("x"), inputVar("x")))), "true");
  EXPECT_EQ(exprToString(simplify(minE(inputVar("x"), inputVar("x")))), "x");
  // A rewrite that builds a new root is simplified again: 0 - -(x) is
  // -(-(x)) before the root is revisited, !y ? false : true is
  // y ? true : false.
  EXPECT_EQ(exprToString(simplify(sub(intConst(0), neg(inputVar("x"))))), "x");
  EXPECT_EQ(exprToString(simplify(ite(notE(inputVar("y", Type::Bool)),
                                      boolConst(false), boolConst(true)))),
            "y");
}

/// The payload of a literal in parsynt::ops' representation (booleans as
/// 0/1).
int64_t literalPayload(const ExprRef &E) {
  if (const auto *C = dyn_cast<IntConstExpr>(E))
    return C->value();
  if (const auto *C = dyn_cast<BoolConstExpr>(E))
    return C->value();
  ADD_FAILURE() << "not folded to a literal: " << exprToString(E);
  return 0;
}

TEST(Simplify, FoldsUnderTheSharedOperatorSemantics) {
  // The constant folder must agree with the evaluators on the wrap-around
  // and total-division edge cases.
  const int64_t Edges[] = {INT64_MIN, -1, 0, 1, INT64_MAX};
  const BinaryOp IntOps[] = {BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul,
                             BinaryOp::Div, BinaryOp::Min, BinaryOp::Max,
                             BinaryOp::Lt,  BinaryOp::Le,  BinaryOp::Gt,
                             BinaryOp::Ge,  BinaryOp::Eq,  BinaryOp::Ne};
  for (BinaryOp Op : IntOps)
    for (int64_t A : Edges)
      for (int64_t B : Edges) {
        ExprRef Folded = simplify(binary(Op, intConst(A), intConst(B)));
        EXPECT_EQ(Folded->type(), binaryResultType(Op));
        EXPECT_EQ(literalPayload(Folded), ops::applyBinary(Op, A, B))
            << A << " " << binaryOpName(Op) << " " << B;
      }
  for (BinaryOp Op : {BinaryOp::And, BinaryOp::Or, BinaryOp::Eq,
                      BinaryOp::Ne})
    for (bool A : {false, true})
      for (bool B : {false, true}) {
        ExprRef Folded = simplify(binary(Op, boolConst(A), boolConst(B)));
        EXPECT_EQ(literalPayload(Folded), ops::applyBinary(Op, A, B))
            << A << " " << binaryOpName(Op) << " " << B;
      }
  for (int64_t A : Edges)
    EXPECT_EQ(literalPayload(simplify(neg(intConst(A)))), ops::neg(A)) << A;
  for (bool A : {false, true})
    EXPECT_EQ(literalPayload(simplify(notE(boolConst(A)))),
              ops::logicalNot(A))
        << A;
}

/// Property: simplification preserves semantics on random expressions, and
/// its result is a fixpoint.
class SimplifyProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimplifyProperty, PreservesSemantics) {
  Rng R(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  for (int Round = 0; Round != 40; ++Round) {
    Type Ty = R.flip() ? Type::Int : Type::Bool;
    ExprRef E = randomExpr(R, 4, Ty, standardVars());
    ExprRef S = simplify(E);
    expectEquivalent(E, S, GetParam());
    EXPECT_EQ(simplify(S), S) << exprToString(E) << " -> " << exprToString(S);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifyProperty, ::testing::Range(0, 8));

/// Property: every Figure-6 rewrite preserves semantics at every position,
/// checked per rule on random expressions. Exercised as a parameterized
/// sweep over the rule set.
class RuleProperty : public ::testing::TestWithParam<size_t> {};

/// Hand-built shapes that make the factoring-direction rules fire; random
/// expressions rarely contain structurally shared operands.
std::vector<ExprRef> factoringSeeds() {
  ExprRef X = inputVar("x"), Y = inputVar("y"), Z = inputVar("z");
  ExprRef P = inputVar("p", Type::Bool);
  return {
      maxE(add(X, Z), add(Y, Z)),            // factor-add-minmax
      minE(sub(X, Z), sub(Y, Z)),            // factor-add-minmax (sub)
      andE(ge(X, Y), ge(X, Z)),              // compare-minmax-factor
      orE(lt(X, Y), lt(Z, Y)),               // compare-minmax-factor
      ite(P, add(X, Z), add(Y, Z)),          // ite-factor
      ite(P, neg(X), neg(Y)),                // ite-factor (unary)
      ite(P, add(X, Y), X),                  // ite-add-bare
      ite(P, X, add(Y, X)),                  // ite-add-bare (else arm)
      add(mul(X, Z), mul(Y, Z)),             // mul factor
      maxE(neg(X), neg(Y)),                  // neg factor
      andE(notE(ge(X, Y)), notE(lt(X, Z))),  // De Morgan factor
      ite(P, maxE(X, Y), minE(X, Y)),        // minmax-ite (binary side)
      ite(ge(X, Y), X, Y),                   // minmax-ite (ite side)
  };
}

TEST_P(RuleProperty, RewritesPreserveSemantics) {
  const RewriteRule &Rule = figure6Rules()[GetParam()];
  Rng R(GetParam() * 104729 + 7);
  unsigned Fired = 0;
  std::vector<ExprRef> Seeds = factoringSeeds();
  for (int Round = 0; Round != 300 && Fired < 60; ++Round) {
    Type Ty = R.flip() ? Type::Int : Type::Bool;
    ExprRef E = Round < static_cast<int>(Seeds.size())
                    ? Seeds[Round]
                    : randomExpr(R, 4, Ty, standardVars());
    std::vector<ExprRef> Out;
    Rule.Apply(E, Out);
    for (const ExprRef &Rewritten : Out) {
      ++Fired;
      Rng RE(Round * 31 + 1);
      ASSERT_TRUE(probablyEquivalent(E, Rewritten, RE, 64))
          << "rule " << Rule.Name << "\n  from " << exprToString(E)
          << "\n  to   " << exprToString(Rewritten);
    }
  }
  // Every rule must actually fire on this grammar (guards against dead or
  // mis-matching patterns).
  EXPECT_GT(Fired, 0u) << "rule " << Rule.Name << " never fired";
}

INSTANTIATE_TEST_SUITE_P(AllRules, RuleProperty,
                         ::testing::Range<size_t>(0, figure6Rules().size()));

/// Property: allRewrites results are all equivalent to the source.
class AllRewritesProperty : public ::testing::TestWithParam<int> {};

TEST_P(AllRewritesProperty, NeighborsEquivalent) {
  Rng R(static_cast<uint64_t>(GetParam()) * 31337 + 3);
  for (int Round = 0; Round != 10; ++Round) {
    ExprRef E = randomExpr(R, 3, Type::Int, standardVars());
    for (const ExprRef &N : allRewrites(E, figure6Rules())) {
      Rng RE(Round);
      ASSERT_TRUE(probablyEquivalent(E, N, RE, 48))
          << exprToString(E) << " -> " << exprToString(N);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllRewritesProperty, ::testing::Range(0, 4));

TEST(Normalizer, MtsUnfoldingReachesOptimalCost) {
  // The Section-2 rewriting chain: mts's second unfolding normalizes to an
  // expression with the unknown at depth 2 (adjacent to the collected sum).
  ExprRef U = unknownVar("mts@0");
  ExprRef A = inputVar("s@1"), B = inputVar("s@2");
  ExprRef Tau = maxE(add(maxE(add(U, A), intConst(0)), B), intConst(0));
  EXPECT_EQ(exprCost(Tau).MaxDepth, 4u);

  NormalizeStats Stats;
  ExprRef Ell = normalizeExpr(Tau, {}, &Stats);
  EXPECT_LE(exprCost(Ell).MaxDepth, 2u);
  EXPECT_EQ(exprCost(Ell).Occurrences, 1u);
  expectEquivalent(Tau, Ell);
  EXPECT_GT(Stats.Expanded, 0u);
}

TEST(Normalizer, BalancedParensFactorsTheBound) {
  // ok0 && (ofs0 >= a) && (ofs0 >= b) should factor to ofs0 >= max(a, b)
  // (the key step of the Section-6.1 walkthrough).
  ExprRef Ofs = unknownVar("ofs@0");
  ExprRef Bal = unknownVar("bal@0", Type::Bool);
  ExprRef A = inputVar("s@1"), B = inputVar("s@2");
  ExprRef Tau = andE(andE(Bal, ge(Ofs, neg(A))), ge(Ofs, sub(neg(A), B)));
  EXPECT_EQ(exprCost(Tau).Occurrences, 3u);
  ExprRef Ell = normalizeExpr(Tau);
  EXPECT_EQ(exprCost(Ell).Occurrences, 2u);
  expectEquivalent(Tau, Ell);
}

TEST(Normalizer, ExpiredDeadlineStopsTheSearch) {
  // The deadline is polled once per expansion; once it has expired the
  // search returns the best form found so far.
  Deadline Timeout = Deadline::after(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(Timeout.expired());
  ExprRef U = unknownVar("u");
  ExprRef Tau = maxE(add(maxE(add(U, inputVar("a")), intConst(0)),
                         inputVar("b")),
                     intConst(0));
  NormalizeStats Stats;
  ExprRef Ell = normalizeExpr(Tau, Timeout, &Stats);
  EXPECT_LE(Stats.Expanded, 1u);
  EXPECT_TRUE(Stats.TimedOut);
  expectEquivalent(Tau, Ell);
}

TEST(ExprKeys, StructuralEqualityMatchesPrintedEquality) {
  // The normalizer's closed set and allRewrites' dedup are keyed by node
  // (terms are interned). That keeps every search bit-identical to keying
  // by exprToString only if node identity and printed equality coincide;
  // check it on the rewrite neighbourhoods, two steps deep, of every
  // Table-1 unfolding lifting inspects.
  size_t Checked = 0;
  for (const Benchmark &B : allBenchmarks()) {
    Loop L = materializeIndex(parseBenchmark(B));
    Unfolding U = unfoldLoop(L, 3, /*FromUnknowns=*/true);
    std::unordered_map<ExprRef, std::string> PrintedOf;
    std::unordered_map<std::string, ExprRef> TermOf;
    auto check = [&](const ExprRef &E) {
      std::string Printed = exprToString(E);
      auto Structural = PrintedOf.emplace(E, Printed).first;
      EXPECT_EQ(Structural->second, Printed)
          << B.Name << ": structurally equal terms print differently";
      auto Textual = TermOf.emplace(Printed, E).first;
      EXPECT_TRUE(Textual->second == E)
          << B.Name << ": distinct terms both print as " << Printed;
      ++Checked;
    };
    for (const auto &[Var, Steps] : U.ValuesAtStep)
      for (size_t Step = 1; Step < Steps.size(); ++Step) {
        ExprRef Tau = simplify(Steps[Step]);
        check(Tau);
        for (const ExprRef &N : allRewrites(Tau, figure6Rules())) {
          check(N);
          for (const ExprRef &N2 : allRewrites(N, figure6Rules()))
            check(N2);
        }
      }
  }
  EXPECT_GT(Checked, 10000u);
}

TEST(Normalizer, StopsWhenProgressStalls) {
  // line-sight's step-2 vis unfolding already has its lowest cost and
  // size: no rewrite improves on it, so the search returns it unchanged
  // once StallLimit expansions in a row have failed to improve the best.
  Loop L = materializeIndex(parseBenchmark(*findBenchmark("line-sight")));
  ExprRef Tau = simplify(
      unfoldLoop(L, 2, /*FromUnknowns=*/true).ValuesAtStep.at("vis")[2]);
  NormalizeStats Stats;
  ExprRef Ell = normalizeExpr(Tau, {}, &Stats);
  EXPECT_EQ(Ell, Tau);
  EXPECT_EQ(Stats.Expanded, StallLimit);
  EXPECT_FALSE(Stats.TimedOut);
}

} // namespace
