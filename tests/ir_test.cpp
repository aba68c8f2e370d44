//===- tests/ir_test.cpp - Expression IR unit tests -----------------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "ir/Expr.h"
#include "ir/ExprOps.h"
#include "ir/Loop.h"
#include "lift/Lift.h"
#include "lift/Unfold.h"
#include "normalize/Rules.h"
#include "normalize/Simplify.h"
#include "suite/Benchmarks.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace parsynt;
using namespace parsynt::test;

namespace {

TEST(Expr, ConstructionAndAccessors) {
  ExprRef C = intConst(42);
  EXPECT_EQ(C->kind(), ExprKind::IntConst);
  EXPECT_EQ(C->type(), Type::Int);
  EXPECT_EQ(cast<IntConstExpr>(C)->value(), 42);
  EXPECT_EQ(C->size(), 1u);
  EXPECT_EQ(C->depth(), 1u);

  ExprRef B = boolConst(true);
  EXPECT_TRUE(cast<BoolConstExpr>(B)->value());
  EXPECT_EQ(B->type(), Type::Bool);

  ExprRef V = stateVar("sum");
  EXPECT_EQ(cast<VarExpr>(V)->varClass(), VarClass::State);
  ExprRef I = inputVar("x");
  EXPECT_EQ(cast<VarExpr>(I)->varClass(), VarClass::Input);

  ExprRef Sum = add(V, I);
  EXPECT_EQ(Sum->size(), 3u);
  EXPECT_EQ(Sum->depth(), 2u);
  EXPECT_EQ(cast<BinaryExpr>(Sum)->op(), BinaryOp::Add);
}

TEST(Expr, RttiDispatch) {
  ExprRef E = maxE(intConst(1), inputVar("x"));
  EXPECT_TRUE(isa<BinaryExpr>(E));
  EXPECT_FALSE(isa<IteExpr>(E));
  EXPECT_EQ(dyn_cast<IteExpr>(E), nullptr);
  EXPECT_NE(dyn_cast<BinaryExpr>(E), nullptr);
}

TEST(Expr, StructuralEquality) {
  ExprRef A = add(inputVar("x"), intConst(1));
  ExprRef B = add(inputVar("x"), intConst(1));
  ExprRef C = add(inputVar("x"), intConst(2));
  EXPECT_TRUE(A == B);
  EXPECT_FALSE(A == C);
  EXPECT_EQ(A->hash(), B->hash());
}

TEST(Interning, EqualBuildsOfEveryKindAreOneNode) {
  auto build = [] {
    ExprRef B = inputVar("b", Type::Bool);
    return std::vector<ExprRef>{
        intConst(7),
        boolConst(true),
        stateVar("x"),
        B,
        unknownVar("x@0"),
        seqAccess("s", inputVar("i")),
        neg(inputVar("i")),
        notE(B),
        add(stateVar("x"), intConst(7)),
        ite(B, stateVar("x"), intConst(7))};
  };
  std::vector<ExprRef> First = build(), Second = build();
  for (size_t K = 0; K != First.size(); ++K)
    EXPECT_EQ(First[K].get(), Second[K].get()) << exprToString(First[K]);

  // Every part of the key separates nodes, the variable's class included.
  ExprRef X = stateVar("x"), Y = stateVar("y");
  EXPECT_FALSE(intConst(7) == intConst(8));
  EXPECT_FALSE(boolConst(true) == boolConst(false));
  EXPECT_FALSE(X == stateVar("x", Type::Bool));
  EXPECT_FALSE(X == inputVar("x"));
  EXPECT_FALSE(seqAccess("s", X) == seqAccess("t", X));
  EXPECT_FALSE(seqAccess("s", X) == seqAccess("s", X, Type::Bool));
  EXPECT_FALSE(neg(X) == neg(Y));
  EXPECT_FALSE(sub(X, Y) == sub(Y, X));
  EXPECT_FALSE(sub(X, Y) == add(X, Y));
  ExprRef C = inputVar("c", Type::Bool);
  EXPECT_FALSE(ite(C, X, Y) == ite(C, Y, X));
}

TEST(Interning, HashKeepsItsStructuralValues) {
  // The values every earlier build computed: unordered containers keyed by
  // the hash iterate as they always did. The class is not hashed.
  EXPECT_EQ(intConst(0)->hash(), 0x9e3779b97f4a8c14ull);
  EXPECT_EQ(intConst(-7)->hash(), 0x9e3779b97f4a8c0full);
  EXPECT_EQ(boolConst(true)->hash(), 0x9e3779b97f4a9cc8ull);
  EXPECT_EQ(stateVar("mts")->hash(), 0x75c6f218ad2a237bull);
  EXPECT_EQ(inputVar("mts")->hash(), stateVar("mts")->hash());
  EXPECT_EQ(seqAccess("s", inputVar("i"))->hash(), 0x3399b9920189bcc1ull);
  EXPECT_EQ(neg(unknownVar("s@0"))->hash(), 0xd5764d982f65134bull);
  EXPECT_EQ(notE(boolConst(false))->hash(), 0x23d97aba3c00395bull);
  EXPECT_EQ(maxE(add(stateVar("mts"), seqAccess("s", inputVar("i"))),
                 intConst(0))
                ->hash(),
            0xb3cac54619610e5dull);
  EXPECT_EQ(ite(lt(inputVar("x"), intConst(0)), neg(inputVar("x")),
                inputVar("x"))
                ->hash(),
            0xd4e7dbab1261961aull);
}

TEST(Interning, SimplifyIsAFixpointOfItsOwnResult) {
  // On every unfolding lifting normalizes, and on each of its rewrites.
  size_t Checked = 0;
  for (const char *Name : {"mss", "line-sight", "balanced-()"}) {
    Loop L = materializeIndex(parseBenchmark(*findBenchmark(Name)));
    Unfolding U = unfoldLoop(L, 3, /*FromUnknowns=*/true);
    for (const auto &[Var, Steps] : U.ValuesAtStep)
      for (const ExprRef &Tau : Steps) {
        std::vector<ExprRef> Terms = allRewrites(Tau, figure6Rules());
        Terms.push_back(Tau);
        for (const ExprRef &E : Terms) {
          ExprRef S = simplify(E);
          EXPECT_EQ(simplify(E).get(), S.get());
          EXPECT_EQ(simplify(S).get(), S.get()) << exprToString(S);
          ++Checked;
        }
      }
  }
  EXPECT_GT(Checked, 100u);
}

TEST(Interning, LiftingFreesEveryNodeItBuilds) {
  // No leak, and no memo or cache outlives the nodes it belongs to.
  size_t Before = liveExprCount();
  {
    Loop L = parseBenchmark(*findBenchmark("line-sight"));
    LiftResult R = liftLoop(L);
    EXPECT_GT(liveExprCount(), Before);
  }
  EXPECT_EQ(liveExprCount(), Before);
}

TEST(Expr, Printing) {
  ExprRef E = maxE(add(stateVar("mts"), seqAccess("s", inputVar("i"))),
                   intConst(0));
  EXPECT_EQ(exprToString(E), "max((mts + s[i]), 0)");
  ExprRef T = ite(lt(inputVar("x"), intConst(0)), neg(inputVar("x")),
                  inputVar("x"));
  EXPECT_EQ(exprToString(T), "((x < 0) ? -(x) : x)");
}

TEST(ExprOps, Substitution) {
  ExprRef E = add(stateVar("a"), mul(stateVar("b"), intConst(2)));
  Substitution Subst;
  Subst["a"] = intConst(10);
  Subst["b"] = inputVar("x");
  ExprRef Result = substitute(E, Subst);
  EXPECT_EQ(exprToString(Result), "(10 + (x * 2))");
  // The original is untouched (immutability).
  EXPECT_EQ(exprToString(E), "(a + (b * 2))");
}

TEST(ExprOps, SubstitutionInsideSeqIndex) {
  ExprRef E = seqAccess("s", add(stateVar("k"), intConst(1)));
  Substitution Subst;
  Subst["k"] = intConst(5);
  EXPECT_EQ(exprToString(substitute(E, Subst)), "s[(5 + 1)]");
}

TEST(ExprOps, CollectVars) {
  ExprRef E = andE(lt(stateVar("a"), inputVar("x")),
                   eq(stateVar("b"), intConst(0)));
  auto States = collectVars(E, VarClass::State);
  EXPECT_EQ(States.size(), 2u);
  EXPECT_TRUE(States.count("a"));
  EXPECT_TRUE(States.count("b"));
  auto Inputs = collectVars(E, VarClass::Input);
  EXPECT_EQ(Inputs.size(), 1u);
  EXPECT_TRUE(Inputs.count("x"));
}

TEST(ExprOps, CostFunction) {
  // Definition 6.1 on the paper's mts example: the unknown mts0 at depth 3.
  ExprRef U = unknownVar("mts0");
  ExprRef E = maxE(add(maxE(add(U, inputVar("a")), intConst(0)),
                       inputVar("b")),
                   intConst(0));
  ExprCost Cost = exprCost(E, {"mts0"});
  EXPECT_EQ(Cost.MaxDepth, 4u);
  EXPECT_EQ(Cost.Occurrences, 1u);

  // Rewritten with the unknown at depth 2, cost is strictly lower.
  ExprRef Better = maxE(add(U, add(inputVar("a"), inputVar("b"))),
                        maxE(add(inputVar("a"), inputVar("b")), intConst(0)));
  EXPECT_TRUE(exprCost(Better, {"mts0"}) < Cost);
}

TEST(ExprOps, MaxVarDepthAndOccurrences) {
  ExprRef U = unknownVar("u");
  ExprRef E = add(U, mul(U, intConst(2)));
  EXPECT_EQ(exprCost(E, {"u"}).Occurrences, 2u);
  EXPECT_EQ(exprCost(E, {"u"}).MaxDepth, 2u);
  EXPECT_EQ(exprCost(E, {"missing"}).MaxDepth, 0u);
}

TEST(Loop, ValidationCatchesErrors) {
  Loop L = mustParse("sum = 0;\n"
                     "for (i = 0; i < |s|; i++) { sum = sum + s[i]; }");
  EXPECT_TRUE(verifyLoop(L, VerifyPhase::AfterFrontend).ok());

  // Duplicate state name.
  Loop Bad = L;
  Bad.Equations.push_back(Bad.Equations[0]);
  EXPECT_FALSE(verifyLoop(Bad, VerifyPhase::AfterFrontend).ok());

  // Init reading a sequence.
  Loop Bad2 = L;
  Bad2.Equations[0].Init = seqAccess("s", intConst(0));
  EXPECT_FALSE(verifyLoop(Bad2, VerifyPhase::AfterFrontend).ok());
}

TEST(Loop, Accessors) {
  Loop L = mustParse("a = 0;\nb = 0;\n"
                     "for (i = 0; i < |s|; i++) { a = a + s[i]; b = b + 1; }");
  EXPECT_EQ(L.stateVarNames(), (std::vector<std::string>{"a", "b"}));
  EXPECT_NE(L.findEquation("a"), nullptr);
  EXPECT_EQ(L.findEquation("zzz"), nullptr);
  EXPECT_EQ(L.equationIndex("b"), 1u);
  EXPECT_EQ(L.auxiliaryCount(), 0u);
  EXPECT_TRUE(L.hasSequence("s"));
  EXPECT_FALSE(L.hasSequence("t"));
}

} // namespace
