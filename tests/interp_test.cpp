//===- tests/interp_test.cpp - Interpreter tests --------------------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "interp/CompiledExpr.h"
#include "interp/Interp.h"
#include "interp/OpSemantics.h"
#include "suite/Benchmarks.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <climits>

using namespace parsynt;
using namespace parsynt::test;

namespace {

TEST(Interp, ScalarOperators) {
  Env E;
  E["x"] = Value::ofInt(7);
  E["y"] = Value::ofInt(-3);
  EXPECT_EQ(evalExpr(add(inputVar("x"), inputVar("y")), E).asInt(), 4);
  EXPECT_EQ(evalExpr(sub(inputVar("x"), inputVar("y")), E).asInt(), 10);
  EXPECT_EQ(evalExpr(mul(inputVar("x"), inputVar("y")), E).asInt(), -21);
  EXPECT_EQ(evalExpr(minE(inputVar("x"), inputVar("y")), E).asInt(), -3);
  EXPECT_EQ(evalExpr(maxE(inputVar("x"), inputVar("y")), E).asInt(), 7);
  EXPECT_TRUE(evalExpr(gt(inputVar("x"), inputVar("y")), E).asBool());
  EXPECT_FALSE(evalExpr(eq(inputVar("x"), inputVar("y")), E).asBool());
  EXPECT_EQ(evalExpr(neg(inputVar("x")), E).asInt(), -7);
}

TEST(Interp, TotalDivision) {
  Env E;
  E["x"] = Value::ofInt(7);
  // x / 0 == 0 by the documented total semantics.
  EXPECT_EQ(evalExpr(binary(BinaryOp::Div, inputVar("x"), intConst(0)), E)
                .asInt(),
            0);
  EXPECT_EQ(evalExpr(binary(BinaryOp::Div, inputVar("x"), intConst(2)), E)
                .asInt(),
            3);
}

TEST(Interp, WrapAroundIsDefined) {
  Env E;
  E["x"] = Value::ofInt(INT64_MAX);
  // Must not crash / trip UB sanitizers; wraps in two's complement.
  EXPECT_EQ(evalExpr(add(inputVar("x"), intConst(1)), E).asInt(), INT64_MIN);
  E["x"] = Value::ofInt(INT64_MIN);
  EXPECT_EQ(evalExpr(neg(inputVar("x")), E).asInt(), INT64_MIN);
}

TEST(Interp, ShortCircuit) {
  // (false && crash) is fine because && short-circuits; the right operand
  // dividing by zero is harmless under total semantics anyway, so use an
  // unbound-variable-free check: the ite branch not taken is not evaluated
  // for sequence bounds.
  Env E;
  E["p"] = Value::ofBool(false);
  SeqEnv Seqs;
  Seqs["s"] = {Value::ofInt(5)};
  // ite(p, s[99], 1): the out-of-range access is never evaluated.
  ExprRef Guarded = ite(inputVar("p", Type::Bool),
                        seqAccess("s", intConst(99)), intConst(1));
  EXPECT_EQ(evalExpr(Guarded, E, Seqs).asInt(), 1);
}

TEST(Interp, RunLoopMatchesManualFold) {
  Loop L = mustParse("mts = 0;\n"
                     "for (i = 0; i < |s|; i++) { mts = max(mts + s[i], 0); }");
  SeqEnv Seqs;
  Seqs["s"] = {Value::ofInt(1), Value::ofInt(-2), Value::ofInt(3),
               Value::ofInt(-1), Value::ofInt(3)};
  // Paper Section 2: mts([1,-2,3,-1,3]) == 5.
  EXPECT_EQ(runLoop(L, Seqs)[0].asInt(), 5);
}

TEST(Interp, RunLoopRangeComposes) {
  Loop L = mustParse("sum = 0;\nmx = MIN_INT;\n"
                     "for (i = 0; i < |s|; i++) {\n"
                     "  sum = sum + s[i];\n  mx = max(mx, s[i]);\n}");
  Rng R(3);
  SeqEnv Seqs;
  std::vector<Value> Elems;
  for (int I = 0; I != 64; ++I)
    Elems.push_back(Value::ofInt(R.intIn(-50, 50)));
  Seqs["s"] = Elems;
  StateTuple Whole = runLoop(L, Seqs);
  // Running [0,k) then continuing [k,n) from the midpoint state matches.
  for (int64_t K : {0, 1, 17, 63, 64}) {
    StateTuple Mid = runLoopRange(L, initialState(L), Seqs, 0, K);
    StateTuple End = runLoopRange(L, Mid, Seqs, K, 64);
    EXPECT_EQ(End, Whole);
  }
}

TEST(Interp, StepLoopIsSimultaneous) {
  // a and b swap: simultaneous semantics must not cascade.
  Loop L;
  L.Name = "swap";
  L.Sequences.push_back({"s", Type::Int});
  Equation A{"a", Type::Int, intConst(1), stateVar("b"), false};
  Equation B{"b", Type::Int, intConst(2), stateVar("a"), false};
  L.Equations = {A, B};
  ASSERT_TRUE(verifyLoop(L, VerifyPhase::AfterFrontend).ok());
  SeqEnv Seqs;
  Seqs["s"] = {Value::ofInt(0)};
  StateTuple S = runLoopRange(L, initialState(L), Seqs, 0, 1);
  EXPECT_EQ(S[0].asInt(), 2);
  EXPECT_EQ(S[1].asInt(), 1);
}

TEST(Interp, ParamsThreadThrough) {
  Loop L = mustParse("res = 0;\np = 1;\n"
                     "for (i = 0; i < |s|; i++) {\n"
                     "  res = res + s[i] * p;\n  p = p * x;\n}");
  SeqEnv Seqs;
  Seqs["s"] = {Value::ofInt(1), Value::ofInt(2), Value::ofInt(3)};
  Env Params;
  Params["x"] = Value::ofInt(10);
  // 1 + 2*10 + 3*100 = 321.
  EXPECT_EQ(runLoop(L, Seqs, Params)[0].asInt(), 321);
}

TEST(SemanticEq, DistinguishesAndIdentifies) {
  Rng R(5);
  ExprRef X = inputVar("x"), Y = inputVar("y");
  EXPECT_TRUE(probablyEquivalent(add(X, Y), add(Y, X), R));
  EXPECT_TRUE(probablyEquivalent(maxE(X, Y), maxE(Y, X), R));
  EXPECT_FALSE(probablyEquivalent(sub(X, Y), sub(Y, X), R));
  EXPECT_FALSE(probablyEquivalent(X, Y, R));
  // Type mismatch is never equivalent.
  EXPECT_FALSE(probablyEquivalent(X, lt(X, Y), R));
}

//===----------------------------------------------------------------------===//
// Compiled evaluator: differential against evalExpr.
//===----------------------------------------------------------------------===//

const std::vector<int64_t> EdgeValues = {
    INT64_MIN, INT64_MIN + 1, -(int64_t(1) << 32), -7, -1, 0, 1, 2, 3,
    int64_t(1) << 32, INT64_MAX - 1, INT64_MAX};

/// A seeded random well-typed expression over ints x, y, z and bools p, q,
/// covering every operator, negation and nested ite.
ExprRef randomExpr(Rng &R, Type Ty, unsigned Depth) {
  if (Depth == 0 || R.chance(1, 5)) {
    if (Ty == Type::Bool)
      return R.chance(1, 4) ? boolConst(R.flip())
                            : inputVar(R.flip() ? "p" : "q", Type::Bool);
    if (R.chance(1, 3))
      return intConst(EdgeValues[R.index(EdgeValues.size())]);
    static const char *const Ints[] = {"x", "y", "z"};
    return inputVar(Ints[R.index(3)]);
  }
  auto sub = [&](Type T) { return randomExpr(R, T, Depth - 1); };
  if (R.chance(1, 6))
    return ite(sub(Type::Bool), sub(Ty), sub(Ty));
  if (Ty == Type::Int) {
    static const BinaryOp IntOps[] = {BinaryOp::Add, BinaryOp::Sub,
                                      BinaryOp::Mul, BinaryOp::Div,
                                      BinaryOp::Min, BinaryOp::Max};
    if (R.chance(1, 7))
      return neg(sub(Type::Int));
    return binary(IntOps[R.index(6)], sub(Type::Int), sub(Type::Int));
  }
  static const BinaryOp CmpOps[] = {BinaryOp::Lt, BinaryOp::Le, BinaryOp::Gt,
                                    BinaryOp::Ge, BinaryOp::Eq, BinaryOp::Ne};
  switch (R.index(4)) {
  case 0:
    return notE(sub(Type::Bool));
  case 1:
    return binary(R.flip() ? BinaryOp::And : BinaryOp::Or, sub(Type::Bool),
                  sub(Type::Bool));
  case 2:
    return binary(R.flip() ? BinaryOp::Eq : BinaryOp::Ne, sub(Type::Bool),
                  sub(Type::Bool));
  default:
    return binary(CmpOps[R.index(6)], sub(Type::Int), sub(Type::Int));
  }
}

TEST(CompiledExpr, AgreesWithEvalExprOnRandomExpressions) {
  Rng R(0xd1ff);
  for (unsigned Case = 0; Case != 600; ++Case) {
    Type Ty = Case % 2 ? Type::Bool : Type::Int;
    ExprRef E = randomExpr(R, Ty, 1 + Case % 6);
    std::vector<std::string> Inputs = {"x", "y", "z", "p", "q"};
    CompiledExpr Code({E}, Inputs);
    ASSERT_EQ(Inputs.size(), 5u) << "no variables beyond the given inputs";
    std::vector<int64_t> Regs = Code.makeRegisters();
    for (unsigned Point = 0; Point != 12; ++Point) {
      Env Vars;
      for (size_t I = 0; I != 3; ++I) {
        int64_t V = R.chance(2, 3) ? EdgeValues[R.index(EdgeValues.size())]
                                   : R.intIn(-100, 100);
        Vars[Inputs[I]] = Value::ofInt(V);
        Regs[I] = V;
      }
      for (size_t I = 3; I != 5; ++I) {
        bool B = R.flip();
        Vars[Inputs[I]] = Value::ofBool(B);
        Regs[I] = B;
      }
      ASSERT_EQ(Code.run(Regs.data()), evalExpr(E, Vars).raw())
          << exprToString(E) << " at case " << Case << ", point " << Point;
    }
  }
}

TEST(CompiledExpr, SharedSubtreesAndBareLeaves) {
  // One program, several roots over one register file: a root sharing a
  // subtree with another, a bare input and a bare constant.
  ExprRef X = inputVar("x");
  ExprRef Shared = mul(X, intConst(INT64_MAX));
  ExprRef E = ite(lt(Shared, intConst(0)), Shared, neg(Shared));
  const std::vector<ExprRef> Roots = {E, Shared, X, intConst(-5)};
  std::vector<std::string> Inputs = {"x"};
  CompiledExpr Code(Roots, Inputs);
  std::vector<int64_t> Regs = Code.makeRegisters();
  for (int64_t V : EdgeValues) {
    Regs[0] = V;
    Env Vars;
    Vars["x"] = Value::ofInt(V);
    EXPECT_EQ(Code.run(Regs.data()), evalExpr(E, Vars).raw());
    for (size_t K = 0; K != Roots.size(); ++K)
      EXPECT_EQ(Code.result(Regs.data(), K), evalExpr(Roots[K], Vars).raw())
          << exprToString(Roots[K]) << " at x = " << V;
  }
}

TEST(CompiledLoop, RawRunMatchesTheReferenceAfterEveryIteration) {
  // runRaw reads one row [params | each sequence's elements] and writes the
  // state after every iteration; each must equal the reference run of that
  // many iterations. Elements come from the loop's own constants and their
  // neighbours, so that comparisons (and hamming's two sequences) go both
  // ways.
  Rng R(0x7a11);
  const size_t Length = 8;
  for (const Benchmark &B : allBenchmarks()) {
    Loop L = parseBenchmark(B);
    std::vector<int64_t> Pool = {-1, 0, 1};
    for (const Equation &Eq : L.Equations)
      forEachNode(Eq.Update, [&](const ExprRef &Node) {
        if (const auto *C = dyn_cast<IntConstExpr>(Node))
          if (std::abs(C->value()) <= 1000)
            Pool.insert(Pool.end(), {C->value() - 1, C->value()});
      });
    std::vector<int64_t> Row;
    Env Params;
    for (const ParamDecl &P : L.Params) {
      Row.push_back(P.Ty == Type::Int ? R.intIn(-3, 3) : R.flip());
      Params[P.Name] = P.Ty == Type::Int ? Value::ofInt(Row.back())
                                         : Value::ofBool(Row.back() != 0);
    }
    SeqEnv Seqs;
    for (const SeqDecl &S : L.Sequences)
      for (size_t J = 0; J != Length; ++J) {
        Row.push_back(S.ElemTy == Type::Int ? Pool[R.index(Pool.size())]
                                            : R.flip());
        Seqs[S.Name].push_back(S.ElemTy == Type::Int
                                   ? Value::ofInt(Row.back())
                                   : Value::ofBool(Row.back() != 0));
      }
    const size_t N = L.Equations.size();
    std::vector<int64_t> States((Length + 1) * N);
    CompiledLoop Code(L);
    CompiledLoop::Registers Regs = Code.makeRegisters();
    Code.runRaw(Row.data(), Length, States.data(), Regs);
    StateTuple Init = referenceInitialState(L, Params);
    for (size_t J = 0; J <= Length; ++J) {
      StateTuple Expected = referenceRunRange(L, Init, Seqs, 0,
                                              static_cast<int64_t>(J), Params);
      for (size_t I = 0; I != N; ++I)
        EXPECT_EQ(States[J * N + I], Expected[I].raw())
            << B.Name << ": " << L.Equations[I].Name << " after " << J
            << " iterations";
    }

    // initRaw and stepRaw take the same row format, one element per
    // sequence; stepping the reference's state J at index J gives state
    // J + 1.
    std::vector<int64_t> Raw(N);
    Code.initRaw(Row.data(), Raw.data(), Regs);
    EXPECT_EQ(Raw, std::vector<int64_t>(States.begin(), States.begin() + N))
        << B.Name;
    std::vector<int64_t> StepRow(Row.begin(), Row.begin() + L.Params.size());
    StepRow.resize(L.Params.size() + L.Sequences.size());
    for (size_t J = 0; J != Length; ++J) {
      for (size_t K = 0; K != L.Sequences.size(); ++K)
        StepRow[L.Params.size() + K] = Row[L.Params.size() + K * Length + J];
      const int64_t *Before = States.data() + J * N;
      Code.stepRaw(Before, StepRow.data(), static_cast<int64_t>(J),
                   Raw.data(), Regs);
      StateTuple Expected =
          referenceRunRange(L, rawToState(L, Before), Seqs,
                            static_cast<int64_t>(J),
                            static_cast<int64_t>(J + 1), Params);
      for (size_t I = 0; I != N; ++I)
        EXPECT_EQ(Raw[I], Expected[I].raw())
            << B.Name << ": " << L.Equations[I].Name << " stepped at " << J;
    }
  }
}

TEST(OpSemantics, EdgeCases) {
  EXPECT_EQ(ops::Div{}(INT64_MIN, -1), INT64_MIN);
  EXPECT_EQ(ops::Div{}(42, 0), 0);
  EXPECT_EQ(ops::Div{}(-7, 2), -3);
  EXPECT_EQ(ops::Add{}(INT64_MAX, 1), INT64_MIN);
  EXPECT_EQ(ops::Mul{}(INT64_MIN, -1), INT64_MIN);
  EXPECT_EQ(ops::neg(INT64_MIN), INT64_MIN);
  EXPECT_EQ(ops::applyBinary(BinaryOp::Le, 3, 3), 1);
  EXPECT_EQ(ops::logicalNot(0), 1);
}

} // namespace
