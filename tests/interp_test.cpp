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

/// The lane mode runs the same programs: on random well-typed expressions
/// over every operator, with edge values (division by 0 and by -1,
/// INT64_MIN, wrapping + and *), every lane of runLanes() equals run() on
/// that lane's inputs. Widths 1, 3 and 64 cover the vector loops' remainder
/// and a file run on fewer lanes than it holds.
TEST(CompiledExpr, LanesAgreeWithRunOnRandomExpressions) {
  Rng R(0x1a9e);
  for (unsigned Case = 0; Case != 300; ++Case) {
    Type Ty = Case % 2 ? Type::Bool : Type::Int;
    ExprRef E = randomExpr(R, Ty, 1 + Case % 6);
    std::vector<std::string> Inputs = {"x", "y", "z", "p", "q"};
    CompiledExpr Code({E}, Inputs);
    std::vector<int64_t> Regs = Code.makeRegisters();
    for (size_t Width : {1, 3, 64}) {
      const size_t Active = Case % 3 ? Width : Width - Width / 4;
      LaneFile Lanes = Code.makeLaneFile(Width);
      std::vector<std::vector<int64_t>> Points(Active);
      for (std::vector<int64_t> &Point : Points) {
        for (size_t I = 0; I != 3; ++I)
          Point.push_back(R.chance(2, 3)
                              ? EdgeValues[R.index(EdgeValues.size())]
                              : R.intIn(-100, 100));
        for (size_t I = 3; I != 5; ++I)
          Point.push_back(R.flip());
      }
      for (size_t J = 0; J != Active; ++J)
        for (size_t I = 0; I != 5; ++I)
          Lanes.row(I)[J] = Points[J][I];
      Code.runLanes(Lanes, Active);
      for (size_t J = 0; J != Active; ++J) {
        std::copy(Points[J].begin(), Points[J].end(), Regs.begin());
        ASSERT_EQ(Code.resultLanes(Lanes, 0)[J], Code.run(Regs.data()))
            << exprToString(E) << " at case " << Case << ", lane " << J
            << " of " << Width;
      }
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

    // initRaw reads the same row's parameters.
    std::vector<int64_t> Raw(N);
    Code.initRaw(Row.data(), Raw.data(), Regs);
    EXPECT_EQ(Raw, std::vector<int64_t>(States.begin(), States.begin() + N))
        << B.Name;
  }
}

TEST(CompiledLoop, LaneCallsMatchTheRawCalls) {
  // runLanes gives every lane runRaw's final state for that lane's own
  // length, 0 to 10 (every length occurs at width 64), and leaves the
  // parameters in lane order; stepLanes matches the reference's iteration
  // and initLanes matches initRaw, lane by lane.
  Rng R(0x1a9f);
  const size_t MaxLength = 10;
  for (const Benchmark &B : allBenchmarks()) {
    Loop L = parseBenchmark(B);
    const size_t N = L.Equations.size(), NumParams = L.Params.size(),
                 NumSeqs = L.Sequences.size();
    const size_t RowWidth = NumParams + NumSeqs * MaxLength;
    std::vector<int64_t> Pool = {-1, 0, 1, 2};
    for (int64_t C : updateConstants(L))
      Pool.insert(Pool.end(), {C - 1, C});
    CompiledLoop Code(L);
    CompiledLoop::Registers Regs = Code.makeRegisters();
    for (size_t Width : {1, 3, 64}) {
      SCOPED_TRACE(B.Name + " at width " + std::to_string(Width));
      std::vector<int64_t> Rows(Width * RowWidth);
      std::vector<size_t> Lengths(Width);
      for (size_t J = 0; J != Width; ++J) {
        int64_t *Row = Rows.data() + J * RowWidth;
        Lengths[J] = Width == 64 ? J % (MaxLength + 1)
                                 : static_cast<size_t>(R.intIn(0, 10));
        for (size_t P = 0; P != NumParams; ++P)
          Row[P] = L.Params[P].Ty == Type::Int ? R.intIn(-3, 3) : R.flip();
        for (size_t K = 0; K != NumSeqs; ++K)
          for (size_t I = 0; I != Lengths[J]; ++I)
            Row[NumParams + K * Lengths[J] + I] =
                L.Sequences[K].ElemTy == Type::Int
                    ? Pool[R.index(Pool.size())]
                    : R.flip();
      }
      CompiledLoop::LaneRegisters Lanes = Code.makeLaneRegisters(Width);
      Code.runLanes(Rows.data(), RowWidth, Lengths.data(), Lanes);
      std::vector<int64_t> States((MaxLength + 1) * N), Raw(N);
      for (size_t J = 0; J != Width; ++J) {
        const int64_t *Row = Rows.data() + J * RowWidth;
        Code.runRaw(Row, Lengths[J], States.data(), Regs);
        for (size_t I = 0; I != N; ++I)
          EXPECT_EQ(Code.stateLanes(Lanes, I)[J],
                    States[Lengths[J] * N + I])
              << L.Equations[I].Name << " in lane " << J << " of length "
              << Lengths[J];
        for (size_t P = 0; P != NumParams; ++P)
          EXPECT_EQ(Code.paramLanes(Lanes, P)[J], Row[P]);
      }

      // Step every lane's final state at index Lengths[J] on one more
      // element; the reference runs that iteration over the lane's prefix
      // and the element.
      std::vector<int64_t> Before(N * Width), Elements(Width * NumSeqs);
      for (size_t I = 0; I != N; ++I)
        std::copy_n(Code.stateLanes(Lanes, I), Width, &Before[I * Width]);
      for (size_t J = 0; J != Width; ++J) {
        for (size_t K = 0; K != NumSeqs; ++K)
          Code.elementLanes(Lanes, K)[J] = Elements[J * NumSeqs + K] =
              L.Sequences[K].ElemTy == Type::Int ? Pool[R.index(Pool.size())]
                                                 : R.flip();
        Code.indexLanes(Lanes)[J] = static_cast<int64_t>(Lengths[J]);
      }
      Code.stepLanes(Lanes);
      for (size_t J = 0; J != Width; ++J) {
        const int64_t *Row = Rows.data() + J * RowWidth;
        Env Params;
        for (size_t P = 0; P != NumParams; ++P)
          Params[L.Params[P].Name] = Value::ofRaw(L.Params[P].Ty, Row[P]);
        SeqEnv Seqs;
        for (size_t K = 0; K != NumSeqs; ++K) {
          std::vector<Value> &Seq = Seqs[L.Sequences[K].Name];
          for (size_t I = 0; I != Lengths[J]; ++I)
            Seq.push_back(Value::ofRaw(L.Sequences[K].ElemTy,
                                       Row[NumParams + K * Lengths[J] + I]));
          Seq.push_back(Value::ofRaw(L.Sequences[K].ElemTy,
                                     Elements[J * NumSeqs + K]));
        }
        StateTuple State;
        for (size_t I = 0; I != N; ++I)
          State.push_back(
              Value::ofRaw(L.Equations[I].Ty, Before[I * Width + J]));
        const int64_t Len = static_cast<int64_t>(Lengths[J]);
        StateTuple Expected =
            referenceRunRange(L, State, Seqs, Len, Len + 1, Params);
        for (size_t I = 0; I != N; ++I)
          EXPECT_EQ(Code.nextLanes(Lanes, I)[J], Expected[I].raw())
              << L.Equations[I].Name << " stepped in lane " << J;
      }

      Code.initLanes(Lanes);
      for (size_t J = 0; J != Width; ++J) {
        Code.initRaw(Rows.data() + J * RowWidth, Raw.data(), Regs);
        for (size_t I = 0; I != N; ++I)
          EXPECT_EQ(Code.stateLanes(Lanes, I)[J], Raw[I])
              << L.Equations[I].Name << " initial in lane " << J;
      }
    }
  }
}

TEST(CompiledLoop, LanePrefixRunIsSimultaneous) {
  // a and b swap: each update's result is the other's state row, which the
  // lane run must not overwrite before reading it.
  Loop L;
  L.Name = "swap";
  L.Sequences.push_back({"s", Type::Int});
  L.Equations = {{"a", Type::Int, intConst(1), stateVar("b"), false},
                 {"b", Type::Int, intConst(2), stateVar("a"), false}};
  ASSERT_TRUE(verifyLoop(L, VerifyPhase::AfterFrontend).ok());
  CompiledLoop Code(L);
  CompiledLoop::LaneRegisters Lanes = Code.makeLaneRegisters(4);
  const size_t Lengths[] = {3, 0, 2, 1};
  std::vector<int64_t> Rows(4 * 3, 0);
  Code.runLanes(Rows.data(), 3, Lengths, Lanes);
  for (size_t J = 0; J != 4; ++J) {
    EXPECT_EQ(Code.stateLanes(Lanes, 0)[J], Lengths[J] % 2 ? 2 : 1) << J;
    EXPECT_EQ(Code.stateLanes(Lanes, 1)[J], Lengths[J] % 2 ? 1 : 2) << J;
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
