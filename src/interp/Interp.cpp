//===- interp/Interp.cpp - Expression and loop evaluation -----------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "interp/OpSemantics.h"

#include <sstream>

using namespace parsynt;

Value parsynt::evalExpr(const ExprRef &E, const Env &Vars, const SeqEnv &Seqs) {
  switch (E->kind()) {
  case ExprKind::IntConst:
    return Value::ofInt(cast<IntConstExpr>(E)->value());
  case ExprKind::BoolConst:
    return Value::ofBool(cast<BoolConstExpr>(E)->value());
  case ExprKind::Var: {
    const auto *V = cast<VarExpr>(E);
    auto It = Vars.find(V->name());
    assert(It != Vars.end() && "unbound variable");
    assert(It->second.type() == V->type() && "environment type mismatch");
    return It->second;
  }
  case ExprKind::SeqAccess: {
    const auto *S = cast<SeqAccessExpr>(E);
    auto It = Seqs.find(S->seqName());
    assert(It != Seqs.end() && "unbound sequence");
    int64_t Index = evalExpr(S->index(), Vars, Seqs).asInt();
    assert(Index >= 0 &&
           static_cast<size_t>(Index) < It->second.size() &&
           "sequence access out of range");
    return It->second[static_cast<size_t>(Index)];
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    Value Operand = evalExpr(U->operand(), Vars, Seqs);
    if (U->op() == UnaryOp::Neg)
      return Value::ofInt(ops::neg(Operand.asInt()));
    return Value::ofBool(ops::logicalNot(Operand.asBool()));
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    // Short-circuit boolean operators so candidates behave like source code.
    if (B->op() == BinaryOp::And) {
      if (!evalExpr(B->lhs(), Vars, Seqs).asBool())
        return Value::ofBool(false);
      return evalExpr(B->rhs(), Vars, Seqs);
    }
    if (B->op() == BinaryOp::Or) {
      if (evalExpr(B->lhs(), Vars, Seqs).asBool())
        return Value::ofBool(true);
      return evalExpr(B->rhs(), Vars, Seqs);
    }
    Value L = evalExpr(B->lhs(), Vars, Seqs);
    Value R = evalExpr(B->rhs(), Vars, Seqs);
    assert(L.type() == R.type() && "ill-typed binary operands");
    int64_t Result = ops::applyBinary(B->op(), L.raw(), R.raw());
    if (isArithOp(B->op()))
      return Value::ofInt(Result);
    return Value::ofBool(Result != 0);
  }
  case ExprKind::Ite: {
    const auto *I = cast<IteExpr>(E);
    if (evalExpr(I->cond(), Vars, Seqs).asBool())
      return evalExpr(I->thenExpr(), Vars, Seqs);
    return evalExpr(I->elseExpr(), Vars, Seqs);
  }
  }
  assert(false && "unknown expression kind");
  return Value();
}

Value parsynt::evalExpr(const ExprRef &E, const Env &Vars) {
  static const SeqEnv Empty;
  return evalExpr(E, Vars, Empty);
}

StateTuple parsynt::initialState(const Loop &L, const Env &Params) {
  StateTuple State;
  State.reserve(L.Equations.size());
  for (const Equation &Eq : L.Equations)
    State.push_back(evalExpr(Eq.Init, Params));
  return State;
}

StateTuple parsynt::stepLoop(const Loop &L, const StateTuple &State,
                             const SeqEnv &Seqs, int64_t Index,
                             const Env &Params) {
  assert(State.size() == L.Equations.size() && "state arity mismatch");
  Env Vars = Params;
  Vars[L.IndexName] = Value::ofInt(Index);
  for (size_t I = 0; I != L.Equations.size(); ++I)
    Vars[L.Equations[I].Name] = State[I];
  StateTuple Next;
  Next.reserve(State.size());
  for (const Equation &Eq : L.Equations)
    Next.push_back(evalExpr(Eq.Update, Vars, Seqs));
  return Next;
}

StateTuple parsynt::runLoopRange(const Loop &L, StateTuple State,
                                 const SeqEnv &Seqs, int64_t Begin,
                                 int64_t End, const Env &Params) {
  // Rebuild the environment in place per iteration instead of re-creating
  // maps; this function is the hot path of every oracle.
  Env Vars = Params;
  for (size_t I = 0; I != L.Equations.size(); ++I)
    Vars[L.Equations[I].Name] = State[I];
  Value &IndexSlot = Vars[L.IndexName];
  StateTuple Next(State.size());
  for (int64_t Index = Begin; Index < End; ++Index) {
    IndexSlot = Value::ofInt(Index);
    for (size_t I = 0; I != L.Equations.size(); ++I)
      Next[I] = evalExpr(L.Equations[I].Update, Vars, Seqs);
    for (size_t I = 0; I != L.Equations.size(); ++I)
      Vars[L.Equations[I].Name] = Next[I];
    State = Next;
  }
  return State;
}

StateTuple parsynt::runLoop(const Loop &L, const SeqEnv &Seqs,
                            const Env &Params) {
  size_t Length = 0;
  if (!L.Sequences.empty()) {
    auto It = Seqs.find(L.Sequences.front().Name);
    assert(It != Seqs.end() && "missing sequence contents");
    Length = It->second.size();
    for (const SeqDecl &S : L.Sequences) {
      auto SIt = Seqs.find(S.Name);
      assert(SIt != Seqs.end() && SIt->second.size() == Length &&
             "lockstep sequences must have equal length");
      (void)SIt;
    }
  }
  return runLoopRange(L, initialState(L, Params), Seqs, 0,
                      static_cast<int64_t>(Length), Params);
}

Env parsynt::stateToEnv(const Loop &L, const StateTuple &State,
                        const std::string &Suffix) {
  assert(State.size() == L.Equations.size() && "state arity mismatch");
  Env Result;
  for (size_t I = 0; I != State.size(); ++I)
    Result[L.Equations[I].Name + Suffix] = State[I];
  return Result;
}

std::string parsynt::stateToString(const Loop &L, const StateTuple &State) {
  std::ostringstream OS;
  for (size_t I = 0; I != State.size(); ++I) {
    if (I)
      OS << ", ";
    OS << L.Equations[I].Name << "=" << State[I].str();
  }
  return OS.str();
}
