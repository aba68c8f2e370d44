//===- interp/Interp.cpp - Expression and loop evaluation -----------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include <algorithm>
#include <sstream>

using namespace parsynt;

namespace {

/// The tuple of raw values Raw(0..) typed \p Types.
template <typename RawAt>
StateTuple stateOf(const std::vector<Type> &Types, RawAt Raw) {
  StateTuple State;
  for (size_t I = 0; I != Types.size(); ++I)
    State.push_back(Value::ofRaw(Types[I], Raw(I)));
  return State;
}

/// Writes the raw values of the parameters [Begin, End) under \p Params to
/// \p Out; returns the end of the written registers.
template <typename NameIt>
int64_t *loadParams(NameIt Begin, NameIt End, const Env &Params,
                    int64_t *Out) {
  for (; Begin != End; ++Begin) {
    auto It = Params.find(*Begin);
    assert(It != Params.end() && "unbound parameter");
    *Out++ = It == Params.end() ? 0 : It->second.raw();
  }
  return Out;
}

} // namespace

CompiledLoop::CompiledLoop(const Loop &L) {
  std::vector<std::string> Layout;
  std::vector<ExprRef> Inits, Updates;
  for (const Equation &Eq : L.Equations) {
    Layout.push_back(Eq.Name);
    Types.push_back(Eq.Ty);
    Inits.push_back(Eq.Init);
    Updates.push_back(Eq.Update);
  }
  Layout.push_back(L.IndexName);
  for (const ParamDecl &P : L.Params)
    ParamNames.push_back(P.Name);
  Layout.insert(Layout.end(), ParamNames.begin(), ParamNames.end());
  for (const SeqDecl &S : L.Sequences) {
    SeqNames.push_back(S.Name);
    Layout.push_back(CompiledExpr::inputName(
        *seqAccess(S.Name, inputVar(L.IndexName), S.ElemTy)));
  }
  std::vector<std::string> Names = Layout;
  Init = CompiledExpr(Inits, Names);
  Update = CompiledExpr(Updates, Names);
  assert(Names.size() == Layout.size() &&
         "a loop reads its state, index, parameters and s[index] only");
}

StateTuple CompiledLoop::initialState(const Env &Params) const {
  std::vector<int64_t> Regs = Init.makeRegisters();
  loadParams(ParamNames.begin(), ParamNames.end(), Params,
             Regs.data() + Types.size() + 1);
  Init.run(Regs.data());
  return stateOf(Types, [&](size_t I) { return Init.result(Regs.data(), I); });
}

StateTuple CompiledLoop::run(const SeqEnv &Seqs, const Env &Params) const {
  size_t Length = SeqNames.empty() ? 0 : Seqs.at(SeqNames.front()).size();
  for (const std::string &Name : SeqNames) {
    assert(Seqs.at(Name).size() == Length &&
           "lockstep sequences must have equal length");
    (void)Name;
  }
  return run(initialState(Params), Seqs, 0, static_cast<int64_t>(Length),
             Params);
}

StateTuple CompiledLoop::run(const StateTuple &State, const SeqEnv &Seqs,
                             int64_t Begin, int64_t End,
                             const Env &Params) const {
  if (Begin >= End)
    return State;
  std::vector<const Value *> Columns;
  for (const std::string &Name : SeqNames) {
    const std::vector<Value> &Column = Seqs.at(Name);
    assert(Column.size() >= size_t(End) && "sequence shorter than the range");
    Columns.push_back(Column.data() + Begin);
  }
  return iterate(State, std::move(Columns), Begin, End, Params);
}

void CompiledLoop::initRaw(const int64_t *Params, int64_t *Out,
                           Registers &Regs) const {
  const size_t N = Types.size();
  std::copy_n(Params, ParamNames.size(), Regs.Init.begin() + N + 1);
  Init.run(Regs.Init.data());
  for (size_t I = 0; I != N; ++I)
    Out[I] = Init.result(Regs.Init.data(), I);
}

void CompiledLoop::stepRaw(const int64_t *State, const int64_t *Row,
                           int64_t Index, int64_t *Out,
                           Registers &Regs) const {
  const size_t N = Types.size();
  int64_t *R = Regs.Update.data();
  std::copy_n(State, N, R);
  R[N] = Index;
  std::copy_n(Row, ParamNames.size() + SeqNames.size(), R + N + 1);
  Update.run(R);
  for (size_t I = 0; I != N; ++I)
    Out[I] = Update.result(R, I);
}

void CompiledLoop::runRaw(const int64_t *Row, size_t Length, int64_t *Out,
                          Registers &Regs) const {
  const size_t N = Types.size(), NumParams = ParamNames.size();
  initRaw(Row, Out, Regs);
  int64_t *R = Regs.Update.data();
  std::copy_n(Row, NumParams, R + N + 1);
  const int64_t *Elements = Row + NumParams;
  for (size_t J = 0; J != Length; ++J) {
    std::copy_n(Out, N, R);
    R[N] = static_cast<int64_t>(J);
    for (size_t K = 0; K != SeqNames.size(); ++K)
      R[N + 1 + NumParams + K] = Elements[K * Length + J];
    Update.run(R);
    Out += N;
    for (size_t I = 0; I != N; ++I)
      Out[I] = Update.result(R, I);
  }
}

StateTuple CompiledLoop::iterate(const StateTuple &State,
                                 std::vector<const Value *> Columns,
                                 int64_t Begin, int64_t End,
                                 const Env &Params) const {
  assert(State.size() == Types.size() && "state arity mismatch");
  const size_t N = Types.size();
  std::vector<int64_t> Regs = Update.makeRegisters(), Next(N);
  for (size_t I = 0; I != N; ++I)
    Regs[I] = State[I].raw();
  int64_t *Elements = loadParams(ParamNames.begin(), ParamNames.end(),
                                 Params, Regs.data() + N + 1);
  for (int64_t Index = Begin; Index < End; ++Index) {
    Regs[N] = Index;
    for (size_t K = 0; K != Columns.size(); ++K)
      Elements[K] = (Columns[K]++)->raw();
    // Every update reads the start-of-iteration state: all of them are
    // computed before any state register is overwritten.
    Update.run(Regs.data());
    for (size_t I = 0; I != N; ++I)
      Next[I] = Update.result(Regs.data(), I);
    std::copy(Next.begin(), Next.end(), Regs.begin());
  }
  return stateOf(Types, [&](size_t I) { return Regs[I]; });
}

JoinLayout::JoinLayout(const Loop &L) : NumStates(L.Equations.size()) {
  for (const Equation &Eq : L.Equations) {
    Names.push_back(splitName(Eq.Name, Side::Left));
    Names.push_back(splitName(Eq.Name, Side::Right));
  }
  for (const ParamDecl &P : L.Params)
    Names.push_back(P.Name);
}

unsigned JoinLayout::slot(const std::string &Name) const {
  auto It = std::find(Names.begin(), Names.end(), Name);
  assert(It != Names.end() && "not a join-layout name");
  return static_cast<unsigned>(It - Names.begin());
}

void JoinLayout::writeRow(const StateTuple &Left, const StateTuple &Right,
                          const Env &Params, int64_t *Out) const {
  assert(Left.size() == Right.size() && 2 * Left.size() <= Names.size() &&
         "state arity mismatch");
  for (size_t I = 0; I != Left.size(); ++I) {
    *Out++ = Left[I].raw();
    *Out++ = Right[I].raw();
  }
  loadParams(Names.begin() + 2 * Left.size(), Names.end(), Params, Out);
}

void JoinLayout::writeRow(const int64_t *Left, const int64_t *Right,
                          const int64_t *Params, int64_t *Out) const {
  for (size_t I = 0; I != NumStates; ++I) {
    *Out++ = Left[I];
    *Out++ = Right[I];
  }
  std::copy_n(Params, Names.size() - 2 * NumStates, Out);
}

CompiledJoin::CompiledJoin(const JoinLayout &Layout,
                           const std::vector<ExprRef> &Exprs)
    : Layout(Layout) {
  std::vector<std::string> Names = Layout.names();
  Code = CompiledExpr(Exprs, Names);
  assert(Names.size() == Layout.width() &&
         "a join reads split states and parameters only");
  for (const ExprRef &E : Exprs)
    Types.push_back(E->type());
}

void CompiledJoin::eval(const int64_t *Row, int64_t *Regs) const {
  std::copy(Row, Row + Layout.width(), Regs);
  Code.run(Regs);
}

StateTuple CompiledJoin::apply(const StateTuple &Left,
                               const StateTuple &Right,
                               const Env &Params) const {
  std::vector<int64_t> Regs = Code.makeRegisters();
  Layout.writeRow(Left, Right, Params, Regs.data());
  Code.run(Regs.data());
  return stateOf(Types, [&](size_t K) { return Code.result(Regs.data(), K); });
}

StateTuple parsynt::initialState(const Loop &L, const Env &Params) {
  return CompiledLoop(L).initialState(Params);
}

StateTuple parsynt::runLoopRange(const Loop &L, StateTuple State,
                                 const SeqEnv &Seqs, int64_t Begin,
                                 int64_t End, const Env &Params) {
  return CompiledLoop(L).run(State, Seqs, Begin, End, Params);
}

StateTuple parsynt::runLoop(const Loop &L, const SeqEnv &Seqs,
                            const Env &Params) {
  return CompiledLoop(L).run(Seqs, Params);
}

StateTuple parsynt::rawToState(const Loop &L, const int64_t *Raw) {
  StateTuple State;
  for (size_t I = 0; I != L.Equations.size(); ++I)
    State.push_back(Value::ofRaw(L.Equations[I].Ty, Raw[I]));
  return State;
}

Env parsynt::stateToEnv(const Loop &L, const StateTuple &State) {
  assert(State.size() == L.Equations.size() && "state arity mismatch");
  Env Result;
  for (size_t I = 0; I != State.size(); ++I)
    Result[L.Equations[I].Name] = State[I];
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
