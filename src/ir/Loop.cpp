//===- ir/Loop.cpp - Recurrence-equation loop model -----------------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "ir/Loop.h"
#include "ir/ExprOps.h"

#include <algorithm>
#include <sstream>

using namespace parsynt;

std::string parsynt::splitName(const std::string &Var, Side S) {
  return Var + (S == Side::Left ? "_l" : "_r");
}

const Equation *Loop::findEquation(const std::string &VarName) const {
  for (const Equation &Eq : Equations)
    if (Eq.Name == VarName)
      return &Eq;
  return nullptr;
}

Equation *Loop::findEquation(const std::string &VarName) {
  for (Equation &Eq : Equations)
    if (Eq.Name == VarName)
      return &Eq;
  return nullptr;
}

std::optional<size_t> Loop::equationIndex(const std::string &VarName) const {
  for (size_t I = 0; I != Equations.size(); ++I)
    if (Equations[I].Name == VarName)
      return I;
  return std::nullopt;
}

std::vector<std::string> Loop::stateVarNames() const {
  std::vector<std::string> Names;
  Names.reserve(Equations.size());
  for (const Equation &Eq : Equations)
    Names.push_back(Eq.Name);
  return Names;
}

unsigned Loop::auxiliaryCount() const {
  unsigned Count = 0;
  for (const Equation &Eq : Equations)
    if (Eq.IsAuxiliary)
      ++Count;
  return Count;
}

bool Loop::hasSequence(const std::string &SeqName) const {
  return std::any_of(Sequences.begin(), Sequences.end(),
                     [&](const SeqDecl &S) { return S.Name == SeqName; });
}

Type Loop::seqElemType(const std::string &SeqName) const {
  for (const SeqDecl &S : Sequences)
    if (S.Name == SeqName)
      return S.ElemTy;
  assert(false && "unknown sequence");
  return Type::Int;
}

std::vector<std::string> Loop::outputNames() const {
  if (!Outputs.empty())
    return Outputs;
  return stateVarNames();
}

std::string Loop::str() const {
  std::ostringstream OS;
  OS << "loop " << (Name.empty() ? "<anonymous>" : Name) << " over";
  for (const SeqDecl &S : Sequences)
    OS << " " << S.Name << ":" << typeName(S.ElemTy);
  OS << " (index " << IndexName << ")\n";
  for (const ParamDecl &P : Params)
    OS << "  param " << P.Name << " : " << typeName(P.Ty) << "\n";
  for (const Equation &Eq : Equations) {
    OS << "  " << Eq.Name << " : " << typeName(Eq.Ty)
       << (Eq.IsAuxiliary ? " (aux)" : "") << "\n";
    OS << "    init   = " << exprToString(Eq.Init) << "\n";
    OS << "    update = " << exprToString(Eq.Update) << "\n";
  }
  return OS.str();
}
