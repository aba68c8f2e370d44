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

std::optional<std::string> Loop::validate() const {
  std::set<std::string> Seen;
  for (const SeqDecl &S : Sequences)
    if (!Seen.insert(S.Name).second)
      return "duplicate sequence name '" + S.Name + "'";
  for (const ParamDecl &P : Params)
    if (!Seen.insert(P.Name).second)
      return "duplicate parameter name '" + P.Name + "'";
  if (!Seen.insert(IndexName).second)
    return "index name '" + IndexName + "' clashes with another declaration";
  for (const Equation &Eq : Equations)
    if (!Seen.insert(Eq.Name).second)
      return "duplicate state variable '" + Eq.Name + "'";

  std::set<std::string> StateNames;
  for (const Equation &Eq : Equations)
    StateNames.insert(Eq.Name);
  std::set<std::string> ParamNames;
  for (const ParamDecl &P : Params)
    ParamNames.insert(P.Name);

  for (const Equation &Eq : Equations) {
    if (!Eq.Init || !Eq.Update)
      return "equation '" + Eq.Name + "' has a null init or update";
    if (Eq.Init->type() != Eq.Ty || Eq.Update->type() != Eq.Ty)
      return "equation '" + Eq.Name + "' is ill typed";
    // Inits may only mention parameters.
    for (const std::string &V : collectAllVars(Eq.Init))
      if (!ParamNames.count(V))
        return "init of '" + Eq.Name + "' references non-parameter '" + V +
               "'";
    if (!collectSeqNames(Eq.Init).empty())
      return "init of '" + Eq.Name + "' reads a sequence";
    // Updates may mention state vars, params, and the index.
    for (const std::string &V : collectAllVars(Eq.Update))
      if (!StateNames.count(V) && !ParamNames.count(V) && V != IndexName)
        return "update of '" + Eq.Name + "' references undeclared '" + V +
               "'";
    for (const std::string &S : collectSeqNames(Eq.Update))
      if (!hasSequence(S))
        return "update of '" + Eq.Name + "' reads undeclared sequence '" + S +
               "'";
  }
  for (const std::string &Out : Outputs)
    if (!StateNames.count(Out))
      return "output '" + Out + "' is not a state variable";
  return std::nullopt;
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
