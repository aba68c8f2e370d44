//===- ir/Loop.h - Recurrence-equation loop model ---------------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The formal loop model of paper Section 3.3: a loop body with no nested
/// loops is a system of recurrence equations E = <s1 = exp1, ..., sn = expn>
/// where, after the Appendix-A conversion, every right-hand side refers to
/// the start-of-iteration values of the state variables (simultaneous
/// assignment semantics). A Loop bundles the equations with the sequences it
/// traverses, the iteration index, free scalar parameters, and the initial
/// state.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_IR_LOOP_H
#define PARSYNT_IR_LOOP_H

#include "ir/Expr.h"

#include <optional>
#include <string>
#include <vector>

namespace parsynt {

/// An input sequence traversed by the loop. Multiple sequences (e.g. the two
/// strings of hamming) are traversed in lockstep with the same index.
struct SeqDecl {
  std::string Name;
  Type ElemTy = Type::Int;
};

/// A free scalar input parameter of the loop (e.g. the evaluation point of
/// poly). Parameters are read-only.
struct ParamDecl {
  std::string Name;
  Type Ty = Type::Int;
};

/// One recurrence equation: State = Update(SVar, IVar), with the initial
/// value the state variable holds before the first iteration.
struct Equation {
  std::string Name;
  Type Ty = Type::Int;
  /// Value before the first iteration. May reference parameters but not
  /// state variables or sequence elements.
  ExprRef Init;
  /// Start-of-iteration state variables + inputs -> end-of-iteration value.
  ExprRef Update;
  /// True for auxiliary accumulators added by lifting (Section 6); kept for
  /// reporting and for the Table-1 "#Aux" column.
  bool IsAuxiliary = false;
};

/// A single-pass loop over one or more sequences, modelled as an ordered
/// system of recurrence equations with simultaneous-assignment semantics.
class Loop {
public:
  std::string Name;
  std::vector<SeqDecl> Sequences;
  std::string IndexName = "i";
  std::vector<ParamDecl> Params;
  std::vector<Equation> Equations;
  /// Names of the state variables whose final values constitute the loop's
  /// result (the remaining ones are internal/auxiliary). Empty means "all".
  std::vector<std::string> Outputs;

  /// Finds the equation defining \p Name, or null.
  const Equation *findEquation(const std::string &Name) const;
  Equation *findEquation(const std::string &Name);

  /// Index of the equation defining \p VarName, or nullopt.
  std::optional<size_t> equationIndex(const std::string &VarName) const;

  /// All state variable names, in equation order.
  std::vector<std::string> stateVarNames() const;

  /// Number of auxiliary (lifting-introduced) equations.
  unsigned auxiliaryCount() const;

  /// True if a sequence named \p Name is declared.
  bool hasSequence(const std::string &Name) const;
  /// Element type of the sequence \p Name; asserts it exists.
  Type seqElemType(const std::string &Name) const;

  /// Output variable names (Outputs if set, otherwise all state vars).
  std::vector<std::string> outputNames() const;

  /// Pretty-prints the equation system.
  std::string str() const;
};

/// The two chunks a join combines: the left one and the right one.
enum class Side { Left, Right };

/// The name a join expression reads state variable \p Var of chunk \p S
/// under: "<Var>_l" or "<Var>_r" (paper Section 4's split state).
std::string splitName(const std::string &Var, Side S);

} // namespace parsynt

#endif // PARSYNT_IR_LOOP_H
