//===- synth/Sketch.h - Sketch compilation C(E) -----------------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compilation function C of paper Section 4.2, producing per-equation
/// join sketches:
///   C(c)        = ??R            (constants)
///   C(x)        = ??R  if x is an input variable
///   C(x)        = ??LR if x is a state variable
///   C(x[e])     = ??R            (sequence reads)
///   C(op(e...)) = op(C(e)...)    (operators preserved)
/// Left-right holes (??LR) range over expressions in variables of both
/// worker threads; right holes (??R) over the right thread's variables only.
/// Holes carry the type of the subexpression they replace, which prunes the
/// candidate pools substantially (an implementation refinement the paper
/// mentions in Section 8.1).
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_SYNTH_SKETCH_H
#define PARSYNT_SYNTH_SKETCH_H

#include "ir/Loop.h"

#include <string>
#include <vector>

namespace parsynt {

/// A hole in a sketch, realized as a reserved-named variable in the body.
struct Hole {
  std::string Name; ///< reserved name, "?h<k>"
  Type Ty;
  bool RightOnly; ///< true for ??R, false for ??LR
};

/// A compiled per-equation sketch.
struct Sketch {
  ExprRef Body; ///< update expression with holes as variables
  std::vector<Hole> Holes;
};

/// Compiles the sketch for one equation of \p L (paper's C function).
Sketch compileSketch(const Equation &Eq);

/// Renders the sketch with ??LR / ??R markers for display.
std::string sketchToString(const Sketch &S);

/// Prefix refutation: per hole k, a boolean term over holes 0..k, the
/// body's other variables and \p Target (a variable of the body's type)
/// that holds on every row where the body equals the target, whatever the
/// holes after k hold. It is derived by pushing the target down through the
/// body's operators: `+ - neg !` invert exactly (wrapping), an `ite` whose
/// guard is known splits the rows between its branches (one with an
/// unknown guard needs one of them), `max min && ||` with one known operand
/// fix the other operand's target on the rows that need it, and a fully
/// known subterm must equal its target. The last hole's term is
/// `Body == Target`; the literal `true` refutes nothing. DESIGN.md §5h
/// ("Prefix refutation") gives the soundness argument.
std::vector<ExprRef> prefixConditions(const Sketch &S, const ExprRef &Target);

} // namespace parsynt

#endif // PARSYNT_SYNTH_SKETCH_H
