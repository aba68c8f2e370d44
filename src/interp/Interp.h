//===- interp/Interp.h - Expression and loop evaluation ---------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable semantics fE of paper Section 4.1. The interpreter powers
/// the bounded synthesis oracle (Section 4.2's correctness specification),
/// semantic-equivalence testing during lifting, proof-obligation sampling
/// (Section 7), and the interpreted parallel runtime.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_INTERP_INTERP_H
#define PARSYNT_INTERP_INTERP_H

#include "interp/Value.h"
#include "ir/Expr.h"
#include "ir/Loop.h"

#include <map>
#include <string>
#include <vector>

namespace parsynt {

/// A variable environment: name -> value. Used for state variables,
/// parameters, the loop index, and the fresh symbolic inputs of lifting.
using Env = std::map<std::string, Value>;

/// Concrete contents of the input sequences: name -> element values. All
/// sequences of a loop must have the same length (lockstep traversal).
using SeqEnv = std::map<std::string, std::vector<Value>>;

/// Evaluates \p E under variable bindings \p Vars and sequence contents
/// \p Seqs. All referenced variables/sequences must be bound; out-of-range
/// sequence accesses are a programmatic error (asserted). Operators follow
/// interp/OpSemantics.h (wrapping arithmetic, total division with x/0 == 0),
/// the one definition shared by the synthesis oracle, the enumerator and the
/// compiled evaluator, so candidates are judged under the semantics they
/// will run with.
Value evalExpr(const ExprRef &E, const Env &Vars, const SeqEnv &Seqs);

/// Convenience overload for expressions with no sequence accesses.
Value evalExpr(const ExprRef &E, const Env &Vars);

/// The state tuple of a loop: values of the state variables, in equation
/// order.
using StateTuple = std::vector<Value>;

/// Builds the initial state of \p L under parameter bindings \p Params.
StateTuple initialState(const Loop &L, const Env &Params = {});

/// Runs one iteration of \p L: simultaneous evaluation of all updates at
/// index \p Index over sequence contents \p Seqs.
StateTuple stepLoop(const Loop &L, const StateTuple &State, const SeqEnv &Seqs,
                    int64_t Index, const Env &Params = {});

/// Runs \p L over the index range [Begin, End) of \p Seqs starting from
/// \p State. This is the "leaf" computation of the divide-and-conquer
/// skeleton; runLoop(L, initialState(L), Seqs, 0, |s|) is fE.
StateTuple runLoopRange(const Loop &L, StateTuple State, const SeqEnv &Seqs,
                        int64_t Begin, int64_t End, const Env &Params = {});

/// Computes fE over the full sequences.
StateTuple runLoop(const Loop &L, const SeqEnv &Seqs, const Env &Params = {});

/// Converts a state tuple to an environment keyed by state-variable name,
/// with an optional suffix appended to every name (the "l"/"r" convention of
/// join expressions, e.g. "sum" -> "sum_l").
Env stateToEnv(const Loop &L, const StateTuple &State,
               const std::string &Suffix = "");

/// Renders a state tuple as "name=value, ...".
std::string stateToString(const Loop &L, const StateTuple &State);

} // namespace parsynt

#endif // PARSYNT_INTERP_INTERP_H
