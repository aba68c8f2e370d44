//===- interp/Interp.h - Expression and loop evaluation ---------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable semantics fE of paper Section 4.1. Every evaluation runs
/// interp/CompiledExpr.h programs over the loop layout (CompiledLoop) or
/// the split-state join layout (JoinLayout, CompiledJoin), compiled once
/// per consumer (runLoop and friends compile per call) and shared across
/// threads, each run in its own registers. The tree-walking reference they
/// are tested against lives with the tests (tests/TestUtil.h).
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_INTERP_INTERP_H
#define PARSYNT_INTERP_INTERP_H

#include "interp/CompiledExpr.h"
#include "interp/Value.h"
#include "ir/Expr.h"
#include "ir/Loop.h"

#include <map>
#include <string>
#include <vector>

namespace parsynt {

/// A variable environment: name -> value. Binds the parameters of a run.
using Env = std::map<std::string, Value>;

/// Concrete contents of the input sequences: name -> element values. All
/// sequences of a loop must have the same length (lockstep traversal).
using SeqEnv = std::map<std::string, std::vector<Value>>;

/// The state tuple of a loop: values of the state variables, in equation
/// order.
using StateTuple = std::vector<Value>;

/// A loop compiled over the loop layout: one register per state variable
/// in equation order, the loop index, the parameters in declaration order,
/// and the current element of each sequence in declaration order. The
/// initial values and the updates are one program each.
class CompiledLoop {
public:
  explicit CompiledLoop(const Loop &L);

  /// The initial state under parameter bindings \p Params.
  StateTuple initialState(const Env &Params) const;
  /// fE: runs the whole of \p Seqs from the initial state.
  StateTuple run(const SeqEnv &Seqs, const Env &Params) const;
  /// Runs the iterations [Begin, End) over \p Seqs from \p State.
  StateTuple run(const StateTuple &State, const SeqEnv &Seqs, int64_t Begin,
                 int64_t End, const Env &Params) const;
  /// Runs one iteration at index \p Index whose element of sequence K is
  /// \p Elements[K].
  StateTuple step(const StateTuple &State, const std::vector<Value> &Elements,
                  int64_t Index, const Env &Params) const;
  /// The raw form, for callers that keep their inputs in rows: \p Row holds
  /// the parameters in declaration order, then the \p Length elements of
  /// each sequence in declaration order. Runs the whole row from the
  /// initial state and writes the raw state after 0..Length iterations to
  /// \p Out, one state (equation order) per iteration count.
  void runRaw(const int64_t *Row, size_t Length, int64_t *Out) const;

private:
  /// Runs the iterations [Begin, End) from \p State; Columns[K] points at
  /// the element of sequence K at Begin and moves \p Stride per iteration.
  StateTuple iterate(const StateTuple &State,
                     std::vector<const Value *> Columns, size_t Stride,
                     int64_t Begin, int64_t End, const Env &Params) const;

  std::vector<Type> Types;
  std::vector<std::string> ParamNames, SeqNames;
  CompiledExpr Init, Update;
};

/// The split-state join layout: `v_l` and `v_r` (splitName) for every state
/// variable in equation order, then the parameters in declaration order.
/// Split-state names shadow parameters of the same name.
class JoinLayout {
public:
  explicit JoinLayout(const Loop &L);

  const std::vector<std::string> &names() const { return Names; }
  size_t width() const { return Names.size(); }
  /// The register of \p Name (asserted to exist).
  unsigned slot(const std::string &Name) const;
  /// Writes the row of split states \p Left, \p Right under \p Params to
  /// \p Out.
  void writeRow(const StateTuple &Left, const StateTuple &Right,
                const Env &Params, int64_t *Out) const;

private:
  std::vector<std::string> Names;
};

/// Join-side expressions compiled over a JoinLayout, one root each. Applied
/// as a join, expression K is the component of state variable K.
class CompiledJoin {
public:
  CompiledJoin(const JoinLayout &Layout, const std::vector<ExprRef> &Exprs);

  std::vector<int64_t> makeRegisters() const { return Code.makeRegisters(); }
  /// Evaluates every expression on layout row \p Row, in \p Regs.
  void eval(const int64_t *Row, int64_t *Regs) const;
  /// The raw value of expression \p K after eval().
  int64_t value(const int64_t *Regs, size_t K) const {
    return Code.result(Regs, K);
  }
  /// The joined state of \p Left and \p Right under \p Params.
  StateTuple apply(const StateTuple &Left, const StateTuple &Right,
                   const Env &Params) const;

private:
  JoinLayout Layout;
  std::vector<Type> Types;
  CompiledExpr Code;
};

/// Builds the initial state of \p L under parameter bindings \p Params.
StateTuple initialState(const Loop &L, const Env &Params = {});

/// Runs \p L over the index range [Begin, End) of \p Seqs starting from
/// \p State. This is the "leaf" computation of the divide-and-conquer
/// skeleton; runLoop(L, initialState(L), Seqs, 0, |s|) is fE.
StateTuple runLoopRange(const Loop &L, StateTuple State, const SeqEnv &Seqs,
                        int64_t Begin, int64_t End, const Env &Params = {});

/// Computes fE over the full sequences.
StateTuple runLoop(const Loop &L, const SeqEnv &Seqs, const Env &Params = {});

/// Converts a state tuple to an environment keyed by state-variable name.
Env stateToEnv(const Loop &L, const StateTuple &State);

/// Renders a state tuple as "name=value, ...".
std::string stateToString(const Loop &L, const StateTuple &State);

} // namespace parsynt

#endif // PARSYNT_INTERP_INTERP_H
