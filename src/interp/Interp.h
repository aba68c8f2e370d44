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
///
/// The raw calls take their inputs as rows: a row holds the parameters in
/// declaration order, then the elements of each sequence in declaration
/// order (all of one sequence, then all of the next). They write raw states
/// (equation order, bools as 0/1) and run in a caller-owned register file,
/// so a caller that samples many inputs allocates nothing per sample.
///
/// The lane calls do the same for many inputs at once, one per lane of a
/// LaneRegisters (interp/CompiledExpr.h's lane mode). The caller writes the
/// update program's input rows in place (stateLanes() and the rows after
/// it, in the loop layout's order) and reads the results from the state
/// rows or nextLanes().
class CompiledLoop {
public:
  explicit CompiledLoop(const Loop &L);

  /// The register files of the raw calls: one per program. Make one with
  /// makeRegisters() per thread and reuse it across calls.
  struct Registers {
    std::vector<int64_t> Init, Update;
  };
  Registers makeRegisters() const {
    return {Init.makeRegisters(), Update.makeRegisters()};
  }

  /// The initial state under parameter bindings \p Params.
  StateTuple initialState(const Env &Params) const;
  /// fE: runs the whole of \p Seqs from the initial state.
  StateTuple run(const SeqEnv &Seqs, const Env &Params) const;
  /// Runs the iterations [Begin, End) over \p Seqs from \p State.
  StateTuple run(const StateTuple &State, const SeqEnv &Seqs, int64_t Begin,
                 int64_t End, const Env &Params) const;
  /// The raw initial state under the raw parameters \p Params (declaration
  /// order), written to \p Out.
  void initRaw(const int64_t *Params, int64_t *Out, Registers &Regs) const;
  /// fE over a row of \p Length elements per sequence: writes the raw
  /// state after 0..Length iterations to \p Out, one state per iteration
  /// count.
  void runRaw(const int64_t *Row, size_t Length, int64_t *Out,
              Registers &Regs) const;

  /// The lane files of the lane calls, one per program, and runLanes()'
  /// scratch. Make one per lane count and reuse it across calls.
  struct LaneRegisters {
    LaneFile Init, Update;
    std::vector<size_t> Order, Running;
    std::vector<int64_t> Scratch;
  };
  LaneRegisters makeLaneRegisters(size_t Lanes) const {
    return {Init.makeLaneFile(Lanes), Update.makeLaneFile(Lanes), {}, {}, {}};
  }
  /// The input rows of the update program: state variable \p I, the loop
  /// index, parameter \p P, and the current element of sequence \p K.
  int64_t *stateLanes(LaneRegisters &Regs, size_t I) const {
    return Regs.Update.row(I);
  }
  int64_t *indexLanes(LaneRegisters &Regs) const {
    return Regs.Update.row(Types.size());
  }
  int64_t *paramLanes(LaneRegisters &Regs, size_t P) const {
    return Regs.Update.row(Types.size() + 1 + P);
  }
  int64_t *elementLanes(LaneRegisters &Regs, size_t K) const {
    return Regs.Update.row(Types.size() + 1 + ParamNames.size() + K);
  }
  /// initRaw on every lane: the initial state under the parameter rows,
  /// written to the state rows.
  void initLanes(LaneRegisters &Regs) const;
  /// One iteration on every lane, from the state rows at the index row
  /// over the parameter and element rows; component \p I of the next
  /// states is nextLanes(Regs, I).
  void stepLanes(LaneRegisters &Regs) const {
    Update.runLanes(Regs.Update, Regs.Update.Lanes);
  }
  const int64_t *nextLanes(const LaneRegisters &Regs, size_t I) const {
    return Update.resultLanes(Regs.Update, I);
  }
  /// runRaw's final state on every lane: lane J runs Lengths[J] iterations
  /// of the row at Rows + J * RowStride from its initial state, and ends
  /// with that state in its state rows and its parameters in its parameter
  /// rows. A lane stops at its own length: lanes are run longest first, so
  /// iteration J runs only the lanes that reach it.
  void runLanes(const int64_t *Rows, size_t RowStride, const size_t *Lengths,
                LaneRegisters &Regs) const;

private:
  /// Runs the iterations [Begin, End) from \p State; Columns[K] points at
  /// the element of sequence K at Begin.
  StateTuple iterate(const StateTuple &State,
                     std::vector<const Value *> Columns, int64_t Begin,
                     int64_t End, const Env &Params) const;

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
  /// The register of state variable \p I's split state on side \p S.
  unsigned stateSlot(size_t I, Side S) const {
    return static_cast<unsigned>(2 * I + (S == Side::Right));
  }
  /// The register of parameter \p P.
  unsigned paramSlot(size_t P) const {
    return static_cast<unsigned>(2 * NumStates + P);
  }
  /// Writes the row of split states \p Left, \p Right under \p Params to
  /// \p Out.
  void writeRow(const StateTuple &Left, const StateTuple &Right,
                const Env &Params, int64_t *Out) const;
  /// The raw form: \p Left and \p Right are raw states, \p Params the raw
  /// parameters in declaration order.
  void writeRow(const int64_t *Left, const int64_t *Right,
                const int64_t *Params, int64_t *Out) const;

private:
  size_t NumStates;
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
  /// A lane file for evalLanes(): row S holds layout slot S of each lane.
  LaneFile makeLaneFile(size_t Lanes) const {
    return Code.makeLaneFile(Lanes);
  }
  /// eval() on every lane of \p Regs, whose layout rows the caller wrote.
  void evalLanes(LaneFile &Regs) const { Code.runLanes(Regs, Regs.Lanes); }
  /// The row of expression \p K's lanes after evalLanes().
  const int64_t *valueLanes(const LaneFile &Regs, size_t K) const {
    return Code.resultLanes(Regs, K);
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

/// Boxes the raw state \p Raw of \p L (equation order).
StateTuple rawToState(const Loop &L, const int64_t *Raw);

/// Converts a state tuple to an environment keyed by state-variable name.
Env stateToEnv(const Loop &L, const StateTuple &State);

/// Renders a state tuple as "name=value, ...".
std::string stateToString(const Loop &L, const StateTuple &State);

} // namespace parsynt

#endif // PARSYNT_INTERP_INTERP_H
