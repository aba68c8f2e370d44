//===- interp/CompiledExpr.h - Slot-compiled evaluator ----------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evaluator the program runs on. A list of expressions (its roots) is
/// lowered once into a flat post-order program over one dense register
/// file:
///
///   [ inputs | constants | one register per instruction ]
///
/// Variables are resolved to input registers at compile time, so evaluation
/// does no name lookups and no allocation: the caller writes the raw input
/// payloads (bools as 0/1) into the first registers, one per input name in
/// order, calls run(), and reads each root with result(). Operators follow
/// interp/OpSemantics.h, so run() agrees with the tree-walking reference
/// (tests/TestUtil.h) on every well-typed expression. `ite`, `&&` and `||`
/// evaluate both sides: every operator is total and side-effect free, so
/// this yields the same value as the reference's short-circuiting. A
/// sequence access `s[i]` reads the input named "s[i]" (the verifier admits
/// only the loop index as a subscript). A program is immutable: threads
/// share it, each with its own register file.
///
/// The lane mode runs the same program on many independent inputs at once
/// (DESIGN.md §5f): a LaneFile holds one row of lanes per register,
/// register-major, and runLanes() executes each instruction down its rows
/// with the operator's OpSemantics function object, so the operator switch
/// runs once per instruction instead of once per input.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_INTERP_COMPILEDEXPR_H
#define PARSYNT_INTERP_COMPILEDEXPR_H

#include "ir/Expr.h"

#include <cstdint>
#include <string>
#include <vector>

namespace parsynt {

/// A register file of lanes for CompiledExpr::runLanes(): register R of
/// lane J is Data[R * Lanes + J], so an instruction reads and writes
/// contiguous rows.
struct LaneFile {
  size_t Lanes = 0;
  std::vector<int64_t> Data;

  int64_t *row(size_t Reg) { return Data.data() + Reg * Lanes; }
  const int64_t *row(size_t Reg) const { return Data.data() + Reg * Lanes; }
};

class CompiledExpr {
public:
  CompiledExpr() = default;
  /// Lowers \p Roots with the input named Inputs[I] in input register I.
  /// Inputs of \p Roots missing from \p Inputs are appended to it first,
  /// in order of first occurrence. Shared subtrees lower once.
  CompiledExpr(const std::vector<ExprRef> &Roots,
               std::vector<std::string> &Inputs);

  /// The input name an expression leaf reads: a variable's name, or "s[i]"
  /// for a sequence access.
  static std::string inputName(const Expr &Leaf);

  /// A register file for run(): inputs zeroed, constants loaded.
  std::vector<int64_t> makeRegisters() const;

  /// Evaluates the program over \p Regs (from makeRegisters(), inputs
  /// written by the caller) and returns the raw result of the first root.
  int64_t run(int64_t *Regs) const;

  /// The raw value of root \p Root after run() on \p Regs.
  int64_t result(const int64_t *Regs, size_t Root) const {
    return Regs[Results[Root]];
  }

  /// A lane file for runLanes() with \p Lanes lanes: inputs zeroed,
  /// constants loaded in every lane.
  LaneFile makeLaneFile(size_t Lanes) const;

  /// Evaluates the program on lanes [0, Active) of \p Regs (inputs written
  /// by the caller, input I in row I), each lane as run() would on its own
  /// register file.
  void runLanes(LaneFile &Regs, size_t Active) const;

  /// The row of root \p Root's lanes after runLanes() on \p Regs.
  const int64_t *resultLanes(const LaneFile &Regs, size_t Root) const {
    return Regs.row(Results[Root]);
  }

private:
  /// A BinaryOp's value for a binary operator, else one of the unary and
  /// ternary forms, numbered after BinaryOp::Or.
  enum class Opcode : uint8_t {
    Neg = static_cast<uint8_t>(BinaryOp::Or) + 1,
    Not,
    Ite
  };
  struct Instr {
    Opcode Op;
    uint32_t A, B, C;
  };

  /// Marks an instruction index during lowering, before temporaries are
  /// placed after the constants.
  static constexpr uint32_t TempBit = 1u << 31;

  uint32_t lower(const ExprRef &E, const std::vector<std::string> &Inputs,
                 std::vector<std::pair<const Expr *, uint32_t>> &Done);

  unsigned NumInputs = 0;
  std::vector<int64_t> Constants;
  std::vector<Instr> Code;
  uint32_t FirstTemp = 0;
  std::vector<uint32_t> Results; ///< the register of each root
};

} // namespace parsynt

#endif // PARSYNT_INTERP_COMPILEDEXPR_H
