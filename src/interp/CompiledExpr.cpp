//===- interp/CompiledExpr.cpp - Slot-compiled expression evaluator -------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "interp/CompiledExpr.h"
#include "interp/OpSemantics.h"
#include "ir/ExprOps.h"

#include <algorithm>
#include <cassert>

using namespace parsynt;

std::string CompiledExpr::inputName(const Expr &Leaf) {
  if (const auto *V = dyn_cast<VarExpr>(&Leaf))
    return V->name();
  const auto *S = cast<SeqAccessExpr>(&Leaf);
  const auto *Index = dyn_cast<VarExpr>(S->index());
  assert(Index && "compiled sequence accesses are subscripted by a variable");
  return S->seqName() + "[" + (Index ? Index->name() : "?") + "]";
}

CompiledExpr::CompiledExpr(const std::vector<ExprRef> &Roots,
                           std::vector<std::string> &Inputs) {
  for (const ExprRef &Root : Roots)
    forEachNode(Root, [&](const ExprRef &Node) {
      if (!isa<VarExpr>(Node) && !isa<SeqAccessExpr>(Node))
        return;
      std::string Name = inputName(*Node);
      if (std::find(Inputs.begin(), Inputs.end(), Name) == Inputs.end())
        Inputs.push_back(std::move(Name));
    });
  NumInputs = static_cast<unsigned>(Inputs.size());
  // Lowering assigns temporaries relative to the end of the constants, which
  // are only known afterwards: collect both, then rebase the temporaries.
  std::vector<std::pair<const Expr *, uint32_t>> Done;
  for (const ExprRef &Root : Roots)
    Results.push_back(lower(Root, Inputs, Done));
  FirstTemp = NumInputs + static_cast<uint32_t>(Constants.size());
  auto rebase = [&](uint32_t &Reg) {
    if (Reg & TempBit)
      Reg = FirstTemp + (Reg & ~TempBit);
  };
  for (Instr &I : Code) {
    rebase(I.A);
    rebase(I.B);
    rebase(I.C);
  }
  for (uint32_t &Reg : Results)
    rebase(Reg);
}

std::vector<int64_t> CompiledExpr::makeRegisters() const {
  std::vector<int64_t> Regs(FirstTemp + Code.size(), 0);
  std::copy(Constants.begin(), Constants.end(), Regs.begin() + NumInputs);
  return Regs;
}

LaneFile CompiledExpr::makeLaneFile(size_t Lanes) const {
  LaneFile Regs{Lanes,
                std::vector<int64_t>((FirstTemp + Code.size()) * Lanes)};
  for (size_t C = 0; C != Constants.size(); ++C)
    std::fill_n(Regs.row(NumInputs + C), Lanes, Constants[C]);
  return Regs;
}

uint32_t
CompiledExpr::lower(const ExprRef &E, const std::vector<std::string> &Inputs,
                    std::vector<std::pair<const Expr *, uint32_t>> &Done) {
  // Shared subtrees (materialized joins reuse candidate operands; the
  // updates of a loop share reads) lower once.
  for (const auto &[Node, Reg] : Done)
    if (Node == E.get())
      return Reg;

  auto constant = [&](int64_t V) {
    Constants.push_back(V);
    return NumInputs + static_cast<uint32_t>(Constants.size() - 1);
  };
  auto emit = [&](Opcode Op, uint32_t A, uint32_t B, uint32_t C) {
    Code.push_back({Op, A, B, C});
    return TempBit | static_cast<uint32_t>(Code.size() - 1);
  };

  uint32_t Reg = 0;
  switch (E->kind()) {
  case ExprKind::IntConst:
    Reg = constant(cast<IntConstExpr>(E)->value());
    break;
  case ExprKind::BoolConst:
    Reg = constant(cast<BoolConstExpr>(E)->value());
    break;
  case ExprKind::Var:
  case ExprKind::SeqAccess:
    Reg = static_cast<uint32_t>(
        std::find(Inputs.begin(), Inputs.end(), inputName(*E)) -
        Inputs.begin());
    break;
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    uint32_t A = lower(U->operand(), Inputs, Done);
    Reg = emit(U->op() == UnaryOp::Neg ? Opcode::Neg : Opcode::Not, A, A, A);
    break;
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    uint32_t L = lower(B->lhs(), Inputs, Done);
    uint32_t R = lower(B->rhs(), Inputs, Done);
    Reg = emit(static_cast<Opcode>(B->op()), L, R, R);
    break;
  }
  case ExprKind::Ite: {
    const auto *I = cast<IteExpr>(E);
    uint32_t C = lower(I->cond(), Inputs, Done);
    uint32_t T = lower(I->thenExpr(), Inputs, Done);
    uint32_t F = lower(I->elseExpr(), Inputs, Done);
    Reg = emit(Opcode::Ite, C, T, F);
    break;
  }
  }
  Done.emplace_back(E.get(), Reg);
  return Reg;
}

int64_t CompiledExpr::run(int64_t *Regs) const {
  int64_t *Out = Regs + FirstTemp;
  for (const Instr &I : Code) {
    int64_t A = Regs[I.A];
    switch (I.Op) {
    case Opcode::Neg:
      *Out = ops::neg(A);
      break;
    case Opcode::Not:
      *Out = ops::logicalNot(A);
      break;
    case Opcode::Ite:
      *Out = A ? Regs[I.B] : Regs[I.C];
      break;
    default:
      *Out = ops::applyBinary(static_cast<BinaryOp>(I.Op), A, Regs[I.B]);
      break;
    }
    ++Out;
  }
  return Results.empty() ? 0 : Regs[Results.front()];
}

// The per-instruction loops run on contiguous rows, and each clone inlines
// every operator's loop (flatten), so the AVX2 clone does four lanes of
// most operators per instruction.
PARSYNT_LANE_CLONES __attribute__((flatten))
void CompiledExpr::runLanes(LaneFile &Regs, size_t Active) const {
  assert(Active <= Regs.Lanes && "more active lanes than the file holds");
  int64_t *Out = Regs.row(FirstTemp);
  for (const Instr &I : Code) {
    const int64_t *A = Regs.row(I.A), *B = Regs.row(I.B), *C = Regs.row(I.C);
    switch (I.Op) {
    case Opcode::Neg:
      for (size_t J = 0; J != Active; ++J)
        Out[J] = ops::neg(A[J]);
      break;
    case Opcode::Not:
      for (size_t J = 0; J != Active; ++J)
        Out[J] = ops::logicalNot(A[J]);
      break;
    case Opcode::Ite:
      for (size_t J = 0; J != Active; ++J)
        Out[J] = ops::select(A[J] != 0, B[J], C[J]);
      break;
    default:
      ops::visitBinary(static_cast<BinaryOp>(I.Op), [&](auto F) {
        for (size_t J = 0; J != Active; ++J)
          Out[J] = F(A[J], B[J]);
      });
      break;
    }
    Out += Regs.Lanes;
  }
}
