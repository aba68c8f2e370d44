//===- ir/Expr.cpp - Immutable expression AST -----------------------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "ir/Expr.h"

#include <functional>
#include <sstream>

using namespace parsynt;

//===----------------------------------------------------------------------===//
// Operator metadata.
//===----------------------------------------------------------------------===//

Type parsynt::binaryResultType(BinaryOp Op) {
  return isArithOp(Op) ? Type::Int : Type::Bool;
}

bool parsynt::isArithOp(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
  case BinaryOp::Sub:
  case BinaryOp::Mul:
  case BinaryOp::Div:
  case BinaryOp::Min:
  case BinaryOp::Max:
    return true;
  default:
    return false;
  }
}

bool parsynt::isCompareOp(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge:
  case BinaryOp::Eq:
  case BinaryOp::Ne:
    return true;
  default:
    return false;
  }
}

bool parsynt::isBoolOp(BinaryOp Op) {
  return Op == BinaryOp::And || Op == BinaryOp::Or;
}

bool parsynt::isCommutative(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
  case BinaryOp::Mul:
  case BinaryOp::Min:
  case BinaryOp::Max:
  case BinaryOp::Eq:
  case BinaryOp::Ne:
  case BinaryOp::And:
  case BinaryOp::Or:
    return true;
  default:
    return false;
  }
}

bool parsynt::isAssociative(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
  case BinaryOp::Mul:
  case BinaryOp::Min:
  case BinaryOp::Max:
  case BinaryOp::And:
  case BinaryOp::Or:
    return true;
  default:
    return false;
  }
}

const char *parsynt::binaryOpName(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Div:
    return "/";
  case BinaryOp::Min:
    return "min";
  case BinaryOp::Max:
    return "max";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Ge:
    return ">=";
  case BinaryOp::Eq:
    return "==";
  case BinaryOp::Ne:
    return "!=";
  case BinaryOp::And:
    return "&&";
  case BinaryOp::Or:
    return "||";
  }
  return "?";
}

const char *parsynt::unaryOpName(UnaryOp Op) {
  return Op == UnaryOp::Neg ? "-" : "!";
}

//===----------------------------------------------------------------------===//
// Hashing and interning.
//===----------------------------------------------------------------------===//

namespace {

uint64_t hashCombine(uint64_t Seed, uint64_t Value) {
  // Boost-style combiner with a 64-bit golden-ratio constant.
  return Seed ^ (Value + 0x9e3779b97f4a7c15ull + (Seed << 12) + (Seed >> 4));
}

uint64_t hashString(const std::string &S) {
  return std::hash<std::string>{}(S);
}

/// The intern table: weak (a node leaves it with its last handle),
/// process-wide, and never destroyed, so that handles dropped during static
/// destruction still find it. Each bucket chains its nodes through
/// Expr::NextInBucket.
struct InternTable {
  std::vector<const Expr *> Buckets = std::vector<const Expr *>(1024);
  size_t Live = 0;

  const Expr *&bucket(uint64_t H) {
    return Buckets[(H * 0x9e3779b97f4a7c15ull) >> 32 & (Buckets.size() - 1)];
  }
};

InternTable &internTable() {
  static InternTable *Table = new InternTable;
  return *Table;
}

} // namespace

/// Grants the static get() factories access to the private constructors,
/// and keeps the intern table.
struct parsynt::ExprFactory {
  /// The live node of kind T with hash \p H for which \p Same holds, or a
  /// new one built from \p A.
  template <typename T, typename SameFn, typename... Args>
  static ExprRef intern(uint64_t H, SameFn Same, Args &&...A) {
    InternTable &Table = internTable();
    for (const Expr *N = Table.bucket(H); N; N = N->NextInBucket)
      if (N->hash() == H && isa<T>(N) && Same(*cast<T>(N)))
        return ExprRef(N);
    if (Table.Live == Table.Buckets.size()) {
      std::vector<const Expr *> Old(2 * Table.Live, nullptr);
      Old.swap(Table.Buckets);
      for (const Expr *N : Old)
        for (const Expr *Next; N; N = Next) {
          Next = N->NextInBucket;
          N->NextInBucket = Table.bucket(N->hash());
          Table.bucket(N->hash()) = N;
        }
    }
    T *Node = new T(std::forward<Args>(A)...);
    Node->NextInBucket = Table.bucket(H);
    Table.bucket(H) = Node;
    ++Table.Live;
    return ExprRef(Node);
  }
};

void ExprRef::destroy(const Expr *E) {
  InternTable &Table = internTable();
  const Expr **Link = &Table.bucket(E->hash());
  while (*Link != E)
    Link = &(*Link)->NextInBucket;
  *Link = E->NextInBucket;
  --Table.Live;
  delete E;
}

size_t parsynt::liveExprCount() { return internTable().Live; }

ExprRef IntConstExpr::get(int64_t Value) {
  uint64_t H = hashCombine(1, static_cast<uint64_t>(Value));
  return ExprFactory::intern<IntConstExpr>(
      H, [&](const IntConstExpr &N) { return N.Value == Value; }, Value, H);
}

ExprRef BoolConstExpr::get(bool Value) {
  uint64_t H = hashCombine(2, Value ? 0xb5ull : 0x5bull);
  return ExprFactory::intern<BoolConstExpr>(
      H, [&](const BoolConstExpr &N) { return N.Value == Value; }, Value, H);
}

ExprRef VarExpr::get(std::string Name, Type Ty, VarClass Class) {
  uint64_t H = hashCombine(3, hashString(Name));
  H = hashCombine(H, static_cast<uint64_t>(Ty));
  return ExprFactory::intern<VarExpr>(
      H,
      [&](const VarExpr &N) {
        return N.Class == Class && N.type() == Ty && N.Name == Name;
      },
      std::move(Name), Ty, Class, H);
}

ExprRef SeqAccessExpr::get(std::string SeqName, Type ElemTy, ExprRef Index) {
  assert(Index && Index->type() == Type::Int && "sequence index must be int");
  uint64_t H = hashCombine(4, hashString(SeqName));
  H = hashCombine(H, Index->hash());
  unsigned Depth = Index->depth() + 1;
  unsigned Size = Index->size() + 1;
  return ExprFactory::intern<SeqAccessExpr>(
      H,
      [&](const SeqAccessExpr &N) {
        return N.Index == Index && N.type() == ElemTy && N.SeqName == SeqName;
      },
      std::move(SeqName), ElemTy, std::move(Index), H, Depth, Size);
}

ExprRef UnaryExpr::get(UnaryOp Op, ExprRef Operand) {
  assert(Operand && "null operand");
  assert((Op == UnaryOp::Neg ? Operand->type() == Type::Int
                             : Operand->type() == Type::Bool) &&
         "ill-typed unary expression");
  uint64_t H = hashCombine(5, static_cast<uint64_t>(Op));
  H = hashCombine(H, Operand->hash());
  unsigned Depth = Operand->depth() + 1;
  unsigned Size = Operand->size() + 1;
  return ExprFactory::intern<UnaryExpr>(
      H,
      [&](const UnaryExpr &N) { return N.Op == Op && N.Operand == Operand; },
      Op, std::move(Operand), H, Depth, Size);
}

ExprRef BinaryExpr::get(BinaryOp Op, ExprRef Lhs, ExprRef Rhs) {
  assert(Lhs && Rhs && "null operand");
  if (isArithOp(Op) || (isCompareOp(Op) && !(Op == BinaryOp::Eq ||
                                             Op == BinaryOp::Ne)))
    assert(Lhs->type() == Type::Int && Rhs->type() == Type::Int &&
           "ill-typed arithmetic/comparison");
  if (Op == BinaryOp::Eq || Op == BinaryOp::Ne)
    assert(Lhs->type() == Rhs->type() && "ill-typed equality");
  if (isBoolOp(Op))
    assert(Lhs->type() == Type::Bool && Rhs->type() == Type::Bool &&
           "ill-typed boolean operation");
  uint64_t H = hashCombine(6, static_cast<uint64_t>(Op));
  H = hashCombine(H, Lhs->hash());
  H = hashCombine(H, Rhs->hash());
  unsigned Depth = std::max(Lhs->depth(), Rhs->depth()) + 1;
  unsigned Size = Lhs->size() + Rhs->size() + 1;
  return ExprFactory::intern<BinaryExpr>(
      H,
      [&](const BinaryExpr &N) {
        return N.Op == Op && N.Lhs == Lhs && N.Rhs == Rhs;
      },
      Op, std::move(Lhs), std::move(Rhs), H, Depth, Size);
}

ExprRef IteExpr::get(ExprRef Cond, ExprRef Then, ExprRef Else) {
  assert(Cond && Then && Else && "null operand");
  assert(Cond->type() == Type::Bool && "condition must be boolean");
  assert(Then->type() == Else->type() && "branch types must agree");
  uint64_t H = hashCombine(7, Cond->hash());
  H = hashCombine(H, Then->hash());
  H = hashCombine(H, Else->hash());
  unsigned Depth =
      std::max(Cond->depth(), std::max(Then->depth(), Else->depth())) + 1;
  unsigned Size = Cond->size() + Then->size() + Else->size() + 1;
  return ExprFactory::intern<IteExpr>(
      H,
      [&](const IteExpr &N) {
        return N.Cond == Cond && N.Then == Then && N.Else == Else;
      },
      std::move(Cond), std::move(Then), std::move(Else), H, Depth, Size);
}

//===----------------------------------------------------------------------===//
// Printing.
//===----------------------------------------------------------------------===//

namespace {

void printExpr(std::ostringstream &OS, const ExprRef &E) {
  switch (E->kind()) {
  case ExprKind::IntConst:
    OS << cast<IntConstExpr>(E)->value();
    return;
  case ExprKind::BoolConst:
    OS << (cast<BoolConstExpr>(E)->value() ? "true" : "false");
    return;
  case ExprKind::Var:
    OS << cast<VarExpr>(E)->name();
    return;
  case ExprKind::SeqAccess: {
    const auto *S = cast<SeqAccessExpr>(E);
    OS << S->seqName() << "[";
    printExpr(OS, S->index());
    OS << "]";
    return;
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    OS << unaryOpName(U->op()) << "(";
    printExpr(OS, U->operand());
    OS << ")";
    return;
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    if (B->op() == BinaryOp::Min || B->op() == BinaryOp::Max) {
      OS << binaryOpName(B->op()) << "(";
      printExpr(OS, B->lhs());
      OS << ", ";
      printExpr(OS, B->rhs());
      OS << ")";
      return;
    }
    OS << "(";
    printExpr(OS, B->lhs());
    OS << " " << binaryOpName(B->op()) << " ";
    printExpr(OS, B->rhs());
    OS << ")";
    return;
  }
  case ExprKind::Ite: {
    const auto *I = cast<IteExpr>(E);
    OS << "(";
    printExpr(OS, I->cond());
    OS << " ? ";
    printExpr(OS, I->thenExpr());
    OS << " : ";
    printExpr(OS, I->elseExpr());
    OS << ")";
    return;
  }
  }
}

} // namespace

std::string parsynt::exprToString(const ExprRef &E) {
  if (!E)
    return "<null>";
  std::ostringstream OS;
  printExpr(OS, E);
  return OS.str();
}
