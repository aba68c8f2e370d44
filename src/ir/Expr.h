//===- ir/Expr.h - Immutable expression AST ---------------------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The expression IR shared by every stage of the pipeline: the functional
/// model of loop bodies (paper Section 3.3), the symbolic unfoldings consumed
/// by Algorithm 1, the rewrite engine's terms, and the candidate expressions
/// produced by join synthesis.
///
/// Expressions are immutable and hash-consed: a process-wide intern table
/// holds one node per distinct term, so structural equality is pointer
/// equality. ExprRef is an intrusive handle with a non-atomic count; nodes
/// are built, copied and released on the caller thread only, and a node is
/// freed (and leaves the table) with its last handle. Every node caches its
/// structural hash, depth and size, and carries the memos of simplify() and
/// exprCost() (DESIGN.md §5j). LLVM-style isa<>/cast<>/dyn_cast<> dispatch is
/// provided through kind tags.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_IR_EXPR_H
#define PARSYNT_IR_EXPR_H

#include "ir/Type.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace parsynt {

class Expr;

/// Internal factory granting the static get() functions access to the
/// private node constructors and the intern table (defined in Expr.cpp).
struct ExprFactory;

/// An owning handle to an interned node. Copies count references without
/// atomics, so a handle must never be copied or dropped off the thread that
/// builds expressions. Two handles are equal exactly when their terms are.
class ExprRef {
public:
  ExprRef() = default;
  ExprRef(std::nullptr_t) {}
  /// Takes a new reference to \p E (null allowed).
  explicit ExprRef(const Expr *E);
  ExprRef(const ExprRef &O) : ExprRef(O.P) {}
  ExprRef(ExprRef &&O) noexcept : P(O.P) { O.P = nullptr; }
  ExprRef &operator=(ExprRef O) noexcept {
    std::swap(P, O.P);
    return *this;
  }
  ~ExprRef();

  const Expr *get() const { return P; }
  const Expr *operator->() const { return P; }
  const Expr &operator*() const { return *P; }
  explicit operator bool() const { return P != nullptr; }
  friend bool operator==(const ExprRef &A, const ExprRef &B) {
    return A.P == B.P;
  }

private:
  /// Unlinks a node from the intern table and frees it.
  static void destroy(const Expr *E);
  const Expr *P = nullptr;
};

/// The cost of Definition 6.1: (max depth of any unknown, counted from the
/// root at depth 0; total occurrences of unknowns). Compared
/// lexicographically.
struct ExprCost {
  unsigned MaxDepth = 0;
  unsigned Occurrences = 0;

  friend bool operator<(const ExprCost &A, const ExprCost &B) {
    if (A.MaxDepth != B.MaxDepth)
      return A.MaxDepth < B.MaxDepth;
    return A.Occurrences < B.Occurrences;
  }
  friend bool operator==(const ExprCost &A, const ExprCost &B) {
    return A.MaxDepth == B.MaxDepth && A.Occurrences == B.Occurrences;
  }
};

/// Discriminator for the Expr class hierarchy.
enum class ExprKind {
  IntConst,
  BoolConst,
  Var,
  SeqAccess,
  Unary,
  Binary,
  Ite,
};

/// Unary operators. Neg : int -> int, Not : bool -> bool.
enum class UnaryOp { Neg, Not };

/// Binary operators of the Figure-3/Figure-4 grammars.
enum class BinaryOp {
  // int x int -> int
  Add,
  Sub,
  Mul,
  Div,
  Min,
  Max,
  // int x int -> bool
  Lt,
  Le,
  Gt,
  Ge,
  // T x T -> bool
  Eq,
  Ne,
  // bool x bool -> bool
  And,
  Or,
};

/// Role of a named variable in a loop body (paper Section 3.3): state
/// variables are assigned in the body; input variables are only read.
/// Unknown marks the symbolic initial-state variables introduced by the
/// unfolder of Algorithm 1 (the "red" values in the paper's Figure 5).
enum class VarClass { State, Input, Unknown };

/// Returns the result type of applying \p Op to integer or boolean operands.
Type binaryResultType(BinaryOp Op);
/// True for Add..Max (operands are ints, result is int).
bool isArithOp(BinaryOp Op);
/// True for Lt..Ne.
bool isCompareOp(BinaryOp Op);
/// True for And/Or.
bool isBoolOp(BinaryOp Op);
/// True if the operator is commutative over its (well-typed) domain.
bool isCommutative(BinaryOp Op);
/// True if the operator is associative over its (well-typed) domain.
bool isAssociative(BinaryOp Op);
/// Source spelling of the operator ("+", "min", "&&", ...).
const char *binaryOpName(BinaryOp Op);
const char *unaryOpName(UnaryOp Op);

/// Base class of all expression nodes.
class Expr {
public:
  virtual ~Expr() = default;

  ExprKind kind() const { return Kind; }
  Type type() const { return Ty; }
  /// Structural hash, cached at construction.
  uint64_t hash() const { return Hash; }
  /// Height of the expression tree; leaves have depth 1.
  unsigned depth() const { return Depth; }
  /// Total number of nodes of the tree.
  unsigned size() const { return Size; }

  /// Memos of pure functions of the term, written on the caller thread and
  /// freed with the node.
  struct Memo {
    /// simplify(this) once computed, unless it is this node (SelfSimple).
    ExprRef Simplified;
    bool SelfSimple = false;
    /// exprCost(this, Names) for the unknown set of epoch CostEpoch (0: none).
    uint32_t CostEpoch = 0;
    ExprCost Cost;
  };
  Memo &memo() const { return Memos; }

protected:
  Expr(ExprKind Kind, Type Ty, uint64_t Hash, unsigned Depth, unsigned Size)
      : Kind(Kind), Ty(Ty), Hash(Hash), Depth(Depth), Size(Size) {}

private:
  friend class ExprRef;
  friend struct ExprFactory;
  ExprKind Kind;
  Type Ty;
  mutable uint32_t Refs = 0;
  uint64_t Hash;
  unsigned Depth;
  unsigned Size;
  /// The next node of this node's intern-table bucket.
  mutable const Expr *NextInBucket = nullptr;
  mutable Memo Memos;
};

inline ExprRef::ExprRef(const Expr *E) : P(E) {
  if (P)
    ++P->Refs;
}

inline ExprRef::~ExprRef() {
  if (P && --P->Refs == 0)
    destroy(P);
}

/// The number of live interned nodes, for tests that check that nodes and
/// their memos are freed.
size_t liveExprCount();

/// An integer literal.
class IntConstExpr : public Expr {
public:
  int64_t value() const { return Value; }

  static ExprRef get(int64_t Value);
  static bool classof(const Expr *E) { return E->kind() == ExprKind::IntConst; }

private:
  friend struct ExprFactory;
  IntConstExpr(int64_t Value, uint64_t Hash)
      : Expr(ExprKind::IntConst, Type::Int, Hash, 1, 1), Value(Value) {}
  int64_t Value;
};

/// A boolean literal.
class BoolConstExpr : public Expr {
public:
  bool value() const { return Value; }

  static ExprRef get(bool Value);
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::BoolConst;
  }

private:
  friend struct ExprFactory;
  BoolConstExpr(bool Value, uint64_t Hash)
      : Expr(ExprKind::BoolConst, Type::Bool, Hash, 1, 1), Value(Value) {}
  bool Value;
};

/// A scalar variable reference. Identity is (name, type, class); the class
/// records the variable's role for sketch compilation and unfolding, and
/// is part of the key so that a name built in two roles keeps both (a
/// test helper parses a join's `x_l` as state while it is also an input).
/// The hash leaves the class out.
class VarExpr : public Expr {
public:
  const std::string &name() const { return Name; }
  VarClass varClass() const { return Class; }

  static ExprRef get(std::string Name, Type Ty, VarClass Class);
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Var; }

private:
  friend struct ExprFactory;
  VarExpr(std::string Name, Type Ty, VarClass Class, uint64_t Hash)
      : Expr(ExprKind::Var, Ty, Hash, 1, 1), Name(std::move(Name)),
        Class(Class) {}
  std::string Name;
  VarClass Class;
};

/// A sequence element access s[e]. The sequence itself is identified by name;
/// ElemTy is the element type of the sequence.
class SeqAccessExpr : public Expr {
public:
  const std::string &seqName() const { return SeqName; }
  const ExprRef &index() const { return Index; }

  static ExprRef get(std::string SeqName, Type ElemTy, ExprRef Index);
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::SeqAccess;
  }

private:
  friend struct ExprFactory;
  SeqAccessExpr(std::string SeqName, Type ElemTy, ExprRef Index, uint64_t Hash,
                unsigned Depth, unsigned Size)
      : Expr(ExprKind::SeqAccess, ElemTy, Hash, Depth, Size),
        SeqName(std::move(SeqName)), Index(std::move(Index)) {}
  std::string SeqName;
  ExprRef Index;
};

/// A unary operation (-e, !e).
class UnaryExpr : public Expr {
public:
  UnaryOp op() const { return Op; }
  const ExprRef &operand() const { return Operand; }

  static ExprRef get(UnaryOp Op, ExprRef Operand);
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Unary; }

private:
  friend struct ExprFactory;
  UnaryExpr(UnaryOp Op, ExprRef Operand, uint64_t Hash, unsigned Depth,
            unsigned Size)
      : Expr(ExprKind::Unary, Op == UnaryOp::Neg ? Type::Int : Type::Bool,
             Hash, Depth, Size),
        Op(Op), Operand(std::move(Operand)) {}
  UnaryOp Op;
  ExprRef Operand;
};

/// A binary operation.
class BinaryExpr : public Expr {
public:
  BinaryOp op() const { return Op; }
  const ExprRef &lhs() const { return Lhs; }
  const ExprRef &rhs() const { return Rhs; }

  static ExprRef get(BinaryOp Op, ExprRef Lhs, ExprRef Rhs);
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Binary; }

private:
  friend struct ExprFactory;
  BinaryExpr(BinaryOp Op, ExprRef Lhs, ExprRef Rhs, uint64_t Hash,
             unsigned Depth, unsigned Size)
      : Expr(ExprKind::Binary, binaryResultType(Op), Hash, Depth, Size),
        Op(Op), Lhs(std::move(Lhs)), Rhs(std::move(Rhs)) {}
  BinaryOp Op;
  ExprRef Lhs;
  ExprRef Rhs;
};

/// A conditional expression (c ? t : e).
class IteExpr : public Expr {
public:
  const ExprRef &cond() const { return Cond; }
  const ExprRef &thenExpr() const { return Then; }
  const ExprRef &elseExpr() const { return Else; }

  static ExprRef get(ExprRef Cond, ExprRef Then, ExprRef Else);
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Ite; }

private:
  friend struct ExprFactory;
  IteExpr(ExprRef Cond, ExprRef Then, ExprRef Else, uint64_t Hash,
          unsigned Depth, unsigned Size)
      : Expr(ExprKind::Ite, Then->type(), Hash, Depth, Size),
        Cond(std::move(Cond)), Then(std::move(Then)), Else(std::move(Else)) {}
  ExprRef Cond;
  ExprRef Then;
  ExprRef Else;
};

//===----------------------------------------------------------------------===//
// LLVM-style RTTI over ExprKind.
//===----------------------------------------------------------------------===//

template <typename T> bool isa(const Expr *E) {
  assert(E && "isa<> on null expression");
  return T::classof(E);
}
template <typename T> bool isa(const ExprRef &E) { return isa<T>(E.get()); }

template <typename T> const T *cast(const Expr *E) {
  assert(isa<T>(E) && "cast<> to incompatible expression kind");
  return static_cast<const T *>(E);
}
template <typename T> const T *cast(const ExprRef &E) {
  return cast<T>(E.get());
}

template <typename T> const T *dyn_cast(const Expr *E) {
  return isa<T>(E) ? static_cast<const T *>(E) : nullptr;
}
template <typename T> const T *dyn_cast(const ExprRef &E) {
  return dyn_cast<T>(E.get());
}

//===----------------------------------------------------------------------===//
// Structural operations.
//===----------------------------------------------------------------------===//

/// Renders the expression in source syntax, fully parenthesized where the
/// structure is not obvious.
std::string exprToString(const ExprRef &E);

//===----------------------------------------------------------------------===//
// Convenience builders.
//===----------------------------------------------------------------------===//

inline ExprRef intConst(int64_t V) { return IntConstExpr::get(V); }
inline ExprRef boolConst(bool V) { return BoolConstExpr::get(V); }
inline ExprRef stateVar(std::string Name, Type Ty = Type::Int) {
  return VarExpr::get(std::move(Name), Ty, VarClass::State);
}
inline ExprRef inputVar(std::string Name, Type Ty = Type::Int) {
  return VarExpr::get(std::move(Name), Ty, VarClass::Input);
}
inline ExprRef unknownVar(std::string Name, Type Ty = Type::Int) {
  return VarExpr::get(std::move(Name), Ty, VarClass::Unknown);
}
inline ExprRef seqAccess(std::string Seq, ExprRef Index,
                         Type ElemTy = Type::Int) {
  return SeqAccessExpr::get(std::move(Seq), ElemTy, std::move(Index));
}
inline ExprRef neg(ExprRef E) { return UnaryExpr::get(UnaryOp::Neg, E); }
inline ExprRef notE(ExprRef E) { return UnaryExpr::get(UnaryOp::Not, E); }
inline ExprRef binary(BinaryOp Op, ExprRef L, ExprRef R) {
  return BinaryExpr::get(Op, std::move(L), std::move(R));
}
inline ExprRef add(ExprRef L, ExprRef R) {
  return binary(BinaryOp::Add, std::move(L), std::move(R));
}
inline ExprRef sub(ExprRef L, ExprRef R) {
  return binary(BinaryOp::Sub, std::move(L), std::move(R));
}
inline ExprRef mul(ExprRef L, ExprRef R) {
  return binary(BinaryOp::Mul, std::move(L), std::move(R));
}
inline ExprRef minE(ExprRef L, ExprRef R) {
  return binary(BinaryOp::Min, std::move(L), std::move(R));
}
inline ExprRef maxE(ExprRef L, ExprRef R) {
  return binary(BinaryOp::Max, std::move(L), std::move(R));
}
inline ExprRef lt(ExprRef L, ExprRef R) {
  return binary(BinaryOp::Lt, std::move(L), std::move(R));
}
inline ExprRef le(ExprRef L, ExprRef R) {
  return binary(BinaryOp::Le, std::move(L), std::move(R));
}
inline ExprRef gt(ExprRef L, ExprRef R) {
  return binary(BinaryOp::Gt, std::move(L), std::move(R));
}
inline ExprRef ge(ExprRef L, ExprRef R) {
  return binary(BinaryOp::Ge, std::move(L), std::move(R));
}
inline ExprRef eq(ExprRef L, ExprRef R) {
  return binary(BinaryOp::Eq, std::move(L), std::move(R));
}
inline ExprRef ne(ExprRef L, ExprRef R) {
  return binary(BinaryOp::Ne, std::move(L), std::move(R));
}
inline ExprRef andE(ExprRef L, ExprRef R) {
  return binary(BinaryOp::And, std::move(L), std::move(R));
}
inline ExprRef orE(ExprRef L, ExprRef R) {
  return binary(BinaryOp::Or, std::move(L), std::move(R));
}
inline ExprRef ite(ExprRef C, ExprRef T, ExprRef E) {
  return IteExpr::get(std::move(C), std::move(T), std::move(E));
}

} // namespace parsynt

/// Unordered containers key handles by the structural hash, so they iterate
/// the same in every run; equality is the pointer compare above.
template <> struct std::hash<parsynt::ExprRef> {
  size_t operator()(const parsynt::ExprRef &E) const {
    return static_cast<size_t>(E->hash());
  }
};

#endif // PARSYNT_IR_EXPR_H
