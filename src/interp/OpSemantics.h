//===- interp/OpSemantics.h - Operator semantics ----------------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The semantics of every Figure-3/Figure-4 operator on raw 64-bit payloads
/// (booleans as 0/1), shared by the tree-walking interpreter, the enumerator's
/// column combines, and the compiled-expression evaluator so that a candidate
/// is judged under exactly the semantics it runs with.
///
///  - `+ - *` and negation wrap in two's complement (computed over uint64_t,
///    so never UB): candidates are evaluated on arbitrary environments and
///    must only ever produce wrong values that the oracle rejects.
///  - `/` is total: x / 0 == 0 (solver-friendly SMT division) and
///    INT64_MIN / -1 == INT64_MIN.
///  - Comparisons and `&& || !` yield 0 or 1.
///
/// Each binary operator is also a stateless function object, and
/// visitBinary() maps a runtime BinaryOp onto it, so column loops can hoist
/// the operator switch out of the per-element loop.
///
/// The emitted programs and kernels include this header too: for them it
/// also defines the vector lanes of a leaf and the macro that clones it
/// per instruction set.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_INTERP_OPSEMANTICS_H
#define PARSYNT_INTERP_OPSEMANTICS_H

#include "ir/Expr.h"

#include <cassert>
#include <cstdint>

namespace parsynt {
namespace ops {

inline int64_t wrap(uint64_t V) { return static_cast<int64_t>(V); }

inline int64_t neg(int64_t V) { return wrap(0 - static_cast<uint64_t>(V)); }
inline int64_t logicalNot(int64_t V) { return V == 0; }

struct Add {
  int64_t operator()(int64_t L, int64_t R) const {
    return wrap(static_cast<uint64_t>(L) + static_cast<uint64_t>(R));
  }
};
struct Sub {
  int64_t operator()(int64_t L, int64_t R) const {
    return wrap(static_cast<uint64_t>(L) - static_cast<uint64_t>(R));
  }
};
struct Mul {
  int64_t operator()(int64_t L, int64_t R) const {
    return wrap(static_cast<uint64_t>(L) * static_cast<uint64_t>(R));
  }
};
struct Div {
  int64_t operator()(int64_t L, int64_t R) const {
    if (R == 0)
      return 0;
    if (L == INT64_MIN && R == -1)
      return INT64_MIN;
    return L / R;
  }
};
struct Min {
  int64_t operator()(int64_t L, int64_t R) const { return L < R ? L : R; }
};
struct Max {
  int64_t operator()(int64_t L, int64_t R) const { return L > R ? L : R; }
};
struct Lt {
  int64_t operator()(int64_t L, int64_t R) const { return L < R; }
};
struct Le {
  int64_t operator()(int64_t L, int64_t R) const { return L <= R; }
};
struct Gt {
  int64_t operator()(int64_t L, int64_t R) const { return L > R; }
};
struct Ge {
  int64_t operator()(int64_t L, int64_t R) const { return L >= R; }
};
/// Equality on same-typed payloads (ints, or bools as 0/1).
struct Eq {
  int64_t operator()(int64_t L, int64_t R) const { return L == R; }
};
struct Ne {
  int64_t operator()(int64_t L, int64_t R) const { return L != R; }
};
struct And {
  int64_t operator()(int64_t L, int64_t R) const { return L != 0 && R != 0; }
};
struct Or {
  int64_t operator()(int64_t L, int64_t R) const { return L != 0 || R != 0; }
};

/// `C ? T : F` over operands that are already evaluated, written with a
/// mask so the compiler has no jump to keep: the emitted programs use it
/// where a jump on the data would be mispredicted (codegen/EmitCpp).
inline int64_t select(bool C, int64_t T, int64_t F) {
  uint64_t Mask = 0 - static_cast<uint64_t>(C);
  return wrap((static_cast<uint64_t>(T) & Mask) |
              (static_cast<uint64_t>(F) & ~Mask));
}
inline bool select(bool C, bool T, bool F) { return (C & T) | (!C & F); }

/// The four lanes of an emitted lane leaf (codegen/EmitCpp, DESIGN.md §5i),
/// as GCC vector extensions: one value of each of four contiguous blocks,
/// a bool as the mask 0 or -1. `+ - *` and negation run on ULanes, where
/// they wrap as above; a signed lane overflow would be UB.
typedef int64_t Lanes __attribute__((vector_size(32)));
typedef uint64_t ULanes __attribute__((vector_size(32)));

/// Calls \p V with the function object of \p Op and returns its result.
template <typename Visitor>
decltype(auto) visitBinary(BinaryOp Op, Visitor &&V) {
  switch (Op) {
  case BinaryOp::Add:
    return V(Add{});
  case BinaryOp::Sub:
    return V(Sub{});
  case BinaryOp::Mul:
    return V(Mul{});
  case BinaryOp::Div:
    return V(Div{});
  case BinaryOp::Min:
    return V(Min{});
  case BinaryOp::Max:
    return V(Max{});
  case BinaryOp::Lt:
    return V(Lt{});
  case BinaryOp::Le:
    return V(Le{});
  case BinaryOp::Gt:
    return V(Gt{});
  case BinaryOp::Ge:
    return V(Ge{});
  case BinaryOp::Eq:
    return V(Eq{});
  case BinaryOp::Ne:
    return V(Ne{});
  case BinaryOp::And:
    return V(And{});
  case BinaryOp::Or:
    return V(Or{});
  }
  assert(false && "unknown binary operator");
  return V(Add{});
}

/// Applies \p Op to two raw payloads.
inline int64_t applyBinary(BinaryOp Op, int64_t L, int64_t R) {
  return visitBinary(Op, [&](auto F) { return F(L, R); });
}

} // namespace ops
} // namespace parsynt

/// Marks a lane leaf: on x86-64 it is compiled twice, for AVX2 (x86-64-v3)
/// and for the baseline, and the loader picks the clone the CPU runs. Not
/// under ThreadSanitizer: GCC's clone resolver runs at load time, before
/// the TSan runtime is set up, and crashes the process (GCC 12), so a TSan
/// build runs the baseline code only.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__SANITIZE_THREAD__)
#define PARSYNT_LANE_CLONES                                                    \
  __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define PARSYNT_LANE_CLONES
#endif

#endif // PARSYNT_INTERP_OPSEMANTICS_H
