//===- interp/Value.h - Runtime scalar values -------------------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime scalar values for the interpreter. The paper's scalars are
/// mathematical integers; ours are 64-bit and wrap modulo 2^64, the defined
/// semantics of interp/OpSemantics.h that synthesis, the runtime and
/// emitted programs share.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_INTERP_VALUE_H
#define PARSYNT_INTERP_VALUE_H

#include "ir/Type.h"

#include <cassert>
#include <cstdint>
#include <string>

namespace parsynt {

/// A scalar runtime value: an int64 or a bool, tagged by Type.
class Value {
public:
  Value() : Ty(Type::Int), Int(0) {}
  static Value ofInt(int64_t V) {
    Value Result;
    Result.Ty = Type::Int;
    Result.Int = V;
    return Result;
  }
  static Value ofBool(bool V) {
    Value Result;
    Result.Ty = Type::Bool;
    Result.Int = V ? 1 : 0;
    return Result;
  }

  /// The value of type \p Ty whose raw payload is \p Raw (bools: nonzero
  /// is true).
  static Value ofRaw(Type Ty, int64_t Raw) {
    return Ty == Type::Int ? ofInt(Raw) : ofBool(Raw != 0);
  }

  Type type() const { return Ty; }
  int64_t asInt() const {
    assert(Ty == Type::Int && "not an int");
    return Int;
  }
  bool asBool() const {
    assert(Ty == Type::Bool && "not a bool");
    return Int != 0;
  }
  /// Raw payload regardless of tag (bools as 0/1); used by hashing and by
  /// vector-compare fast paths.
  int64_t raw() const { return Int; }

  friend bool operator==(const Value &A, const Value &B) {
    return A.Ty == B.Ty && A.Int == B.Int;
  }
  friend bool operator!=(const Value &A, const Value &B) { return !(A == B); }

  std::string str() const {
    if (Ty == Type::Bool)
      return Int ? "true" : "false";
    return std::to_string(Int);
  }

private:
  Type Ty;
  int64_t Int;
};

} // namespace parsynt

#endif // PARSYNT_INTERP_VALUE_H
