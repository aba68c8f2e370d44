//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_TESTS_TESTUTIL_H
#define PARSYNT_TESTS_TESTUTIL_H

#include "frontend/Convert.h"
#include "interp/Interp.h"
#include "interp/OpSemantics.h"
#include "ir/ExprOps.h"
#include "runtime/ParallelReduce.h"
#include "support/Random.h"
#include "synth/Enumerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

namespace parsynt {
namespace test {

/// The reference semantics of an expression: a tree walk over name -> value
/// maps, against which every compiled evaluator is differentially tested.
/// All referenced variables and sequences must be bound; out-of-range
/// sequence accesses are a programmatic error (asserted). Operators follow
/// interp/OpSemantics.h; `&&`, `||` and `ite` short-circuit.
inline Value evalExpr(const ExprRef &E, const Env &Vars, const SeqEnv &Seqs) {
  switch (E->kind()) {
  case ExprKind::IntConst:
    return Value::ofInt(cast<IntConstExpr>(E)->value());
  case ExprKind::BoolConst:
    return Value::ofBool(cast<BoolConstExpr>(E)->value());
  case ExprKind::Var: {
    const auto *V = cast<VarExpr>(E);
    auto It = Vars.find(V->name());
    assert(It != Vars.end() && "unbound variable");
    assert(It->second.type() == V->type() && "environment type mismatch");
    return It->second;
  }
  case ExprKind::SeqAccess: {
    const auto *S = cast<SeqAccessExpr>(E);
    auto It = Seqs.find(S->seqName());
    assert(It != Seqs.end() && "unbound sequence");
    int64_t Index = evalExpr(S->index(), Vars, Seqs).asInt();
    assert(Index >= 0 && static_cast<size_t>(Index) < It->second.size() &&
           "sequence access out of range");
    return It->second[static_cast<size_t>(Index)];
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    Value Operand = evalExpr(U->operand(), Vars, Seqs);
    if (U->op() == UnaryOp::Neg)
      return Value::ofInt(ops::neg(Operand.asInt()));
    return Value::ofBool(ops::logicalNot(Operand.asBool()));
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    if (B->op() == BinaryOp::And) {
      if (!evalExpr(B->lhs(), Vars, Seqs).asBool())
        return Value::ofBool(false);
      return evalExpr(B->rhs(), Vars, Seqs);
    }
    if (B->op() == BinaryOp::Or) {
      if (evalExpr(B->lhs(), Vars, Seqs).asBool())
        return Value::ofBool(true);
      return evalExpr(B->rhs(), Vars, Seqs);
    }
    Value L = evalExpr(B->lhs(), Vars, Seqs);
    Value R = evalExpr(B->rhs(), Vars, Seqs);
    assert(L.type() == R.type() && "ill-typed binary operands");
    int64_t Result = ops::applyBinary(B->op(), L.raw(), R.raw());
    if (isArithOp(B->op()))
      return Value::ofInt(Result);
    return Value::ofBool(Result != 0);
  }
  case ExprKind::Ite: {
    const auto *I = cast<IteExpr>(E);
    if (evalExpr(I->cond(), Vars, Seqs).asBool())
      return evalExpr(I->thenExpr(), Vars, Seqs);
    return evalExpr(I->elseExpr(), Vars, Seqs);
  }
  }
  assert(false && "unknown expression kind");
  return Value();
}

/// evalExpr for expressions with no sequence accesses.
inline Value evalExpr(const ExprRef &E, const Env &Vars) {
  static const SeqEnv Empty;
  return evalExpr(E, Vars, Empty);
}

/// Parses a loop or fails the test.
inline Loop mustParse(const std::string &Source,
                      const std::string &Name = "test") {
  DiagnosticEngine Diags;
  auto L = parseLoop(Source, Name, Diags);
  EXPECT_TRUE(L.has_value()) << Diags.str();
  return L ? *L : Loop();
}

/// A loop whose unfolding outgrows the node ceiling (lift/Unfold.h): `a`
/// raises itself to the 64th power every step, so its from-unknowns
/// unfolding passes 200k nodes at step 3. `b` squares itself as well, so
/// no join exists without lifting.
inline Loop nodeCeilingLoop() {
  std::string Power = "a";
  for (int I = 1; I != 64; ++I)
    Power += " * a";
  return mustParse("a = 0;\n"
                   "b = 0;\n"
                   "for (i = 0; i < |s|; i++) {\n"
                   "  b = b * b + s[i];\n"
                   "  a = " + Power + " + s[i];\n"
                   "}",
                   "node-ceiling");
}

/// Generates a random well-typed expression over the given variables.
/// Depth 0 yields leaves. Exercises every operator of the Figure-4
/// grammar.
inline ExprRef randomExpr(Rng &R, unsigned Depth, Type Ty,
                          const std::vector<std::pair<std::string, Type>>
                              &Vars) {
  if (Depth == 0 || R.chance(1, 5)) {
    // Leaf: variable of the right type, or a constant.
    std::vector<const std::pair<std::string, Type> *> Matching;
    for (const auto &V : Vars)
      if (V.second == Ty)
        Matching.push_back(&V);
    if (!Matching.empty() && R.chance(3, 4)) {
      const auto *V = Matching[R.index(Matching.size())];
      return inputVar(V->first, V->second);
    }
    if (Ty == Type::Int)
      return intConst(R.intIn(-3, 3));
    return boolConst(R.flip());
  }
  if (Ty == Type::Int) {
    switch (R.intIn(0, 7)) {
    case 0:
      return add(randomExpr(R, Depth - 1, Type::Int, Vars),
                 randomExpr(R, Depth - 1, Type::Int, Vars));
    case 1:
      return sub(randomExpr(R, Depth - 1, Type::Int, Vars),
                 randomExpr(R, Depth - 1, Type::Int, Vars));
    case 2:
      return mul(randomExpr(R, Depth - 1, Type::Int, Vars),
                 randomExpr(R, Depth - 1, Type::Int, Vars));
    case 3:
      return minE(randomExpr(R, Depth - 1, Type::Int, Vars),
                  randomExpr(R, Depth - 1, Type::Int, Vars));
    case 4:
      return maxE(randomExpr(R, Depth - 1, Type::Int, Vars),
                  randomExpr(R, Depth - 1, Type::Int, Vars));
    case 5:
      return neg(randomExpr(R, Depth - 1, Type::Int, Vars));
    case 6:
      return binary(BinaryOp::Div, randomExpr(R, Depth - 1, Type::Int, Vars),
                    randomExpr(R, Depth - 1, Type::Int, Vars));
    default:
      return ite(randomExpr(R, Depth - 1, Type::Bool, Vars),
                 randomExpr(R, Depth - 1, Type::Int, Vars),
                 randomExpr(R, Depth - 1, Type::Int, Vars));
    }
  }
  switch (R.intIn(0, 6)) {
  case 0:
    return andE(randomExpr(R, Depth - 1, Type::Bool, Vars),
                randomExpr(R, Depth - 1, Type::Bool, Vars));
  case 1:
    return orE(randomExpr(R, Depth - 1, Type::Bool, Vars),
               randomExpr(R, Depth - 1, Type::Bool, Vars));
  case 2:
    return notE(randomExpr(R, Depth - 1, Type::Bool, Vars));
  case 3:
    return lt(randomExpr(R, Depth - 1, Type::Int, Vars),
              randomExpr(R, Depth - 1, Type::Int, Vars));
  case 4:
    return ge(randomExpr(R, Depth - 1, Type::Int, Vars),
              randomExpr(R, Depth - 1, Type::Int, Vars));
  case 5:
    return eq(randomExpr(R, Depth - 1, Type::Int, Vars),
              randomExpr(R, Depth - 1, Type::Int, Vars));
  default:
    return ite(randomExpr(R, Depth - 1, Type::Bool, Vars),
               randomExpr(R, Depth - 1, Type::Bool, Vars),
               randomExpr(R, Depth - 1, Type::Bool, Vars));
  }
}

/// The standard variable menu used by the property tests.
inline std::vector<std::pair<std::string, Type>> standardVars() {
  return {{"x", Type::Int},  {"y", Type::Int},  {"z", Type::Int},
          {"p", Type::Bool}, {"q", Type::Bool}};
}

//===----------------------------------------------------------------------===//
// Sampling-based semantic equivalence of expressions, for the property
// tests of the rewrite engine and the enumerator.
//===----------------------------------------------------------------------===//

/// Draws \p Count random environments binding every variable in \p Vars
/// (ints from a mixed small/large distribution, bools uniform). The first
/// environments enumerate structured corners (all zero, all one, all minus
/// one, ...) before random draws.
inline std::vector<Env>
sampleEnvs(const std::vector<std::pair<std::string, Type>> &Vars,
           size_t Count, Rng &R) {
  std::vector<Env> Envs;
  // Structured corners first: they catch identity/absorption mistakes that
  // random draws miss with noticeable probability.
  for (int64_t Corner : {0, 1, -1, 2, -2}) {
    if (Envs.size() >= Count)
      break;
    Env E;
    for (const auto &[Name, Ty] : Vars)
      E[Name] = Ty == Type::Int ? Value::ofInt(Corner)
                                : Value::ofBool(Corner % 2 != 0);
    Envs.push_back(std::move(E));
  }
  while (Envs.size() < Count) {
    Env E;
    for (const auto &[Name, Ty] : Vars) {
      // Mostly small magnitudes (where algebraic corner cases live), with
      // an occasional large draw to expose scale-dependent coincidences.
      E[Name] = Ty == Type::Bool ? Value::ofBool(R.flip())
                                 : Value::ofInt(R.chance(1, 8)
                                                    ? R.intIn(-1000000, 1000000)
                                                    : R.intIn(-4, 4));
    }
    Envs.push_back(std::move(E));
  }
  return Envs;
}

/// Sampling-based equivalence over the free variables of both expressions:
/// \p Samples environments (structured corners, then random draws).
inline bool probablyEquivalent(const ExprRef &A, const ExprRef &B, Rng &R,
                               size_t Samples = 48) {
  if (A->type() != B->type())
    return false;
  auto VarsA = collectTypedVars(A);
  auto VarsB = collectTypedVars(B);
  std::vector<std::pair<std::string, Type>> Vars;
  std::merge(VarsA.begin(), VarsA.end(), VarsB.begin(), VarsB.end(),
             std::back_inserter(Vars));
  Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
  for (const Env &E : sampleEnvs(Vars, Samples, R))
    if (evalExpr(A, E) != evalExpr(B, E))
      return false;
  return true;
}

/// Asserts that two expressions agree on many sampled environments, with a
/// readable message when they do not.
inline void expectEquivalent(const ExprRef &A, const ExprRef &B,
                             uint64_t Seed = 99) {
  Rng R(Seed);
  EXPECT_TRUE(probablyEquivalent(A, B, R, 64))
      << "A: " << exprToString(A) << "\nB: " << exprToString(B);
}

//===----------------------------------------------------------------------===//
// Loops and joins under the reference semantics, against which the compiled
// loop and join programs are differentially tested.
//===----------------------------------------------------------------------===//

/// Runs the iterations [Begin, End) of \p L over \p Seqs from \p State.
inline StateTuple referenceRunRange(const Loop &L, StateTuple State,
                                    const SeqEnv &Seqs, int64_t Begin,
                                    int64_t End, const Env &Params = {}) {
  Env Vars = Params;
  for (int64_t Index = Begin; Index < End; ++Index) {
    for (size_t I = 0; I != L.Equations.size(); ++I)
      Vars[L.Equations[I].Name] = State[I];
    Vars[L.IndexName] = Value::ofInt(Index);
    StateTuple Next;
    for (const Equation &Eq : L.Equations)
      Next.push_back(evalExpr(Eq.Update, Vars, Seqs));
    State = std::move(Next);
  }
  return State;
}

inline StateTuple referenceInitialState(const Loop &L,
                                        const Env &Params = {}) {
  StateTuple State;
  for (const Equation &Eq : L.Equations)
    State.push_back(evalExpr(Eq.Init, Params));
  return State;
}

/// fE over the whole of \p Seqs.
inline StateTuple referenceRunLoop(const Loop &L, const SeqEnv &Seqs,
                                   const Env &Params = {}) {
  int64_t Length = L.Sequences.empty()
                       ? 0
                       : static_cast<int64_t>(
                             Seqs.at(L.Sequences.front().Name).size());
  return referenceRunRange(L, referenceInitialState(L, Params), Seqs, 0,
                           Length, Params);
}

/// The join components \p Join applied to split states \p Left, \p Right.
inline StateTuple referenceJoin(const Loop &L, const std::vector<ExprRef> &Join,
                                const StateTuple &Left,
                                const StateTuple &Right,
                                const Env &Params = {}) {
  Env Vars = Params;
  for (size_t I = 0; I != L.Equations.size(); ++I) {
    Vars[splitName(L.Equations[I].Name, Side::Left)] = Left[I];
    Vars[splitName(L.Equations[I].Name, Side::Right)] = Right[I];
  }
  StateTuple Result;
  for (const ExprRef &Component : Join)
    Result.push_back(evalExpr(Component, Vars));
  return Result;
}

/// The join that keeps every left state: wrong for every loop whose state
/// depends on its input.
inline std::vector<ExprRef> leftOnlyJoin(const Loop &L) {
  std::vector<ExprRef> Join;
  for (const Equation &Eq : L.Equations)
    Join.push_back(inputVar(splitName(Eq.Name, Side::Left), Eq.Ty));
  return Join;
}

/// \p Join with every left and right operand exchanged: wrong for every
/// join that is not symmetric.
inline std::vector<ExprRef> swapSides(const Loop &L,
                                      const std::vector<ExprRef> &Join) {
  Substitution Swap;
  for (const Equation &Eq : L.Equations) {
    Swap[splitName(Eq.Name, Side::Left)] =
        inputVar(splitName(Eq.Name, Side::Right), Eq.Ty);
    Swap[splitName(Eq.Name, Side::Right)] =
        inputVar(splitName(Eq.Name, Side::Left), Eq.Ty);
  }
  std::vector<ExprRef> Swapped;
  for (const ExprRef &C : Join)
    Swapped.push_back(substitute(C, Swap));
  return Swapped;
}

/// The divide-and-conquer run of parallelRunLoop over the identical join
/// tree, evaluated sequentially by the reference semantics. An empty join
/// is the sequential fallback: plain fE.
inline StateTuple referenceParallelRun(const Loop &L,
                                       const std::vector<ExprRef> &Join,
                                       const SeqEnv &Seqs, size_t Grain,
                                       const Env &Params = {}) {
  size_t Length = Seqs.at(L.Sequences.front().Name).size();
  if (Join.empty() || Length == 0)
    return referenceRunLoop(L, Seqs, Params);
  StateTuple Init = referenceInitialState(L, Params);
  return sequentialReduce<StateTuple>(
      BlockedRange{0, Length, std::max<size_t>(Grain, 1)},
      [&](size_t Begin, size_t End) {
        return referenceRunRange(L, Init, Seqs, static_cast<int64_t>(Begin),
                                 static_cast<int64_t>(End), Params);
      },
      [&](const StateTuple &Left, const StateTuple &Right) {
        return referenceJoin(L, Join, Left, Right, Params);
      });
}

/// Seeded contents for every sequence of \p L: \p Length elements, a
/// quarter of them the wrap-around edges INT64_MIN, INT64_MAX, -1 and 0,
/// the rest drawn from \p Pool (bool sequences take the low bit).
inline SeqEnv edgeInputs(const Loop &L, size_t Length,
                         const std::vector<int64_t> &Pool, Rng &R) {
  static const int64_t Edges[] = {INT64_MIN, INT64_MAX, -1, 0};
  SeqEnv Seqs;
  for (const SeqDecl &S : L.Sequences) {
    std::vector<Value> Elems;
    for (size_t I = 0; I != Length; ++I) {
      int64_t V = R.chance(1, 4) ? Edges[R.index(4)]
                                 : Pool[R.index(Pool.size())];
      Elems.push_back(S.ElemTy == Type::Bool ? Value::ofBool(V & 1)
                                             : Value::ofInt(V));
    }
    Seqs[S.Name] = std::move(Elems);
  }
  return Seqs;
}

/// The sequential bottom-up enumeration that the Enumerator's chunked,
/// parallel size levels replaced: the same nested loops in the same order,
/// both operand orders of every operator included, deduplicating on exact
/// value columns. The Enumerator's pools must equal this one's candidate by
/// candidate.
class ReferenceEnumerator {
public:
  explicit ReferenceEnumerator(EnumeratorOptions Options)
      : Options(Options) {}

  void addLeaf(const ExprRef &E, const std::vector<int64_t> &Values) {
    insert(E->type(), Values, [&] { return E; });
  }

  void growTo(unsigned MaxSize) {
    const BinaryOp IntOps[] = {BinaryOp::Add, BinaryOp::Sub, BinaryOp::Min,
                               BinaryOp::Max, BinaryOp::Mul, BinaryOp::Div,
                               BinaryOp::Lt,  BinaryOp::Le,  BinaryOp::Eq};
    const BinaryOp BoolOps[] = {BinaryOp::And, BinaryOp::Or};
    // Copies: insertions extend the pools (into this size's bucket).
    auto bucket = [&](Type Ty, unsigned Size) {
      const Pool &P = pool(Ty);
      return Size < P.BySize.size() ? P.BySize[Size] : std::vector<size_t>{};
    };
    auto values = [&](Type Ty, size_t I) -> const std::vector<int64_t> & {
      return pool(Ty).Cands[I].Values;
    };
    auto expr = [&](Type Ty, size_t I) { return pool(Ty).Cands[I].E; };
    auto combine = [&](BinaryOp Op, Type Operands, size_t I, size_t J) {
      Type Ty = isArithOp(Op) ? Type::Int : Type::Bool;
      if (full(Ty))
        return;
      const std::vector<int64_t> &A = values(Operands, I);
      const std::vector<int64_t> &B = values(Operands, J);
      Column.resize(A.size());
      for (size_t T = 0; T != A.size(); ++T)
        Column[T] = ops::applyBinary(Op, A[T], B[T]);
      insert(Ty, Column, [&] {
        return binary(Op, expr(Operands, I), expr(Operands, J));
      });
    };
    auto combineIte = [&](Type Ty, size_t C, size_t I, size_t J) {
      if (full(Ty))
        return;
      const std::vector<int64_t> &Cond = values(Type::Bool, C);
      const std::vector<int64_t> &Then = values(Ty, I);
      const std::vector<int64_t> &Else = values(Ty, J);
      Column.resize(Cond.size());
      for (size_t T = 0; T != Cond.size(); ++T)
        Column[T] = Cond[T] ? Then[T] : Else[T];
      insert(Ty, Column, [&] {
        return ite(expr(Type::Bool, C), expr(Ty, I), expr(Ty, J));
      });
    };

    for (unsigned Size = BuiltSize + 1; Size <= MaxSize; ++Size) {
      for (size_t I : bucket(Type::Int, Size - 1)) {
        if (full(Type::Int))
          break;
        Column = values(Type::Int, I);
        for (int64_t &V : Column)
          V = ops::neg(V);
        insert(Type::Int, Column, [&] { return neg(expr(Type::Int, I)); });
      }
      for (size_t I : bucket(Type::Bool, Size - 1)) {
        if (full(Type::Bool))
          break;
        Column = values(Type::Bool, I);
        for (int64_t &V : Column)
          V = ops::logicalNot(V);
        insert(Type::Bool, Column,
               [&] { return notE(expr(Type::Bool, I)); });
      }
      for (unsigned SizeA = 1; SizeA + 2 <= Size; ++SizeA) {
        unsigned SizeB = Size - 1 - SizeA;
        for (size_t I : bucket(Type::Int, SizeA))
          for (size_t J : bucket(Type::Int, SizeB))
            for (BinaryOp Op : IntOps)
              combine(Op, Type::Int, I, J);
        for (size_t I : bucket(Type::Bool, SizeA))
          for (size_t J : bucket(Type::Bool, SizeB))
            for (BinaryOp Op : BoolOps)
              combine(Op, Type::Bool, I, J);
      }
      for (unsigned SizeC = 1; SizeC + 3 <= Size; ++SizeC) {
        for (unsigned SizeT = 1; SizeC + SizeT + 2 <= Size; ++SizeT) {
          unsigned SizeE = Size - 1 - SizeC - SizeT;
          for (Type Ty : {Type::Int, Type::Bool})
            for (size_t C : bucket(Type::Bool, SizeC))
              for (size_t I : bucket(Ty, SizeT))
                for (size_t J : bucket(Ty, SizeE))
                  combineIte(Ty, C, I, J);
        }
      }
    }
    BuiltSize = std::max(BuiltSize, MaxSize);
  }

  /// A kept candidate: its expression and its column.
  struct Entry {
    ExprRef E;
    std::vector<int64_t> Values;
  };

  const std::vector<Entry> &candidates(Type Ty) const {
    return pool(Ty).Cands;
  }

private:
  struct ColumnHash {
    size_t operator()(const std::vector<int64_t> &Values) const {
      uint64_t H = 0;
      for (int64_t V : Values)
        H = (H ^ static_cast<uint64_t>(V)) * 0x100000001b3ull;
      return static_cast<size_t>(H ^ (H >> 32));
    }
  };
  struct Pool {
    std::vector<Entry> Cands;
    std::unordered_set<std::vector<int64_t>, ColumnHash> Seen;
    std::vector<std::vector<size_t>> BySize;
  };

  /// Keeps \p Values as a new candidate unless the pool is full or holds
  /// an observational twin (the earlier, smaller one wins).
  template <typename MakeExpr>
  void insert(Type Ty, const std::vector<int64_t> &Values, MakeExpr Make) {
    Pool &P = pool(Ty);
    if (full(Ty) || !P.Seen.insert(Values).second)
      return;
    ExprRef E = Make();
    unsigned Size = E->size();
    if (P.BySize.size() <= Size)
      P.BySize.resize(Size + 1);
    P.BySize[Size].push_back(P.Cands.size());
    P.Cands.push_back({std::move(E), Values});
  }
  bool full(Type Ty) const {
    return pool(Ty).Cands.size() >= Options.MaxPerType;
  }
  Pool &pool(Type Ty) { return Ty == Type::Int ? IntPool : BoolPool; }
  const Pool &pool(Type Ty) const {
    return Ty == Type::Int ? IntPool : BoolPool;
  }

  EnumeratorOptions Options;
  Pool IntPool, BoolPool;
  std::vector<int64_t> Column;
  unsigned BuiltSize = 1;
};

} // namespace test
} // namespace parsynt

#endif // PARSYNT_TESTS_TESTUTIL_H
