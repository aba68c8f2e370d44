//===- lift/NormalForms.cpp - Canonical tropical/boolean forms ------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "lift/NormalForms.h"
#include "ir/ExprOps.h"
#include "normalize/Simplify.h"

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

using namespace parsynt;

//===----------------------------------------------------------------------===//
// Tropical (max,+) normal form.
//===----------------------------------------------------------------------===//

namespace {

/// A linear combination of atoms plus a constant. Atoms are opaque leaf
/// expressions (variables, sequence steps) keyed by their printed form.
struct Term {
  /// atom key -> (expr, coefficient)
  std::map<std::string, std::pair<ExprRef, int64_t>> Atoms;
  int64_t Constant = 0;

  void addAtom(const ExprRef &E, int64_t Coeff) {
    std::string Key = exprToString(E);
    auto [It, Inserted] = Atoms.emplace(Key, std::make_pair(E, Coeff));
    if (!Inserted)
      It->second.second += Coeff;
    if (It->second.second == 0)
      Atoms.erase(It);
  }

  Term scaled(int64_t Factor) const {
    Term Result;
    Result.Constant = Constant * Factor;
    for (const auto &[Key, AtomCoeff] : Atoms)
      if (AtomCoeff.second * Factor != 0)
        Result.Atoms.emplace(Key, std::make_pair(AtomCoeff.first,
                                                 AtomCoeff.second * Factor));
    return Result;
  }

  Term plus(const Term &Other) const {
    Term Result = *this;
    Result.Constant += Other.Constant;
    for (const auto &[Key, AtomCoeff] : Other.Atoms)
      Result.addAtom(AtomCoeff.first, AtomCoeff.second);
    return Result;
  }

  std::string key() const {
    std::string Result;
    for (const auto &[AtomKey, AtomCoeff] : Atoms)
      Result += AtomKey + "*" + std::to_string(AtomCoeff.second) + "+";
    Result += std::to_string(Constant);
    return Result;
  }
};

/// expr = max(terms). Nullopt when outside the fragment.
using MaxOfSums = std::vector<Term>;

/// Ceiling on the term count of any intermediate max-of-sums. Sums of
/// maxes cross-multiply (|L|×|R| terms), so deeply nested max/+ towers
/// grow exponentially; past the cap the expression is treated as outside
/// the fragment and the caller falls back to the budgeted generic
/// normalizer instead of exhausting memory.
constexpr size_t TropicalTermCap = 4096;

std::optional<MaxOfSums> toMaxOfSums(const ExprRef &E) {
  switch (E->kind()) {
  case ExprKind::IntConst: {
    Term T;
    T.Constant = cast<IntConstExpr>(E)->value();
    return MaxOfSums{T};
  }
  case ExprKind::Var:
  case ExprKind::SeqAccess: {
    if (E->type() != Type::Int)
      return std::nullopt;
    Term T;
    T.addAtom(E, 1);
    return MaxOfSums{T};
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    if (U->op() != UnaryOp::Neg)
      return std::nullopt;
    auto Inner = toMaxOfSums(U->operand());
    // Negation flips max into min; only a single term stays in the
    // fragment.
    if (!Inner || Inner->size() != 1)
      return std::nullopt;
    return MaxOfSums{(*Inner)[0].scaled(-1)};
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    auto L = toMaxOfSums(B->lhs());
    if (!L)
      return std::nullopt;
    auto R = toMaxOfSums(B->rhs());
    if (!R)
      return std::nullopt;
    switch (B->op()) {
    case BinaryOp::Max: {
      if (L->size() + R->size() > TropicalTermCap)
        return std::nullopt;
      MaxOfSums Result = *L;
      Result.insert(Result.end(), R->begin(), R->end());
      return Result;
    }
    case BinaryOp::Add: {
      if (L->size() * R->size() > TropicalTermCap)
        return std::nullopt;
      MaxOfSums Result;
      for (const Term &A : *L)
        for (const Term &C : *R)
          Result.push_back(A.plus(C));
      return Result;
    }
    case BinaryOp::Sub: {
      if (R->size() != 1)
        return std::nullopt;
      MaxOfSums Result;
      for (const Term &A : *L)
        Result.push_back(A.plus((*R)[0].scaled(-1)));
      return Result;
    }
    case BinaryOp::Mul: {
      // Multiplication by a non-negative constant only (a negative factor
      // would flip max into min).
      auto scaleBy = [](const MaxOfSums &Side, int64_t Factor)
          -> std::optional<MaxOfSums> {
        if (Factor < 0)
          return std::nullopt;
        MaxOfSums Result;
        for (const Term &T : Side)
          Result.push_back(T.scaled(Factor));
        return Result;
      };
      if (R->size() == 1 && (*R)[0].Atoms.empty())
        return scaleBy(*L, (*R)[0].Constant);
      if (L->size() == 1 && (*L)[0].Atoms.empty())
        return scaleBy(*R, (*L)[0].Constant);
      return std::nullopt;
    }
    default:
      return std::nullopt;
    }
  }
  default:
    return std::nullopt;
  }
}

/// Rebuilds a term as an expression: unknown atoms first (deterministic
/// order), then input atoms, then the constant.
ExprRef termToExpr(const Term &T) {
  auto atomExpr = [](const std::pair<ExprRef, int64_t> &AtomCoeff) {
    const auto &[Atom, Coeff] = AtomCoeff;
    if (Coeff == 1)
      return Atom;
    if (Coeff == -1)
      return neg(Atom);
    return mul(Atom, intConst(Coeff));
  };
  ExprRef Result;
  auto append = [&](const ExprRef &Piece) {
    Result = Result ? add(Result, Piece) : Piece;
  };
  for (const auto &[Key, AtomCoeff] : T.Atoms)
    if (containsVarClass(AtomCoeff.first, VarClass::Unknown))
      append(atomExpr(AtomCoeff));
  for (const auto &[Key, AtomCoeff] : T.Atoms)
    if (!containsVarClass(AtomCoeff.first, VarClass::Unknown))
      append(atomExpr(AtomCoeff));
  if (!Result)
    return intConst(T.Constant);
  if (T.Constant != 0)
    Result = add(Result, intConst(T.Constant));
  return Result;
}

/// Canonical order for residual terms: fewer atoms first, then by printed
/// key — prefix-sum families therefore *extend on the right* across
/// unfolding depths, so the step-(k-1) form is a subterm of the step-k form.
bool termLess(const Term &A, const Term &B) {
  if (A.Atoms.size() != B.Atoms.size())
    return A.Atoms.size() < B.Atoms.size();
  return A.key() < B.key();
}

} // namespace

ExprRef parsynt::tropicalNormalize(const ExprRef &E) {
  if (E->type() != Type::Int)
    return nullptr;
  auto Terms = toMaxOfSums(E);
  if (!Terms)
    return nullptr;

  // Deduplicate identical terms (max is idempotent).
  std::map<std::string, Term> Unique;
  for (const Term &T : *Terms)
    Unique.emplace(T.key(), T);

  // Group terms by their unknown-atom signature.
  struct Group {
    Term UnknownPart; ///< only the unknown atoms
    std::vector<Term> Residuals;
  };
  std::map<std::string, Group> Groups;
  for (auto &[Key, T] : Unique) {
    Term UnknownPart, Residual;
    Residual.Constant = T.Constant;
    for (const auto &[AtomKey, AtomCoeff] : T.Atoms) {
      if (containsVarClass(AtomCoeff.first, VarClass::Unknown))
        UnknownPart.Atoms.emplace(AtomKey, AtomCoeff);
      else
        Residual.Atoms.emplace(AtomKey, AtomCoeff);
    }
    Groups[UnknownPart.key()].UnknownPart = UnknownPart;
    Groups[UnknownPart.key()].Residuals.push_back(std::move(Residual));
  }

  // Rebuild: max over groups; each group is unknowns + max(residuals), with
  // residuals in canonical order, left-associated.
  ExprRef Result;
  auto appendMax = [&](const ExprRef &Piece) {
    Result = Result ? maxE(Result, Piece) : Piece;
  };
  for (auto &[Key, G] : Groups) {
    std::sort(G.Residuals.begin(), G.Residuals.end(), termLess);
    ExprRef ResidualExpr;
    for (const Term &T : G.Residuals) {
      ExprRef TE = termToExpr(T);
      ResidualExpr = ResidualExpr ? maxE(ResidualExpr, TE) : TE;
    }
    if (G.UnknownPart.Atoms.empty()) {
      appendMax(ResidualExpr);
      continue;
    }
    ExprRef UnknownExpr = termToExpr(G.UnknownPart);
    appendMax(add(UnknownExpr, ResidualExpr));
  }
  return Result ? simplify(Result) : nullptr;
}

//===----------------------------------------------------------------------===//
// Boolean CNF normal form.
//===----------------------------------------------------------------------===//

namespace {

/// A literal: an atom (opaque boolean expression) with polarity, keyed by
/// printed form.
struct Literal {
  ExprRef Atom;
  bool Negated = false;
  std::string Key; ///< printed atom (polarity kept separately)

  ExprRef toExpr() const { return Negated ? notE(Atom) : Atom; }
};

/// A clause: disjunction of literals, keyed set-wise.
struct Clause {
  std::map<std::string, Literal> Literals; // key = Key + polarity marker
  bool Tautology = false;

  void add(Literal L) {
    std::string FullKey = (L.Negated ? "!" : "") + L.Key;
    std::string OppositeKey = (L.Negated ? "" : "!") + L.Key;
    if (Literals.count(OppositeKey)) {
      Tautology = true;
      return;
    }
    Literals.emplace(std::move(FullKey), std::move(L));
  }

  std::string key() const {
    std::string Result;
    for (const auto &[K, L] : Literals)
      Result += K + "|";
    return Result;
  }

  /// True if every literal of this clause occurs in \p Other.
  bool subsumes(const Clause &Other) const {
    for (const auto &[K, L] : Literals)
      if (!Other.Literals.count(K))
        return false;
    return true;
  }
};

using Cnf = std::vector<Clause>;

constexpr size_t CnfClauseCap = 256;

/// NNF+CNF conversion. \p Negated tracks an outer negation.
std::optional<Cnf> toCnf(const ExprRef &E, bool Negated) {
  if (const auto *C = dyn_cast<BoolConstExpr>(E)) {
    bool V = C->value() != Negated;
    if (V)
      return Cnf{}; // true: empty conjunction
    Cnf Result(1);  // false: empty clause
    return Result;
  }
  if (const auto *U = dyn_cast<UnaryExpr>(E)) {
    if (U->op() == UnaryOp::Not)
      return toCnf(U->operand(), !Negated);
  }
  if (const auto *I = dyn_cast<IteExpr>(E)) {
    // Boolean conditional: ite(c,t,e) == (!c | t) & (c | e); a negation
    // applies to the branches only (the equivalence absorbs it).
    if (I->type() == Type::Bool && I->cond()->type() == Type::Bool) {
      ExprRef Expanded = andE(orE(notE(I->cond()), I->thenExpr()),
                              orE(I->cond(), I->elseExpr()));
      return toCnf(Expanded, Negated);
    }
  }
  if (const auto *B = dyn_cast<BinaryExpr>(E)) {
    bool IsAnd = B->op() == BinaryOp::And;
    bool IsOr = B->op() == BinaryOp::Or;
    if (IsAnd || IsOr) {
      // Negation turns and into or (De Morgan).
      bool EffectiveAnd = Negated ? !IsAnd : IsAnd;
      auto L = toCnf(B->lhs(), Negated);
      auto R = toCnf(B->rhs(), Negated);
      if (!L || !R)
        return std::nullopt;
      if (EffectiveAnd) {
        Cnf Result = *L;
        Result.insert(Result.end(), R->begin(), R->end());
        if (Result.size() > CnfClauseCap)
          return std::nullopt;
        return Result;
      }
      // Or: distribute (cross product of clauses).
      if (L->size() * R->size() > CnfClauseCap)
        return std::nullopt;
      Cnf Result;
      for (const Clause &A : *L) {
        for (const Clause &C : *R) {
          Clause Merged = A;
          for (const auto &[K, Lit] : C.Literals)
            Merged.add(Lit);
          Merged.Tautology = Merged.Tautology || A.Tautology || C.Tautology;
          Result.push_back(std::move(Merged));
        }
      }
      return Result;
    }
  }
  // Atom.
  Literal L;
  L.Atom = E;
  L.Negated = Negated;
  L.Key = exprToString(E);
  Clause C;
  C.add(std::move(L));
  return Cnf{C};
}

} // namespace

ExprRef parsynt::booleanNormalize(const ExprRef &E) {
  if (E->type() != Type::Bool)
    return nullptr;

  auto MaybeCnf = toCnf(simplify(E), /*Negated=*/false);
  if (!MaybeCnf)
    return nullptr;

  // The grouping below is only meaningful when every unknown occurrence is
  // a bare boolean variable; composite unknown atoms need the generic
  // arithmetic rewriter instead.
  for (const Clause &C : *MaybeCnf) {
    for (const auto &[K, L] : C.Literals)
      if (containsVarClass(L.Atom, VarClass::Unknown) && !isa<VarExpr>(L.Atom))
        return nullptr;
  }

  // Drop tautologies, deduplicate, apply subsumption.
  Cnf Clauses;
  std::set<std::string> SeenClause;
  for (Clause &C : *MaybeCnf) {
    if (C.Tautology)
      continue;
    if (SeenClause.insert(C.key()).second)
      Clauses.push_back(std::move(C));
  }
  std::vector<bool> Dead(Clauses.size(), false);
  for (size_t I = 0; I != Clauses.size(); ++I) {
    for (size_t J = 0; J != Clauses.size(); ++J) {
      if (I == J || Dead[I] || Dead[J])
        continue;
      if (Clauses[I].subsumes(Clauses[J]) &&
          Clauses[I].Literals.size() <= Clauses[J].Literals.size())
        Dead[J] = true;
    }
  }

  // Group clauses by their unknown literals: (u | a) & (u | b) = u | (a & b).
  struct Group {
    std::vector<Literal> UnknownLits;
    // Conjunction of pure disjunctions, canonically ordered.
    std::vector<std::pair<std::string, ExprRef>> PureParts;
  };
  std::map<std::string, Group> Groups;
  for (size_t I = 0; I != Clauses.size(); ++I) {
    if (Dead[I])
      continue;
    std::string GroupKey;
    Group Tentative;
    ExprRef PureDisj;
    std::string PureKey;
    for (const auto &[K, L] : Clauses[I].Literals) {
      if (containsVarClass(L.Atom, VarClass::Unknown)) {
        GroupKey += K + "|";
        Tentative.UnknownLits.push_back(L);
      } else {
        PureDisj = PureDisj ? orE(PureDisj, L.toExpr()) : L.toExpr();
        PureKey += K + "|";
      }
    }
    auto [It, Inserted] = Groups.emplace(GroupKey, std::move(Tentative));
    if (PureDisj)
      It->second.PureParts.emplace_back(PureKey, PureDisj);
    else if (It->second.UnknownLits.empty())
      return boolConst(false); // empty clause: unsatisfiable
  }

  // Rebuild: conjunction over groups of (unknownLits | (pure1 & pure2 ...)),
  // with pure parts canonically ordered and left-associated.
  ExprRef Result;
  auto appendAnd = [&](const ExprRef &Piece) {
    Result = Result ? andE(Result, Piece) : Piece;
  };
  for (auto &[Key, G] : Groups) {
    std::sort(G.PureParts.begin(), G.PureParts.end(),
              [](const auto &A, const auto &B) {
                return A.first.size() != B.first.size()
                           ? A.first.size() < B.first.size()
                           : A.first < B.first;
              });
    ExprRef PureConj;
    for (const auto &[PKey, PE] : G.PureParts)
      PureConj = PureConj ? andE(PureConj, PE) : PE;
    ExprRef GroupExpr = PureConj;
    for (const Literal &L : G.UnknownLits)
      GroupExpr = GroupExpr ? orE(L.toExpr(), GroupExpr) : L.toExpr();
    appendAnd(GroupExpr);
  }
  return Result ? simplify(Result) : boolConst(true);
}

ExprRef parsynt::normalizeUnfolding(const ExprRef &Tau,
                                    const Deadline &Timeout,
                                    NormalizeStats *Stats) {
  if (ExprRef Ell = tropicalNormalize(Tau))
    return Ell;
  if (ExprRef Ell = booleanNormalize(Tau))
    return Ell;
  return normalizeExpr(Tau, Timeout, Stats);
}
