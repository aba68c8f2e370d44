//===- lift/Unfold.cpp - Symbolic loop unfolding ---------------------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "lift/Unfold.h"
#include "ir/ExprOps.h"
#include "normalize/Simplify.h"

using namespace parsynt;

std::string parsynt::stepInputName(const std::string &Seq, unsigned K) {
  return Seq + "@" + std::to_string(K);
}

namespace {

/// True if \p E reads \p Index outside of sequence-subscript positions
/// (s[i] itself does not make a loop index-dependent).
bool readsIndexOutsideSubscripts(const ExprRef &E, const std::string &Index) {
  if (const auto *V = dyn_cast<VarExpr>(E))
    return V->name() == Index;
  if (isa<SeqAccessExpr>(E))
    return false;
  for (const ExprRef &Child : children(E))
    if (readsIndexOutsideSubscripts(Child, Index))
      return true;
  return false;
}

} // namespace

bool parsynt::readsIndex(const Loop &L) {
  for (const Equation &Eq : L.Equations)
    if (readsIndexOutsideSubscripts(Eq.Update, L.IndexName))
      return true;
  return false;
}

namespace {

/// Replaces reads of \p Index with \p Replacement, leaving sequence
/// subscripts (which must keep the real iteration index) untouched.
ExprRef replaceIndexReads(const ExprRef &E, const std::string &Index,
                          const ExprRef &Replacement) {
  if (const auto *V = dyn_cast<VarExpr>(E))
    return V->name() == Index ? Replacement : E;
  if (isa<SeqAccessExpr>(E))
    return E;
  return mapChildren(E, [&](const ExprRef &Child) {
    return replaceIndexReads(Child, Index, Replacement);
  });
}

} // namespace

Loop parsynt::materializeIndex(const Loop &L) {
  if (!readsIndex(L))
    return L;
  Loop Result = L;
  const char *PosName = "_pos";
  assert(!L.findEquation(PosName) && "position accumulator name collision");
  ExprRef PosVar = stateVar(PosName, Type::Int);
  for (Equation &Eq : Result.Equations)
    Eq.Update = replaceIndexReads(Eq.Update, L.IndexName, PosVar);
  Equation Pos;
  Pos.Name = PosName;
  Pos.Ty = Type::Int;
  Pos.Init = intConst(0);
  Pos.Update = add(stateVar(PosName, Type::Int), intConst(1));
  Pos.IsAuxiliary = true;
  Result.Equations.push_back(std::move(Pos));
  return Result;
}

namespace {

/// Occurrences of state variable \p Name in \p E (substitution sites).
uint64_t countVarUses(const ExprRef &E, const std::string &Name) {
  uint64_t Count = 0;
  forEachNode(E, [&](const ExprRef &Node) {
    if (const auto *V = dyn_cast<VarExpr>(Node))
      if (V->name() == Name)
        ++Count;
  });
  return Count;
}

} // namespace

Unfolding parsynt::unfoldLoop(const Loop &L, unsigned K, bool FromUnknowns) {
  assert(!readsIndex(L) &&
         "materializeIndex must be applied before unfolding");
  Unfolding Result;
  Result.Steps = K;

  // Step 0: unknowns or initial values.
  for (const Equation &Eq : L.Equations) {
    ExprRef Start = FromUnknowns ? unknownVar(Eq.Name + "@0", Eq.Ty)
                                 : Eq.Init;
    Result.ValuesAtStep[Eq.Name].push_back(simplify(Start));
  }

  for (unsigned Step = 1; Step <= K; ++Step) {
    // State-variable substitution: previous step's expressions.
    Substitution Subst;
    for (const Equation &Eq : L.Equations)
      Subst[Eq.Name] = Result.ValuesAtStep[Eq.Name][Step - 1];

    // Exact pre-substitution size of this step: substituting prev_v (size
    // |prev_v|) for each of occ_v occurrences of v in an update of size
    // |Update| yields |Update| + Σ_v occ_v × (|prev_v| − 1) nodes. Cached
    // Expr::size() makes the estimate O(|Update|) — no expression is built
    // only to be thrown away.
    uint64_t StepNodes = 0;
    for (const Equation &Eq : L.Equations) {
      uint64_t Estimate = Eq.Update->size();
      for (const Equation &Prev : L.Equations) {
        uint64_t Occ = countVarUses(Eq.Update, Prev.Name);
        if (Occ)
          Estimate += Occ * (Subst[Prev.Name]->size() - 1);
      }
      StepNodes += Estimate;
    }
    if (StepNodes > UnfoldNodeCeiling) {
      Result.Steps = Step - 1;
      Result.Exceeded = true;
      return Result;
    }

    for (const Equation &Eq : L.Equations) {
      ExprRef Stepped = substitute(Eq.Update, Subst);
      // Sequence reads at this step become fresh inputs "<seq>@Step".
      Stepped = rewriteSeqAccesses(
          Stepped, [&](const SeqAccessExpr &Access) -> ExprRef {
            return inputVar(stepInputName(Access.seqName(), Step),
                            Access.type());
          });
      Result.ValuesAtStep[Eq.Name].push_back(simplify(Stepped));
    }
  }
  return Result;
}
