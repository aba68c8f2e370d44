//===- analysis/DependenceGraph.cpp - State-variable dependences ----------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "analysis/DependenceGraph.h"
#include "ir/ExprOps.h"
#include "observe/Metrics.h"
#include "observe/Tracer.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <sstream>

using namespace parsynt;

const char *parsynt::depClassName(DepClass Class) {
  switch (Class) {
  case DepClass::Constant:
    return "constant";
  case DepClass::IndependentFold:
    return "independent-fold";
  case DepClass::Conditional:
    return "conditional";
  case DepClass::PrefixDependent:
    return "prefix-dependent";
  }
  return "?";
}

namespace {

/// True if \p E contains a conditional expression node.
bool containsIte(const ExprRef &E) {
  bool Found = false;
  forEachNode(E, [&](const ExprRef &Node) { Found |= isa<IteExpr>(Node); });
  return Found;
}

/// True if \p E reads \p Index outside sequence subscripts (s[i] itself does
/// not make a variable position-dependent).
bool readsIndexVar(const ExprRef &E, const std::string &Index) {
  if (const auto *V = dyn_cast<VarExpr>(E))
    return V->name() == Index;
  if (isa<SeqAccessExpr>(E))
    return false;
  for (const ExprRef &Child : children(E)) {
    if (readsIndexVar(Child, Index))
      return true;
  }
  return false;
}

/// If \p Update is the associative fold `self (op) e` or `e (op) self` with
/// \p e free of state variables and index reads, returns the operator.
std::optional<BinaryOp> foldOperator(const Equation &Eq, const ExprRef &Update,
                                     const std::string &Index) {
  const auto *B = dyn_cast<BinaryExpr>(Update);
  if (!B || !isAssociative(B->op()))
    return std::nullopt;
  ExprRef Self = stateVar(Eq.Name, Eq.Ty);
  const ExprRef &Other = B->lhs() == Self   ? B->rhs()
                         : B->rhs() == Self ? B->lhs()
                                            : nullptr;
  if (!Other || !collectVars(Other, VarClass::State).empty() ||
      readsIndexVar(Other, Index))
    return std::nullopt;
  return B->op();
}

/// True if joining a fold over \p Op with initial value \p Init as
/// v_l (op) v_r is exact: idempotent operators tolerate the doubled initial
/// value; + and * require the identity.
bool initCompatible(BinaryOp Op, const ExprRef &Init) {
  switch (Op) {
  case BinaryOp::Min:
  case BinaryOp::Max:
  case BinaryOp::And:
  case BinaryOp::Or:
    return true; // idempotent: the doubled init collapses
  case BinaryOp::Add:
    return Init == intConst(0);
  case BinaryOp::Mul:
    return Init == intConst(1);
  default:
    return false;
  }
}

/// Iterative Tarjan over the dependence edges v -> w (v's update reads w).
/// Because an SCC is completed only after every SCC it depends on, the pop
/// order is already topological (dependencies first).
class TarjanScc {
public:
  TarjanScc(size_t N, const std::vector<std::vector<size_t>> &Adj)
      : Adj(Adj), Index(N, Unvisited), LowLink(N, 0), OnStack(N, false) {
    for (size_t V = 0; V != N; ++V)
      if (Index[V] == Unvisited)
        strongConnect(V);
  }

  /// SCCs as member-index lists, in topological order.
  std::vector<std::vector<size_t>> Components;

private:
  static constexpr unsigned Unvisited = ~0u;

  void strongConnect(size_t Root) {
    // Explicit stack of (node, next-edge) frames to stay recursion-free.
    std::vector<std::pair<size_t, size_t>> Frames{{Root, 0}};
    while (!Frames.empty()) {
      auto &[V, EdgeIdx] = Frames.back();
      if (EdgeIdx == 0) {
        Index[V] = LowLink[V] = Counter++;
        Stack.push_back(V);
        OnStack[V] = true;
      }
      if (EdgeIdx < Adj[V].size()) {
        size_t W = Adj[V][EdgeIdx++];
        if (Index[W] == Unvisited) {
          Frames.emplace_back(W, 0);
        } else if (OnStack[W]) {
          LowLink[V] = std::min(LowLink[V], Index[W]);
        }
        continue;
      }
      if (LowLink[V] == Index[V]) {
        std::vector<size_t> Component;
        size_t W;
        do {
          W = Stack.back();
          Stack.pop_back();
          OnStack[W] = false;
          Component.push_back(W);
        } while (W != V);
        std::sort(Component.begin(), Component.end());
        Components.push_back(std::move(Component));
      }
      size_t Finished = V;
      Frames.pop_back();
      if (!Frames.empty())
        LowLink[Frames.back().first] =
            std::min(LowLink[Frames.back().first], LowLink[Finished]);
    }
  }

  const std::vector<std::vector<size_t>> &Adj;
  std::vector<unsigned> Index, LowLink;
  std::vector<bool> OnStack;
  std::vector<size_t> Stack;
  unsigned Counter = 0;
};

} // namespace

DependenceInfo parsynt::analyzeDependences(const Loop &L) {
  DependenceInfo Info;
  Span DepSpan("analyzeDependences", trace::Analysis);
  DepSpan.attr("loop", L.Name.empty() ? "<loop>" : L.Name);
  struct DepFinisher {
    Span &S;
    const DependenceInfo &I;
    ~DepFinisher() {
      S.attr("vars", uint64_t(I.Vars.size()));
      S.attr("sccs", uint64_t(I.Sccs.size()));
      MetricsRegistry::global().counter("analysis.dependence.runs").inc();
    }
  } Finish{DepSpan, Info};
  size_t N = L.Equations.size();
  Info.Vars.resize(N);

  std::map<std::string, size_t> IndexOf;
  for (size_t I = 0; I != N; ++I)
    IndexOf[L.Equations[I].Name] = I;

  // Direct reads and per-variable facts.
  std::vector<std::vector<size_t>> Adj(N);
  for (size_t I = 0; I != N; ++I) {
    const Equation &Eq = L.Equations[I];
    VarDependence &V = Info.Vars[I];
    V.Name = Eq.Name;
    V.Ty = Eq.Ty;
    for (const std::string &Read : collectVars(Eq.Update, VarClass::State))
      if (IndexOf.count(Read))
        V.Reads.insert(Read);
    V.SelfRecursive = V.Reads.count(Eq.Name) != 0;
    V.ReadsIndex = readsIndexVar(Eq.Update, L.IndexName);
    for (const std::string &Read : V.Reads)
      Adj[I].push_back(IndexOf.at(Read));
  }

  // SCC decomposition in topological order.
  TarjanScc Tarjan(N, Adj);
  for (size_t SccId = 0; SccId != Tarjan.Components.size(); ++SccId) {
    std::vector<std::string> Names;
    for (size_t Member : Tarjan.Components[SccId]) {
      Info.Vars[Member].SccId = static_cast<unsigned>(SccId);
      Names.push_back(Info.Vars[Member].Name);
    }
    Info.Sccs.push_back(std::move(Names));
  }

  // Classification (see the lattice in the header).
  for (size_t I = 0; I != N; ++I) {
    const Equation &Eq = L.Equations[I];
    VarDependence &V = Info.Vars[I];
    bool ReadsOthers = false;
    for (const std::string &Read : V.Reads)
      ReadsOthers |= Read != Eq.Name;

    ExprRef Self = stateVar(Eq.Name, Eq.Ty);
    bool Frozen = Eq.Update == Self;
    bool ReadsNothing = V.Reads.empty() && !V.ReadsIndex &&
                        collectSeqNames(Eq.Update).empty();
    if (Frozen || ReadsNothing) {
      V.Class = DepClass::Constant;
      // The value can only ever be the init (frozen) or the update's
      // constant; the join is the left value exactly when they agree.
      if (Frozen || Eq.Update == Eq.Init)
        V.TrivialJoin = inputVar(splitName(Eq.Name, Side::Left), Eq.Ty);
      continue;
    }
    if (!ReadsOthers && !V.ReadsIndex) {
      if (auto Op = foldOperator(Eq, Eq.Update, L.IndexName)) {
        V.Class = DepClass::IndependentFold;
        if (initCompatible(*Op, Eq.Init))
          V.TrivialJoin =
              binary(*Op, inputVar(splitName(Eq.Name, Side::Left), Eq.Ty),
                     inputVar(splitName(Eq.Name, Side::Right), Eq.Ty));
        continue;
      }
      if (V.Reads.empty() && !containsIte(Eq.Update)) {
        // Per-step overwrite (prev = s[i]): independent of every
        // accumulator, though the join still needs the empty-chunk guard.
        V.Class = DepClass::IndependentFold;
        continue;
      }
    }
    V.Class = containsIte(Eq.Update) ? DepClass::Conditional
                                     : DepClass::PrefixDependent;
  }
  return Info;
}

const VarDependence *DependenceInfo::find(const std::string &Name) const {
  for (const VarDependence &V : Vars)
    if (V.Name == Name)
      return &V;
  return nullptr;
}

unsigned DependenceInfo::count(DepClass Class) const {
  unsigned Total = 0;
  for (const VarDependence &V : Vars)
    Total += V.Class == Class ? 1 : 0;
  return Total;
}

std::string DependenceInfo::table() const {
  std::ostringstream OS;
  OS << "state variable | type | class            | scc | depends on"
     << "          | join\n";
  OS << "---------------+------+------------------+-----+---------------"
     << "------+-----------\n";
  for (const VarDependence &V : Vars) {
    std::string Deps;
    for (const std::string &Read : V.Reads) {
      if (!Deps.empty())
        Deps += ",";
      Deps += Read == V.Name ? "self" : Read;
    }
    if (V.ReadsIndex)
      Deps += Deps.empty() ? "index" : ",index";
    // Printed as "-" when empty; assigning "-" to Deps set off a GCC 12
    // -Wrestrict false positive in a Release build.
    char Line[256];
    std::snprintf(Line, sizeof(Line),
                  "%-14s | %-4s | %-16s | %3u | %-20s | %s\n", V.Name.c_str(),
                  typeName(V.Ty), depClassName(V.Class), V.SccId,
                  Deps.empty() ? "-" : Deps.c_str(),
                  V.TrivialJoin ? exprToString(V.TrivialJoin).c_str()
                                : "synthesized");
    OS << Line;
  }
  return OS.str();
}
