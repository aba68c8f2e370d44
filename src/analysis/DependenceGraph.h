//===- analysis/DependenceGraph.h - State-variable dependences --*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The state-variable dependence structure of a recurrence-equation system,
/// in the spirit of the modular follow-up work (Farzan & Nicolet, "Modular
/// Synthesis of Divide-and-Conquer Parallelism for Nested Loops"): variable
/// v depends on w when v's update reads w. Strongly connected components of
/// this graph (Tarjan), in topological order, are reported by `parsynt
/// --analyze`.
///
/// Each variable is additionally classified on a small lattice, whose
/// trivially-homomorphic folds seed the pipeline's join searches:
///
///   Constant        < IndependentFold < Conditional < PrefixDependent
///
///  - Constant: the update never changes the value (v = v), or reads no
///    state, sequence, or index at all — the variable is a per-run constant
///    and its join is the left value.
///  - IndependentFold: the update depends on no *other* accumulator — a
///    scalar fold v = f(v, s[i], params) or a per-step overwrite v = g(s[i]).
///    When the fold is associative with a compatible initial value
///    (sum = sum + s[i], m = min(m, s[i]), p = p * x with p0 = 1), the join
///    is known in advance — v_l (op) v_r — and join *search* can be skipped
///    entirely (TrivialJoin below).
///  - Conditional: the update contains a conditional expression — a branch
///    of the original body survives into the recurrence, so the join must
///    reconcile data-dependent control (balanced parentheses, dropwhile).
///  - PrefixDependent: the update reads other accumulators (mps reads sum),
///    or is a non-associative self-recurrence whose value depends on where
///    the prefix ends (mts = max(mts + s[i], 0)); full synthesis — possibly
///    after lifting — is required.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_ANALYSIS_DEPENDENCEGRAPH_H
#define PARSYNT_ANALYSIS_DEPENDENCEGRAPH_H

#include "ir/Loop.h"

#include <set>
#include <string>
#include <vector>

namespace parsynt {

/// Join-relevant classification of a state variable (see file comment).
enum class DepClass { Constant, IndependentFold, Conditional, PrefixDependent };

/// "constant", "independent-fold", "conditional", "prefix-dependent".
const char *depClassName(DepClass Class);

/// Per-variable dependence facts, in equation order.
struct VarDependence {
  std::string Name;
  Type Ty = Type::Int;
  DepClass Class = DepClass::PrefixDependent;
  /// State variables read by the update (self included when read).
  std::set<std::string> Reads;
  /// 0-based id of the variable's SCC in topological order.
  unsigned SccId = 0;
  bool SelfRecursive = false; ///< the update reads the variable itself
  bool ReadsIndex = false;    ///< the update reads the loop index
  /// For trivially-homomorphic folds: the ready-made join component over
  /// "<name>_l"/"<name>_r". Null when the join must be synthesized.
  ExprRef TrivialJoin;
};

/// The dependence graph of a loop: per-variable facts plus the SCC
/// decomposition in topological order (dependencies before dependents).
struct DependenceInfo {
  std::vector<VarDependence> Vars; ///< equation order
  /// SCCs in topological order; each lists member names in equation order.
  std::vector<std::vector<std::string>> Sccs;

  const VarDependence *find(const std::string &Name) const;
  /// Number of variables classified \p Class.
  unsigned count(DepClass Class) const;
  /// The classification table printed by `parsynt --analyze`.
  std::string table() const;
};

/// Builds the dependence graph and classification for \p L.
DependenceInfo analyzeDependences(const Loop &L);

} // namespace parsynt

#endif // PARSYNT_ANALYSIS_DEPENDENCEGRAPH_H
