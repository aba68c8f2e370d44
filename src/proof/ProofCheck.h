//===- proof/ProofCheck.h - Homomorphism proof obligations ------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section-7 correctness machinery. The paper's Dafny proofs are
/// inductions on the length of the second sequence with exactly two
/// obligations per state variable; this module checks the same two
/// verification conditions by evaluation over sampled reachable states:
///
///   base:  join(u, init)        == u                      (t == [])
///   step:  join(u, step(v, a))  == step(join(u, v), a)    (t == t'+[a])
///
/// where u, v range over states reachable by running the loop on arbitrary
/// prefixes and a over arbitrary elements. Together with fE(x) being the
/// loop's own semantics, these two conditions imply
/// fE(x • y) == fE(x) ⊙ fE(y) for all x, y by induction on |y| — the exact
/// argument of the paper's Figure-7 lemmas. The check is the validator of
/// join synthesis's CEGIS loop (synth/JoinSynth.h): a failed obligation
/// carries a split (x, y) the join gets wrong, which becomes the next
/// round's counterexample. The companion DafnyEmit module produces the
/// machine-checkable artifact for an external Dafny verifier.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_PROOF_PROOFCHECK_H
#define PARSYNT_PROOF_PROOFCHECK_H

#include "interp/Interp.h"
#include "ir/Loop.h"

#include <optional>
#include <string>
#include <vector>

namespace parsynt {

/// A split (x, y) of one input on which the join is wrong: fE(x • y) !=
/// join(fE(x), fE(y)). Raw values (bools as 0/1) in HomOracle's chunk
/// layout: element J of sequence K of x is Left[K * LeftLen + J].
struct ProofSplit {
  std::vector<int64_t> Params; ///< in declaration order
  std::vector<int64_t> Left, Right;
  size_t LeftLen = 0, RightLen = 0;
};

/// A failed obligation, with the witnessing values.
struct ProofFailure {
  std::string Obligation; ///< "base" or "step"
  std::string StateVar;   ///< component that differed
  std::string Details;    ///< rendered witness
  /// The input behind the witness, a homomorphism counterexample. With
  /// u = fE(x): a base failure gives (x, []). A step failure with
  /// v = fE(t') gives (x, t' • a) when the join is wrong there, and else
  /// (x, t'): a join right on both would satisfy the step obligation.
  ProofSplit Split;
};

struct ProofReport {
  bool Verified = false;
  uint64_t BaseChecks = 0;
  uint64_t StepChecks = 0;
  std::optional<ProofFailure> Failure;
  double Seconds = 0;

  std::string str() const;
};

/// Checks the two induction obligations for \p Join (one component per
/// equation of \p L) over sampled reachable states.
ProofReport checkHomomorphismProof(const Loop &L,
                                   const std::vector<ExprRef> &Join);

} // namespace parsynt

#endif // PARSYNT_PROOF_PROOFCHECK_H
