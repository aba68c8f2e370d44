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
/// argument of the paper's Figure-7 lemmas. The companion DafnyEmit module
/// produces the machine-checkable artifact for an external Dafny verifier.
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

/// A failed obligation, with the witnessing values.
struct ProofFailure {
  std::string Obligation; ///< "base" or "step"
  std::string StateVar;   ///< component that differed
  std::string Details;    ///< rendered witness
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
