//===- synth/HomOracle.h - Bounded homomorphism oracle ----------*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bounded correctness specification of paper Section 4.2: a join ⊙ is
/// accepted when fE(x • y) == fE(x) ⊙ fE(y) on all test sequences x, y of
/// bounded length. Where the paper discharges this with a solver over
/// symbolic bounded inputs, we evaluate it over an exhaustive small-domain
/// enumeration plus randomized draws. The oracle does not validate joins
/// itself: each CEGIS round checks its assembled join with the Section-7
/// proof machinery (proof/ProofCheck.h), and the split behind a failed
/// obligation comes back here as a new test (addCounterexample).
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_SYNTH_HOMORACLE_H
#define PARSYNT_SYNTH_HOMORACLE_H

#include "interp/Interp.h"
#include "ir/Loop.h"
#include "proof/ProofCheck.h"
#include "support/Deadline.h"
#include "support/Random.h"

#include <optional>
#include <vector>

namespace parsynt {

/// One point of the bounded homomorphism specification.
struct JoinExample {
  StateTuple Left;     ///< fE(x)
  StateTuple Right;    ///< fE(y)
  StateTuple Expected; ///< fE(x • y)
  Env Params;          ///< shared parameter bindings
  /// The witnessing sequences, kept for diagnostics and counterexample
  /// reporting (name -> contents; x and y per sequence).
  SeqEnv LeftSeqs, RightSeqs;
};

/// Two tests whose join rows are equal (the same fE(x), fE(y) and
/// parameters) but whose fE(x • y) differ in state variable Equation: every
/// join maps both to one value, so no join passes both tests.
struct JoinWitness {
  size_t First = 0, Second = 0;
  size_t Equation = 0;
};

/// Builds and extends the test set, and verifies candidate joins.
class HomOracle {
public:
  /// Builds the initial test set of \p L. \p Timeout is cooperative
  /// cancellation: test-set construction stops early when it expires (fewer
  /// tests is sound: the bounded spec just gets weaker and the proof still
  /// decides).
  HomOracle(const Loop &L, Deadline Timeout = {});

  const Loop &loop() const { return L; }
  const std::vector<JoinExample> &tests() const { return Tests; }

  /// The element values sequences are drawn from: small integers plus every
  /// constant appearing in the loop (and off-by-one neighbours), so that
  /// character-comparison benchmarks exercise both branches.
  const std::vector<int64_t> &elementPool() const { return Pool; }

  /// The split-state layout of the test rows (interp/Interp.h).
  const JoinLayout &layout() const { return Layout; }
  /// The row of test \p T in layout(), kept in step with tests().
  const int64_t *testRow(size_t T) const {
    return Rows.data() + T * Layout.width();
  }
  /// The raw values of join-side expression \p E on every test, in order.
  std::vector<int64_t> column(const ExprRef &E) const;

  /// Evaluates component \p EquationIndex of candidate \p Join on every
  /// test; returns the index of the first failing test, or nullopt.
  std::optional<size_t> firstFailure(const ExprRef &JoinComponent,
                                     size_t EquationIndex) const;

  /// A pair of tests no join can pass, or nullopt: the first conflict in
  /// the order of the sorted join rows.
  std::optional<JoinWitness> witness() const;

  /// Evaluates the split of a failed proof obligation and appends it to
  /// the test set; returns the new test.
  const JoinExample &addCounterexample(const ProofSplit &Split);

private:
  /// One example in raw form, and the buffers that evaluate it; made once
  /// per public call and reused for every example it draws.
  struct RawExample;
  /// Draws the chunk lengths, parameters and elements of one random example
  /// with chunks of at most \p MaxLen elements from \p From.
  void drawRandom(unsigned MaxLen, const std::vector<int64_t> &From,
                  RawExample &Ex);
  /// Runs the loop on \p Ex's chunks: fills its three states and join row.
  void evaluate(RawExample &Ex) const;
  /// The boxed example of an evaluated \p Ex.
  JoinExample box(const RawExample &Ex) const;
  /// Appends the evaluated \p Ex to the test set.
  void keep(const RawExample &Ex);
  void buildInitialTests();

  const Loop &L;
  Deadline Timeout;
  /// The loop, compiled once for every example this oracle builds.
  CompiledLoop Code;
  JoinLayout Layout;
  /// tests() in layout(), one row per test.
  std::vector<int64_t> Rows;
  std::vector<int64_t> Pool;
  /// Loop-comparison constants only (see the constructor): used for the
  /// dense-pattern half of the random tests.
  std::vector<int64_t> Focused;
  std::vector<JoinExample> Tests;
  Rng R;
};

} // namespace parsynt

#endif // PARSYNT_SYNTH_HOMORACLE_H
