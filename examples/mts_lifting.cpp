//===- examples/mts_lifting.cpp - The Section-2 mts walkthrough -----------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The paper's flagship example: maximum tail sum has *no* join in its
// original form (Section 2 exhibits the counterexample pair); the loop must
// first be lifted with the auxiliary running sum. This example walks every
// stage explicitly: failed synthesis, the counterexample, Algorithm-1
// lifting, successful synthesis on the lifted loop, proof artifact.
//
//===----------------------------------------------------------------------===//

#include "frontend/Convert.h"
#include "lift/Lift.h"
#include "proof/DafnyEmit.h"
#include "proof/ProofCheck.h"
#include "synth/JoinSynth.h"

#include <cstdio>

using namespace parsynt;

int main() {
  const char *Source = "mts = 0;\n"
                       "for (i = 0; i < |s|; i++) {\n"
                       "  mts = max(mts + s[i], 0);\n"
                       "}\n";
  DiagnosticEngine Diags;
  auto L = parseLoop(Source, "mts", Diags);
  if (!L)
    return 1;

  // The paper's Section-2 counterexample, replayed concretely:
  // mts([1,3]) == mts for both suffix pairs, yet the concatenations differ.
  auto mtsOf = [&](std::vector<int64_t> Elems) {
    SeqEnv Seqs;
    std::vector<Value> Values;
    for (int64_t V : Elems)
      Values.push_back(Value::ofInt(V));
    Seqs["s"] = std::move(Values);
    return runLoop(*L, Seqs)[0].asInt();
  };
  std::printf("mts([1,3]) = %lld, mts([-2,5]) = %lld, mts([0,5]) = %lld\n",
              (long long)mtsOf({1, 3}), (long long)mtsOf({-2, 5}),
              (long long)mtsOf({0, 5}));
  std::printf("mts([1,3,-2,5]) = %lld but mts([1,3,0,5]) = %lld\n",
              (long long)mtsOf({1, 3, -2, 5}), (long long)mtsOf({1, 3, 0, 5}));
  std::printf("-> no function of (4, 5) can produce both 7 and 9: "
              "no join exists.\n\n");

  // 1. Join synthesis on the original loop fails, as it must.
  JoinResult Direct = synthesizeJoin(*L);
  std::printf("direct synthesis: %s\n",
              Direct.Success ? "succeeded (unexpected!)"
                             : Direct.Failure.str().c_str());

  // 2. Algorithm 1 discovers the auxiliary accumulator (the running sum).
  LiftResult Lift = liftLoop(*L);
  std::printf("\n== lifted loop ==\n%s", Lift.Lifted.str().c_str());
  for (const AuxAccumulator &Aux : Lift.Auxiliaries)
    std::printf("discovered %s from collected expression %s\n",
                Aux.Name.c_str(), exprToString(Aux.Definition).c_str());

  // 3. Join synthesis on the lifted loop succeeds.
  JoinResult Join = synthesizeJoin(Lift.Lifted);
  if (!Join.Success) {
    std::fprintf(stderr, "join synthesis failed: %s\n",
                 Join.Failure.str().c_str());
    return 1;
  }
  std::printf("\n== join for the lifted loop ==\n%s",
              joinToString(Lift.Lifted, Join.Components).c_str());

  // 4. Proof: the internal induction checker's report, from the CEGIS
  //    round that accepted the join, plus the Dafny artifact.
  std::printf("\n%s\n", Join.Proof.str().c_str());
  std::printf("\n== Figure-7 Dafny artifact ==\n%s",
              emitDafnyProof(Lift.Lifted, Join.Components).c_str());
  return Join.Proof.Verified ? 0 : 1;
}
