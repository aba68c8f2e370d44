//===- examples/quickstart.cpp - Five-minute tour -------------------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Quickstart: parse a sequential loop, synthesize its divide-and-conquer
// join (accepted only once its homomorphism proof obligations hold), and
// run it in parallel.
//
//===----------------------------------------------------------------------===//

#include "frontend/Convert.h"
#include "pipeline/Parallelizer.h"
#include "runtime/InterpReduce.h"

#include <cstdio>

using namespace parsynt;

int main() {
  // 1. A sequential loop in the Figure-3 input language: the second
  //    smallest element (the paper's Section-2 example).
  const char *Source = "m = MAX_INT;\n"
                       "m2 = MAX_INT;\n"
                       "for (i = 0; i < |s|; i++) {\n"
                       "  m2 = min(m2, max(m, s[i]));\n"
                       "  m = min(m, s[i]);\n"
                       "}\n";

  DiagnosticEngine Diags;
  auto L = parseLoop(Source, "2nd-min", Diags);
  if (!L) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  std::printf("== recurrence-equation model ==\n%s\n", L->str().c_str());

  // 2. Synthesize the join (this loop is a homomorphism as-is, so no
  //    lifting is needed).
  PipelineResult Result = parallelizeLoop(*L);
  if (!Result.Success) {
    std::fprintf(stderr, "synthesis failed: %s\n", Result.Failure.str().c_str());
    return 1;
  }
  std::printf("== synthesized join ==\n%s\n",
              joinToString(Result.Final, Result.Join.Components).c_str());

  // 3. The Section-7 proof obligations, checked by the join search before
  //    it accepted the join.
  std::printf("%s\n\n", Result.Join.Proof.str().c_str());

  // 4. Run the parallelized loop on real data.
  SeqEnv Seqs;
  std::vector<Value> Data;
  for (int I = 0; I != 100000; ++I)
    Data.push_back(Value::ofInt((I * 7919) % 10007 - 5000));
  Seqs["s"] = std::move(Data);

  TaskPool Pool(defaultThreadCount());
  StateTuple Par =
      parallelRunLoop(Result.Final, Result.Join.Components, Seqs, Pool,
                      /*Grain=*/4096);
  StateTuple Seq = runLoop(Result.Final, Seqs);
  std::printf("parallel result:   %s\n",
              stateToString(Result.Final, Par).c_str());
  std::printf("sequential result: %s\n",
              stateToString(Result.Final, Seq).c_str());
  return Par == Seq ? 0 : 1;
}
