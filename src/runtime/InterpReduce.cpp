//===- runtime/InterpReduce.cpp - Run synthesized joins on data -----------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "runtime/InterpReduce.h"

using namespace parsynt;

StateTuple parsynt::parallelRunLoop(const Loop &L,
                                    const std::vector<ExprRef> &Join,
                                    const SeqEnv &Seqs, TaskPool &Pool,
                                    size_t Grain, const Env &Params) {
  assert(!L.Sequences.empty() && "loop must read a sequence");
  // An empty join is the pipeline's sequential-fallback signal (synthesis
  // failed or timed out): run the loop single-threaded rather than crash
  // on a join-arity mismatch.
  if (Join.empty())
    return runLoop(L, Seqs, Params);
  size_t Length = Seqs.at(L.Sequences.front().Name).size();
  const CompiledLoop Code(L);
  StateTuple Init = Code.initialState(Params);
  if (Length == 0)
    return Init;

  const CompiledJoin Joiner(JoinLayout(L), Join);
  BlockedRange Range{0, Length, std::max<size_t>(Grain, 1)};
  return parallelReduce<StateTuple>(
      Range, Pool,
      [&](size_t Begin, size_t End) {
        return Code.run(Init, Seqs, static_cast<int64_t>(Begin),
                        static_cast<int64_t>(End), Params);
      },
      [&](const StateTuple &Left, const StateTuple &Right) {
        return Joiner.apply(Left, Right, Params);
      });
}
