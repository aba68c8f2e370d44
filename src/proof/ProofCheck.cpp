//===- proof/ProofCheck.cpp - Homomorphism proof obligations --------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "proof/ProofCheck.h"
#include "ir/ExprOps.h"
#include "observe/Metrics.h"
#include "observe/Tracer.h"
#include "support/Random.h"

#include <chrono>
#include <set>
#include <sstream>

using namespace parsynt;

namespace {

/// Reachable-state samples for u and v. Short prefixes dominate: the
/// states that refute coincidental joins (near-initial, boundary-valued)
/// live there.
constexpr unsigned StateSamples = 800;
/// Prefix length bound used to generate reachable states.
constexpr unsigned MaxPrefixLen = 10;
/// Elements per (u, v) pair tried in the step obligation.
constexpr unsigned ElementsPerPair = 6;
constexpr uint64_t Seed = 0xBEEF;

/// Element pool mirroring the oracle's: small values plus loop constants.
std::vector<int64_t> elementPool(const Loop &L) {
  std::set<int64_t> Pool = {-2, -1, 0, 1, 2, 3, 7, -11};
  for (int64_t C : updateConstants(L))
    Pool.insert({C - 1, C, C + 1});
  return {Pool.begin(), Pool.end()};
}

} // namespace

ProofReport
parsynt::checkHomomorphismProof(const Loop &L,
                                const std::vector<ExprRef> &Join) {
  auto StartTime = std::chrono::steady_clock::now();
  ProofReport Report;
  Span ProofSpan("checkHomomorphismProof", trace::Proof);
  ProofSpan.attr("loop", L.Name.empty() ? "<loop>" : L.Name);
  struct ProofFinisher {
    Span &S;
    const ProofReport &R;
    ~ProofFinisher() {
      S.attr("verified", R.Verified);
      S.attr("base_checks", R.BaseChecks);
      S.attr("step_checks", R.StepChecks);
      if (R.Failure)
        S.attr("obligation", R.Failure->Obligation);
      MetricsRegistry &M = MetricsRegistry::global();
      M.counter("proof.calls").inc();
      M.counter("proof.base_checks").add(R.BaseChecks);
      M.counter("proof.step_checks").add(R.StepChecks);
      if (!R.Verified)
        M.counter("proof.failures").inc();
      M.histogram("proof.millis").observe(
          static_cast<uint64_t>(R.Seconds * 1e3));
    }
  } Finish{ProofSpan, Report};
  Rng R(Seed);
  std::vector<int64_t> Pool = elementPool(L);
  const CompiledLoop Code(L);
  const JoinLayout Layout(L);
  const CompiledJoin Joiner(Layout, Join);

  // Every sample lives in raw rows (bools as 0/1) and every obligation runs
  // in these register files; values are boxed only to render a witness.
  const size_t N = L.Equations.size(), NumParams = L.Params.size(),
               NumSeqs = L.Sequences.size();
  assert(Join.size() == N && "one join component per state variable");
  CompiledLoop::Registers Regs = Code.makeRegisters();
  std::vector<int64_t> JoinRegs = Joiner.makeRegisters();
  // A sample's row: the parameters, then each sequence's prefix. The step
  // row is the same parameters and one element per sequence.
  std::vector<int64_t> Row(NumParams + NumSeqs * MaxPrefixLen),
      StepRow(NumParams + NumSeqs), States((MaxPrefixLen + 1) * N),
      JoinRow(Layout.width());

  // Reachable-state samples: the state after a random prefix, the prefix
  // in the row's chunk layout, and its length. States must be generated and
  // compared under consistent parameter bindings, so parameters are drawn
  // per sample pair (into both rows' leading words).
  struct Sample {
    std::vector<int64_t> State, Prefix;
    size_t PrefixLen = 0;
  };
  auto drawSample = [&](Sample &Out) {
    size_t Len = static_cast<size_t>(R.intIn(0, MaxPrefixLen));
    for (size_t K = 0; K != NumSeqs; ++K)
      for (size_t I = 0; I != Len; ++I)
        Row[NumParams + K * Len + I] = Pool[R.index(Pool.size())];
    Code.runRaw(Row.data(), Len, States.data(), Regs);
    Out.State.assign(States.begin() + Len * N, States.begin() + (Len + 1) * N);
    Out.Prefix.assign(Row.begin() + NumParams,
                      Row.begin() + NumParams + NumSeqs * Len);
    Out.PrefixLen = Len;
  };
  auto drawParams = [&]() {
    for (size_t P = 0; P != NumParams; ++P)
      Row[P] = StepRow[P] =
          L.Params[P].Ty == Type::Int ? R.intIn(-3, 3) : R.flip();
  };
  // join(Left, Right) under the drawn parameters, into \p Out.
  auto join = [&](const int64_t *Left, const int64_t *Right, int64_t *Out) {
    Layout.writeRow(Left, Right, Row.data(), JoinRow.data());
    Joiner.eval(JoinRow.data(), JoinRegs.data());
    for (size_t I = 0; I != N; ++I)
      Out[I] = Joiner.value(JoinRegs.data(), I);
  };
  // A join component equals a state value when both its type and its
  // payload do.
  auto differs = [&](size_t I, int64_t Joined, int64_t Stepped) {
    return Join[I]->type() != L.Equations[I].Ty || Joined != Stepped;
  };
  auto joinedStr = [&](size_t I, int64_t Raw) {
    return Value::ofRaw(Join[I]->type(), Raw).str();
  };
  auto stateStr = [&](const std::vector<int64_t> &State) {
    return stateToString(L, rawToState(L, State.data()));
  };
  // Fails the obligation with the split (U's prefix, Right).
  auto fail = [&](const char *Obligation, size_t Component,
                  const std::string &Details, const Sample &U,
                  std::vector<int64_t> Right, size_t RightLen) {
    ProofSplit Split{{Row.begin(), Row.begin() + NumParams}, U.Prefix,
                     std::move(Right), U.PrefixLen, RightLen};
    Report.Failure = ProofFailure{Obligation, L.Equations[Component].Name,
                                  Details, std::move(Split)};
  };
  // The chunks of x • y, for x and y in chunk layout.
  auto concat = [&](const std::vector<int64_t> &X, size_t XLen,
                    const int64_t *Y, size_t YLen) {
    std::vector<int64_t> Out;
    for (size_t K = 0; K != NumSeqs; ++K) {
      Out.insert(Out.end(), X.begin() + K * XLen, X.begin() + (K + 1) * XLen);
      Out.insert(Out.end(), Y + K * YLen, Y + (K + 1) * YLen);
    }
    return Out;
  };
  // fE of \p Chunks, Len elements per sequence, under the drawn parameters.
  auto run = [&](const std::vector<int64_t> &Chunks, size_t Len) {
    std::vector<int64_t> Whole(Row.begin(), Row.begin() + NumParams);
    Whole.insert(Whole.end(), Chunks.begin(), Chunks.end());
    std::vector<int64_t> Out((Len + 1) * N);
    Code.runRaw(Whole.data(), Len, Out.data(), Regs);
    return std::vector<int64_t>(Out.end() - N, Out.end());
  };

  Sample U, V;
  std::vector<int64_t> Init(N), Base(N), StepV(N), Lhs(N), JoinedUV(N),
      Rhs(N);
  for (unsigned Sampled = 0; Sampled != StateSamples && !Report.Failure;
       ++Sampled) {
    drawParams();
    drawSample(U);
    drawSample(V);
    Code.initRaw(Row.data(), Init.data(), Regs);

    // Base: join(u, init) == u.
    join(U.State.data(), Init.data(), Base.data());
    ++Report.BaseChecks;
    for (size_t I = 0; I != N; ++I) {
      if (differs(I, Base[I], U.State[I])) {
        fail("base", I,
             "u = {" + stateStr(U.State) + "}, join(u, init) gave " +
                 joinedStr(I, Base[I]),
             U, {}, 0);
        break;
      }
    }
    if (Report.Failure)
      break;

    // Step: join(u, step(v, a)) == step(join(u, v), a). The element index
    // seen by the step is v's own local position (|t'|); the loops in this
    // model read the index only through the materialized position
    // accumulator, so any index value yields the same result — the local
    // one is used for fidelity. The joined state stands for the run over
    // x • t'; its step index is |x| + |t'|.
    join(U.State.data(), V.State.data(), JoinedUV.data());
    const int64_t Index = static_cast<int64_t>(V.PrefixLen);
    const int64_t JoinedIndex =
        static_cast<int64_t>(U.PrefixLen + V.PrefixLen);
    for (unsigned EIdx = 0; EIdx != ElementsPerPair; ++EIdx) {
      for (size_t K = 0; K != NumSeqs; ++K)
        StepRow[NumParams + K] = Pool[R.index(Pool.size())];
      Code.stepRaw(V.State.data(), StepRow.data(), Index, StepV.data(), Regs);
      join(U.State.data(), StepV.data(), Lhs.data());
      Code.stepRaw(JoinedUV.data(), StepRow.data(), JoinedIndex, Rhs.data(),
                   Regs);
      ++Report.StepChecks;
      for (size_t I = 0; I != N; ++I) {
        if (differs(I, Lhs[I], Rhs[I])) {
          std::ostringstream OS;
          OS << "u = {" << stateStr(U.State) << "}, v = {"
             << stateStr(V.State) << "}, a = ";
          for (size_t K = 0; K != NumSeqs; ++K)
            OS << L.Sequences[K].Name << ":" << StepRow[NumParams + K] << " ";
          OS << "-> lhs " << joinedStr(I, Lhs[I]) << " vs rhs "
             << Value::ofRaw(L.Equations[I].Ty, Rhs[I]).str();
          // lhs is join(fE(x), fE(t' • a)): if it is fE(x • t' • a), the
          // join is wrong on (x, t') instead.
          const size_t TLen = V.PrefixLen + 1;
          std::vector<int64_t> TA = concat(V.Prefix, V.PrefixLen,
                                           StepRow.data() + NumParams, 1);
          if (run(concat(U.Prefix, U.PrefixLen, TA.data(), TLen),
                  U.PrefixLen + TLen) != Lhs)
            fail("step", I, OS.str(), U, std::move(TA), TLen);
          else
            fail("step", I, OS.str(), U, V.Prefix, V.PrefixLen);
          break;
        }
      }
      if (Report.Failure)
        break;
    }
  }

  Report.Verified = !Report.Failure.has_value();
  Report.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    StartTime)
          .count();
  return Report;
}

std::string ProofReport::str() const {
  std::ostringstream OS;
  if (Verified) {
    OS << "proof obligations verified (" << BaseChecks << " base + "
       << StepChecks << " step checks, " << Seconds << "s)";
  } else if (!Failure) {
    OS << "proof not checked";
  } else {
    OS << "proof FAILED [" << Failure->Obligation << ", "
       << Failure->StateVar << "]: " << Failure->Details;
  }
  return OS.str();
}
