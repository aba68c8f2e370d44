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
  for (const Equation &Eq : L.Equations) {
    forEachNode(Eq.Update, [&](const ExprRef &Node) {
      if (const auto *C = dyn_cast<IntConstExpr>(Node)) {
        if (std::abs(C->value()) > 1000)
          return;
        Pool.insert(C->value());
        Pool.insert(C->value() + 1);
        Pool.insert(C->value() - 1);
      }
    });
  }
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
  const CompiledJoin Joiner(JoinLayout(L), Join);

  // Sample reachable states: (state after a random prefix, its prefix
  // length, parameters used). States must be generated and compared under
  // consistent parameter bindings, so parameters are drawn per sample pair.
  struct Sample {
    StateTuple State;
    size_t PrefixLen;
    Env Params;
  };
  auto drawSample = [&](const Env &Params) {
    size_t Len = static_cast<size_t>(R.intIn(0, MaxPrefixLen));
    SeqEnv Seqs;
    for (const SeqDecl &S : L.Sequences) {
      std::vector<Value> Elems;
      for (size_t I = 0; I != Len; ++I)
        Elems.push_back(Value::ofInt(Pool[R.index(Pool.size())]));
      Seqs[S.Name] = std::move(Elems);
    }
    return Sample{Code.run(Seqs, Params), Len, Params};
  };

  auto drawParams = [&]() {
    Env Params;
    for (const ParamDecl &P : L.Params)
      Params[P.Name] = P.Ty == Type::Int ? Value::ofInt(R.intIn(-3, 3))
                                         : Value::ofBool(R.flip());
    return Params;
  };

  auto fail = [&](const char *Obligation, size_t Component,
                  const std::string &Details) {
    Report.Failure = ProofFailure{Obligation, L.Equations[Component].Name,
                                  Details};
  };

  for (unsigned N = 0; N != StateSamples && !Report.Failure; ++N) {
    Env Params = drawParams();
    Sample U = drawSample(Params);
    Sample V = drawSample(Params);
    StateTuple Init = Code.initialState(Params);

    // Base: join(u, init) == u.
    StateTuple Base = Joiner.apply(U.State, Init, Params);
    ++Report.BaseChecks;
    for (size_t I = 0; I != Base.size(); ++I) {
      if (Base[I] != U.State[I]) {
        fail("base", I,
             "u = {" + stateToString(L, U.State) + "}, join(u, init) gave " +
                 Base[I].str());
        break;
      }
    }
    if (Report.Failure)
      break;

    // Step: join(u, step(v, a)) == step(join(u, v), a). The element index
    // seen by the step is v's own local position (|t'|); the loops in this
    // model read the index only through the materialized position
    // accumulator, so any index value yields the same result — the local
    // one is used for fidelity.
    for (unsigned EIdx = 0; EIdx != ElementsPerPair; ++EIdx) {
      std::vector<Value> Elems;
      for (size_t K = 0; K != L.Sequences.size(); ++K)
        Elems.push_back(Value::ofInt(Pool[R.index(Pool.size())]));
      int64_t Index = static_cast<int64_t>(V.PrefixLen);
      StateTuple Lhs = Joiner.apply(
          U.State, Code.step(V.State, Elems, Index, Params), Params);
      StateTuple JoinedUV = Joiner.apply(U.State, V.State, Params);
      // The joined state stands for the run over x • t'; its step index is
      // |x| + |t'|.
      int64_t JoinedIndex =
          static_cast<int64_t>(U.PrefixLen + V.PrefixLen);
      StateTuple Rhs = Code.step(JoinedUV, Elems, JoinedIndex, Params);
      ++Report.StepChecks;
      for (size_t I = 0; I != Lhs.size(); ++I) {
        if (Lhs[I] != Rhs[I]) {
          std::ostringstream OS;
          OS << "u = {" << stateToString(L, U.State) << "}, v = {"
             << stateToString(L, V.State) << "}, a = ";
          for (size_t K = 0; K != Elems.size(); ++K)
            OS << L.Sequences[K].Name << ":" << Elems[K].str() << " ";
          OS << "-> lhs " << Lhs[I].str() << " vs rhs " << Rhs[I].str();
          fail("step", I, OS.str());
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
  } else {
    OS << "proof FAILED [" << Failure->Obligation << ", "
       << Failure->StateVar << "]: " << Failure->Details;
  }
  return OS.str();
}
