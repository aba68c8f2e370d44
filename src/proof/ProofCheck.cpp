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

#include <algorithm>
#include <chrono>
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
/// The samples of each chunk evaluated in lanes, in order; the last width
/// repeats until every sample is drawn. The first chunks are short, so a
/// join refuted by its first samples, as most wrong joins are, evaluates
/// few past its failure; the wide ones spread each program run's dispatch
/// over many samples.
constexpr size_t ChunkWidths[] = {1, 3, 12, 48, 64};

/// Element pool mirroring the oracle's: small values plus loop constants.
/// Sorted and deduplicated, as the draws index it.
std::vector<int64_t> elementPool(const Loop &L) {
  std::vector<int64_t> Pool = {-11, -2, -1, 0, 1, 2, 3, 7};
  for (int64_t C : updateConstants(L))
    Pool.insert(Pool.end(), {C - 1, C, C + 1});
  std::sort(Pool.begin(), Pool.end());
  Pool.erase(std::unique(Pool.begin(), Pool.end()), Pool.end());
  return Pool;
}

/// The draws of a chunk of Width samples. Sample S's u and v are prefix
/// rows S and Width + S in CompiledLoop's row layout (its parameters, then
/// each sequence's prefix) with lengths Lengths[S] and Lengths[Width + S];
/// element K of its step element E is Elements[(E * NumSeqs + K) * Width +
/// S].
struct Chunk {
  size_t Width = 0, RowWidth = 0;
  std::vector<int64_t> Rows, Elements;
  std::vector<size_t> Lengths;

  const int64_t *row(size_t R) const { return Rows.data() + R * RowWidth; }
};

} // namespace

ProofReport
parsynt::checkHomomorphismProof(const Loop &L,
                                const std::vector<ExprRef> &Join) {
  auto StartTime = std::chrono::steady_clock::now();
  ProofReport Report;
  Span ProofSpan("checkHomomorphismProof", trace::Proof);
  ProofSpan.attr("loop", L.Name.empty() ? "<loop>" : L.Name);
  uint64_t Lanes = 0;
  struct ProofFinisher {
    Span &S;
    const ProofReport &R;
    const uint64_t &Lanes;
    ~ProofFinisher() {
      S.attr("verified", R.Verified);
      S.attr("base_checks", R.BaseChecks);
      S.attr("step_checks", R.StepChecks);
      S.attr("lanes", Lanes);
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
  } Finish{ProofSpan, Report, Lanes};
  Rng R(Seed);
  std::vector<int64_t> Pool = elementPool(L);
  const CompiledLoop Code(L);
  const JoinLayout Layout(L);
  const CompiledJoin Joiner(Layout, Join);

  // Every sample lives in raw rows (bools as 0/1); values are boxed only to
  // render a witness.
  const size_t N = L.Equations.size(), NumParams = L.Params.size(),
               NumSeqs = L.Sequences.size();
  assert(Join.size() == N && "one join component per state variable");
  // A join component equals a state value when both its type and its
  // payload do.
  auto differs = [&](size_t I, int64_t Joined, int64_t Stepped) {
    return Join[I]->type() != L.Equations[I].Ty || Joined != Stepped;
  };

  // Draws a chunk's samples in the sampler's order: per sample, the
  // parameters (shared by u and v: states are generated and compared under
  // one binding), u's prefix length and elements, v's, then the step
  // elements.
  Chunk C;
  C.RowWidth = NumParams + NumSeqs * MaxPrefixLen;
  auto drawChunk = [&](size_t Width) {
    C.Width = Width;
    C.Rows.resize(2 * Width * C.RowWidth);
    C.Lengths.resize(2 * Width);
    C.Elements.resize(ElementsPerPair * NumSeqs * Width);
    for (size_t S = 0; S != Width; ++S) {
      int64_t *U = C.Rows.data() + S * C.RowWidth,
              *V = C.Rows.data() + (Width + S) * C.RowWidth;
      for (size_t P = 0; P != NumParams; ++P)
        U[P] = V[P] = L.Params[P].Ty == Type::Int ? R.intIn(-3, 3) : R.flip();
      for (size_t Row : {S, Width + S}) {
        int64_t *Prefix = C.Rows.data() + Row * C.RowWidth + NumParams;
        size_t Len = static_cast<size_t>(R.intIn(0, MaxPrefixLen));
        C.Lengths[Row] = Len;
        for (size_t K = 0; K != NumSeqs; ++K)
          for (size_t I = 0; I != Len; ++I)
            Prefix[K * Len + I] = Pool[R.index(Pool.size())];
      }
      for (size_t E = 0; E != ElementsPerPair; ++E)
        for (size_t K = 0; K != NumSeqs; ++K)
          C.Elements[(E * NumSeqs + K) * Width + S] =
              Pool[R.index(Pool.size())];
    }
  };

  // The chunk's first failure in sample order, with the values that render
  // it. Obligation 0 is the base, 1 + E the step with element E.
  struct Witness {
    size_t Sample = 0, Component = 0;
    unsigned Obligation = 0;
    std::vector<int64_t> U, V, Lhs, Rhs;
  } Wit;

  // Evaluates a chunk's obligations in lanes, in the sampler's order, until
  // the first failure in sample order is known; returns its sample, or the
  // chunk's width if every obligation holds. The loop's lanes are u
  // (0..Width) and v (Width..2 Width) for the prefix runs, then join(u, v)
  // and v for the steps: lane S steps join(u, v) at index |x| + |t'|, lane
  // Width + S steps v at its own local position |t'| (the loops in this
  // model read the index only through the materialized position
  // accumulator, so any index yields the same result; the local one is
  // used for fidelity). The join's lanes are the samples, u on the left.
  CompiledLoop::LaneRegisters Steps;
  LaneFile Joins;
  auto evaluateChunk = [&]() {
    const size_t W = C.Width;
    if (Joins.Lanes != W) {
      Steps = Code.makeLaneRegisters(2 * W);
      Joins = Joiner.makeLaneFile(W);
    }
    auto joined = [&](size_t I) { return Joiner.valueLanes(Joins, I); };
    auto left = [&](size_t I) {
      return Joins.row(Layout.stateSlot(I, Side::Left));
    };
    // The lowest sample that failed so far: only the samples below it can
    // still fail first. A component that differs below it moves it down;
    // the first component to do so on a sample is the one the sample fails
    // on, as every earlier one was checked on it.
    size_t Lowest = W;
    // Checks the joined rows against the \p Expected rows; true once the
    // first sample has failed, when no later obligation can matter.
    auto check = [&](unsigned Obligation, auto Expected) {
      for (size_t I = 0; I != N; ++I) {
        const int64_t *Lhs = joined(I), *Rhs = Expected(I);
        size_t S = 0;
        while (S != Lowest && !differs(I, Lhs[S], Rhs[S]))
          ++S;
        if (S == Lowest)
          continue;
        Lowest = S;
        Wit.Sample = S;
        Wit.Component = I;
        Wit.Obligation = Obligation;
        for (std::vector<int64_t> *Values :
             {&Wit.U, &Wit.V, &Wit.Lhs, &Wit.Rhs})
          Values->resize(N);
        for (size_t J = 0; J != N; ++J) {
          Wit.U[J] = left(J)[S];
          Wit.V[J] = Code.stateLanes(Steps, J)[W + S];
          Wit.Lhs[J] = joined(J)[S];
          Wit.Rhs[J] = Expected(J)[S];
        }
      }
      return Lowest == 0;
    };
    // The initial states, for the base obligation's right side.
    for (size_t P = 0; P != NumParams; ++P) {
      int64_t *Params = Code.paramLanes(Steps, P);
      for (size_t J = 0; J != 2 * W; ++J)
        Params[J] = C.row(J)[P];
      std::copy_n(Params, W, Joins.row(Layout.paramSlot(P)));
    }
    Code.initLanes(Steps);
    for (size_t I = 0; I != N; ++I)
      std::copy_n(Code.stateLanes(Steps, I), W,
                  Joins.row(Layout.stateSlot(I, Side::Right)));
    Code.runLanes(C.Rows.data(), C.RowWidth, C.Lengths.data(), Steps);
    // Base: join(u, init) == u.
    for (size_t I = 0; I != N; ++I)
      std::copy_n(Code.stateLanes(Steps, I), W, left(I));
    Joiner.evalLanes(Joins);
    if (check(0, left))
      return Lowest;
    // join(u, v), the right side's state.
    for (size_t I = 0; I != N; ++I)
      std::copy_n(Code.stateLanes(Steps, I) + W, W,
                  Joins.row(Layout.stateSlot(I, Side::Right)));
    Joiner.evalLanes(Joins);
    for (size_t I = 0; I != N; ++I)
      std::copy_n(joined(I), W, Code.stateLanes(Steps, I));
    int64_t *Index = Code.indexLanes(Steps);
    for (size_t S = 0; S != W; ++S) {
      Index[S] = static_cast<int64_t>(C.Lengths[S] + C.Lengths[W + S]);
      Index[W + S] = static_cast<int64_t>(C.Lengths[W + S]);
    }
    // Step: join(u, step(v, a)) == step(join(u, v), a).
    auto stepped = [&](size_t I) { return Code.nextLanes(Steps, I); };
    for (unsigned E = 0; E != ElementsPerPair; ++E) {
      for (size_t K = 0; K != NumSeqs; ++K) {
        const int64_t *A = C.Elements.data() + (E * NumSeqs + K) * W;
        int64_t *Elements = Code.elementLanes(Steps, K);
        std::copy_n(A, W, Elements);
        std::copy_n(A, W, Elements + W);
      }
      Code.stepLanes(Steps);
      for (size_t I = 0; I != N; ++I)
        std::copy_n(stepped(I) + W, W,
                    Joins.row(Layout.stateSlot(I, Side::Right)));
      Joiner.evalLanes(Joins);
      if (check(E + 1, stepped))
        break;
    }
    return Lowest;
  };

  // Renders the witness of a failed obligation as the report's failure.
  auto stateStr = [&](const std::vector<int64_t> &State) {
    return stateToString(L, rawToState(L, State.data()));
  };
  auto render = [&]() {
    const size_t S = Wit.Sample, I = Wit.Component;
    const int64_t *Params = C.row(S), *X = Params + NumParams,
                  *T = C.row(C.Width + S) + NumParams;
    const size_t XLen = C.Lengths[S], TLen = C.Lengths[C.Width + S];
    const std::string Joined =
        Value::ofRaw(Join[I]->type(), Wit.Lhs[I]).str();
    // Fails the obligation with the split (x, Right).
    auto fail = [&](const char *Obligation, const std::string &Details,
                    std::vector<int64_t> Right, size_t RightLen) {
      ProofSplit Split{{Params, Params + NumParams},
                       {X, X + NumSeqs * XLen},
                       std::move(Right),
                       XLen,
                       RightLen};
      Report.Failure = ProofFailure{Obligation, L.Equations[I].Name, Details,
                                    std::move(Split)};
    };
    if (Wit.Obligation == 0) {
      fail("base",
           "u = {" + stateStr(Wit.U) + "}, join(u, init) gave " + Joined, {},
           0);
      return;
    }
    const unsigned E = Wit.Obligation - 1;
    std::vector<int64_t> A(NumSeqs);
    for (size_t K = 0; K != NumSeqs; ++K)
      A[K] = C.Elements[(E * NumSeqs + K) * C.Width + S];
    std::ostringstream OS;
    OS << "u = {" << stateStr(Wit.U) << "}, v = {" << stateStr(Wit.V)
       << "}, a = ";
    for (size_t K = 0; K != NumSeqs; ++K)
      OS << L.Sequences[K].Name << ":" << A[K] << " ";
    OS << "-> lhs " << Joined << " vs rhs "
       << Value::ofRaw(L.Equations[I].Ty, Wit.Rhs[I]).str();
    // The chunks of t' • a, and of x • t' • a, in chunk layout.
    std::vector<int64_t> TA, Whole(Params, Params + NumParams);
    for (size_t K = 0; K != NumSeqs; ++K) {
      TA.insert(TA.end(), T + K * TLen, T + (K + 1) * TLen);
      TA.push_back(A[K]);
      Whole.insert(Whole.end(), X + K * XLen, X + (K + 1) * XLen);
      Whole.insert(Whole.end(), TA.end() - TLen - 1, TA.end());
    }
    // lhs is join(fE(x), fE(t' • a)): if it is fE(x • t' • a), the join is
    // wrong on (x, t') instead.
    const size_t WholeLen = XLen + TLen + 1;
    std::vector<int64_t> States((WholeLen + 1) * N);
    CompiledLoop::Registers Regs = Code.makeRegisters();
    Code.runRaw(Whole.data(), WholeLen, States.data(), Regs);
    if (!std::equal(Wit.Lhs.begin(), Wit.Lhs.end(), States.end() - N))
      fail("step", OS.str(), std::move(TA), TLen + 1);
    else
      fail("step", OS.str(), {T, T + NumSeqs * TLen}, TLen);
  };

  for (size_t Chunks = 0, Drawn = 0; Drawn != StateSamples && !Report.Failure;
       ++Chunks) {
    const size_t Width =
        std::min(ChunkWidths[std::min(Chunks, std::size(ChunkWidths) - 1)],
                 StateSamples - Drawn);
    drawChunk(Width);
    const size_t Passed = evaluateChunk();
    Lanes += Width;
    Drawn += Width;
    Report.BaseChecks += Passed;
    Report.StepChecks += ElementsPerPair * Passed;
    if (Passed != Width) {
      // The failing sample's own checks, up to its failed one.
      ++Report.BaseChecks;
      Report.StepChecks += Wit.Obligation;
      render();
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
