//===- suite/Kernels.cpp - Native divide-and-conquer kernels --------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "suite/Kernels.h"
#include "interp/OpSemantics.h"

#include <algorithm>
#include <random>

using namespace parsynt;

namespace {

constexpr int64_t Sentinel = int64_t(1) << 40; // matches MAX_INT/MIN_INT

//===--------------------------------------------------------------------===//
// sum: V0 = sum
//===--------------------------------------------------------------------===//

KState sumLeaf(const int64_t *A, const int64_t *, size_t B, size_t E) {
  KState S;
  for (size_t I = B; I != E; ++I)
    S.V[0] = ops::Add()(S.V[0], A[I]);
  return S;
}
KState sumSeq(const int64_t *A, const int64_t *B, size_t N) {
  return sumLeaf(A, B, 0, N);
}
KState sumJoin(const KState &L, const KState &R) {
  KState S;
  S.V[0] = ops::Add()(L.V[0], R.V[0]);
  return S;
}
int64_t out0(const KState &S) { return S.V[0]; }

//===--------------------------------------------------------------------===//
// min / max: V0 = extremum
//===--------------------------------------------------------------------===//

KState minLeaf(const int64_t *A, const int64_t *, size_t B, size_t E) {
  KState S;
  S.V[0] = Sentinel;
  for (size_t I = B; I != E; ++I)
    S.V[0] = std::min(S.V[0], A[I]);
  return S;
}
KState minSeq(const int64_t *A, const int64_t *B, size_t N) {
  return minLeaf(A, B, 0, N);
}
KState minJoin(const KState &L, const KState &R) {
  KState S;
  S.V[0] = std::min(L.V[0], R.V[0]);
  return S;
}

KState maxLeaf(const int64_t *A, const int64_t *, size_t B, size_t E) {
  KState S;
  S.V[0] = -Sentinel;
  for (size_t I = B; I != E; ++I)
    S.V[0] = std::max(S.V[0], A[I]);
  return S;
}
KState maxSeq(const int64_t *A, const int64_t *B, size_t N) {
  return maxLeaf(A, B, 0, N);
}
KState maxJoin(const KState &L, const KState &R) {
  KState S;
  S.V[0] = std::max(L.V[0], R.V[0]);
  return S;
}

//===--------------------------------------------------------------------===//
// average: V0 = sum, V1 = count (mean taken after the loop)
//===--------------------------------------------------------------------===//

KState avgLeaf(const int64_t *A, const int64_t *, size_t B, size_t E) {
  KState S;
  for (size_t I = B; I != E; ++I) {
    S.V[0] = ops::Add()(S.V[0], A[I]);
    S.V[1] += 1;
  }
  return S;
}
KState avgSeq(const int64_t *A, const int64_t *B, size_t N) {
  return avgLeaf(A, B, 0, N);
}
KState avgJoin(const KState &L, const KState &R) {
  KState S;
  S.V[0] = ops::Add()(L.V[0], R.V[0]);
  S.V[1] = L.V[1] + R.V[1];
  return S;
}
int64_t avgOut(const KState &S) { return S.V[1] ? S.V[0] / S.V[1] : 0; }

//===--------------------------------------------------------------------===//
// hamming: V0 = distance (two sequences)
//===--------------------------------------------------------------------===//

KState hamLeaf(const int64_t *A, const int64_t *B, size_t Begin, size_t E) {
  KState S;
  for (size_t I = Begin; I != E; ++I)
    S.V[0] += (A[I] != B[I]) ? 1 : 0;
  return S;
}
KState hamSeq(const int64_t *A, const int64_t *B, size_t N) {
  return hamLeaf(A, B, 0, N);
}

//===--------------------------------------------------------------------===//
// length: V0 = length
//===--------------------------------------------------------------------===//

KState lenLeaf(const int64_t *, const int64_t *, size_t B, size_t E) {
  KState S;
  S.V[0] = static_cast<int64_t>(E - B);
  return S;
}
KState lenSeq(const int64_t *A, const int64_t *B, size_t N) {
  return lenLeaf(A, B, 0, N);
}

//===--------------------------------------------------------------------===//
// 2nd-min: V0 = min, V1 = second min
//===--------------------------------------------------------------------===//

KState min2Leaf(const int64_t *A, const int64_t *, size_t B, size_t E) {
  KState S;
  S.V[0] = Sentinel;
  S.V[1] = Sentinel;
  for (size_t I = B; I != E; ++I) {
    S.V[1] = std::min(S.V[1], std::max(S.V[0], A[I]));
    S.V[0] = std::min(S.V[0], A[I]);
  }
  return S;
}
KState min2Seq(const int64_t *A, const int64_t *B, size_t N) {
  return min2Leaf(A, B, 0, N);
}
KState min2Join(const KState &L, const KState &R) {
  KState S;
  S.V[0] = std::min(L.V[0], R.V[0]);
  S.V[1] = std::min(std::min(L.V[1], R.V[1]), std::max(L.V[0], R.V[0]));
  return S;
}
int64_t out1(const KState &S) { return S.V[1]; }

//===--------------------------------------------------------------------===//
// mps: V0 = sum, V1 = max prefix sum
//===--------------------------------------------------------------------===//

KState mpsLeaf(const int64_t *A, const int64_t *, size_t B, size_t E) {
  KState S;
  for (size_t I = B; I != E; ++I) {
    S.V[0] = ops::Add()(S.V[0], A[I]);
    S.V[1] = std::max(S.V[1], S.V[0]);
  }
  return S;
}
KState mpsSeq(const int64_t *A, const int64_t *B, size_t N) {
  return mpsLeaf(A, B, 0, N);
}
KState mpsJoin(const KState &L, const KState &R) {
  KState S;
  S.V[0] = ops::Add()(L.V[0], R.V[0]);
  S.V[1] = std::max(L.V[1], ops::Add()(L.V[0], R.V[1]));
  return S;
}

//===--------------------------------------------------------------------===//
// mts: sequential V0 = mts; lifted adds V1 = sum (the auxiliary)
//===--------------------------------------------------------------------===//

KState mtsSeq(const int64_t *A, const int64_t *, size_t N) {
  KState S;
  for (size_t I = 0; I != N; ++I)
    S.V[0] = std::max(ops::Add()(S.V[0], A[I]), int64_t(0));
  return S;
}
KState mtsLeaf(const int64_t *A, const int64_t *, size_t B, size_t E) {
  KState S;
  for (size_t I = B; I != E; ++I) {
    S.V[0] = std::max(ops::Add()(S.V[0], A[I]), int64_t(0));
    S.V[1] = ops::Add()(S.V[1], A[I]);
  }
  return S;
}
KState mtsJoin(const KState &L, const KState &R) {
  KState S;
  S.V[0] = std::max(R.V[0], ops::Add()(L.V[0], R.V[1]));
  S.V[1] = ops::Add()(L.V[1], R.V[1]);
  return S;
}

//===--------------------------------------------------------------------===//
// mss: sequential V0 = mss, V1 = mts; lifted adds V2 = sum, V3 = mps
//===--------------------------------------------------------------------===//

KState mssSeq(const int64_t *A, const int64_t *, size_t N) {
  KState S;
  for (size_t I = 0; I != N; ++I) {
    S.V[0] = std::max(S.V[0], ops::Add()(S.V[1], A[I]));
    S.V[1] = std::max(ops::Add()(S.V[1], A[I]), int64_t(0));
  }
  return S;
}
KState mssLeaf(const int64_t *A, const int64_t *, size_t B, size_t E) {
  KState S;
  for (size_t I = B; I != E; ++I) {
    S.V[0] = std::max(S.V[0], ops::Add()(S.V[1], A[I]));
    S.V[1] = std::max(ops::Add()(S.V[1], A[I]), int64_t(0));
    S.V[2] = ops::Add()(S.V[2], A[I]);
    S.V[3] = std::max(S.V[3], S.V[2]);
  }
  return S;
}
KState mssJoin(const KState &L, const KState &R) {
  KState S;
  S.V[0] = std::max(std::max(L.V[0], R.V[0]), ops::Add()(L.V[1], R.V[3]));
  S.V[1] = std::max(R.V[1], ops::Add()(L.V[1], R.V[2]));
  S.V[2] = ops::Add()(L.V[2], R.V[2]);
  S.V[3] = std::max(L.V[3], ops::Add()(L.V[2], R.V[3]));
  return S;
}

//===--------------------------------------------------------------------===//
// mts-p: V0 = mts, V1 = sum, V2 = pos (local), V3 = len
//===--------------------------------------------------------------------===//

KState mtspSeq(const int64_t *A, const int64_t *, size_t N) {
  KState S;
  for (size_t I = 0; I != N; ++I) {
    S.V[0] = std::max(ops::Add()(S.V[0], A[I]), int64_t(0));
    S.V[1] = ops::Add()(S.V[1], A[I]);
    if (S.V[0] == 0)
      S.V[2] = static_cast<int64_t>(I) + 1;
  }
  S.V[3] = static_cast<int64_t>(N);
  return S;
}
KState mtspLeaf(const int64_t *A, const int64_t *B, size_t Begin, size_t E) {
  KState S = mtspSeq(A + Begin, B, E - Begin);
  return S;
}
KState mtspJoin(const KState &L, const KState &R) {
  KState S;
  S.V[0] = std::max(R.V[0], ops::Add()(L.V[0], R.V[1]));
  S.V[1] = ops::Add()(L.V[1], R.V[1]);
  // The tail crosses into the left part iff no combined reset happens in
  // the right part, i.e. mts_l + (sum_r - mts_r) > 0 (see DESIGN.md).
  S.V[2] = (ops::Add()(L.V[0], ops::Sub()(R.V[1], R.V[0])) <= 0)
               ? L.V[3] + R.V[2]
               : L.V[2];
  S.V[3] = L.V[3] + R.V[3];
  return S;
}
int64_t out2(const KState &S) { return S.V[2]; }

//===--------------------------------------------------------------------===//
// mps-p: V0 = sum, V1 = mps, V2 = pos (local), V3 = len
//===--------------------------------------------------------------------===//

KState mpspSeq(const int64_t *A, const int64_t *, size_t N) {
  KState S;
  for (size_t I = 0; I != N; ++I) {
    S.V[0] = ops::Add()(S.V[0], A[I]);
    if (S.V[0] > S.V[1]) {
      S.V[1] = S.V[0];
      S.V[2] = static_cast<int64_t>(I) + 1;
    }
  }
  S.V[3] = static_cast<int64_t>(N);
  return S;
}
KState mpspLeaf(const int64_t *A, const int64_t *B, size_t Begin, size_t E) {
  return mpspSeq(A + Begin, B, E - Begin);
}
KState mpspJoin(const KState &L, const KState &R) {
  KState S;
  S.V[0] = ops::Add()(L.V[0], R.V[0]);
  if (ops::Add()(L.V[0], R.V[1]) > L.V[1]) {
    S.V[1] = ops::Add()(L.V[0], R.V[1]);
    S.V[2] = L.V[3] + R.V[2];
  } else {
    S.V[1] = L.V[1];
    S.V[2] = L.V[2];
  }
  S.V[3] = L.V[3] + R.V[3];
  return S;
}

//===--------------------------------------------------------------------===//
// poly: V0 = value, V1 = x^len  (evaluation point fixed below)
//===--------------------------------------------------------------------===//

constexpr int64_t PolyX = 3;

KState polyLeaf(const int64_t *A, const int64_t *, size_t B, size_t E) {
  KState S;
  S.V[1] = 1;
  for (size_t I = B; I != E; ++I) {
    S.V[0] = ops::Add()(S.V[0], ops::Mul()(A[I], S.V[1]));
    S.V[1] = ops::Mul()(S.V[1], PolyX);
  }
  return S;
}
KState polySeq(const int64_t *A, const int64_t *B, size_t N) {
  return polyLeaf(A, B, 0, N);
}
KState polyJoin(const KState &L, const KState &R) {
  KState S;
  S.V[0] = ops::Add()(L.V[0], ops::Mul()(L.V[1], R.V[0]));
  S.V[1] = ops::Mul()(L.V[1], R.V[1]);
  return S;
}

//===--------------------------------------------------------------------===//
// is-sorted: V0 = sorted, V1 = prev(last); lifted adds V2 = first
//===--------------------------------------------------------------------===//

KState sortedSeq(const int64_t *A, const int64_t *, size_t N) {
  KState S;
  S.V[0] = 1;
  S.V[1] = -Sentinel;
  for (size_t I = 0; I != N; ++I) {
    S.V[0] = (S.V[0] && S.V[1] <= A[I]) ? 1 : 0;
    S.V[1] = A[I];
  }
  return S;
}
KState sortedLeaf(const int64_t *A, const int64_t *B, size_t Begin,
                  size_t E) {
  KState S = sortedSeq(A + Begin, B, E - Begin);
  S.V[2] = (E - Begin) ? A[Begin] : Sentinel; // first element (aux)
  return S;
}
KState sortedJoin(const KState &L, const KState &R) {
  KState S;
  bool RightEmpty = R.V[1] == -Sentinel;
  S.V[0] = (L.V[0] && R.V[0] && (RightEmpty || L.V[1] <= R.V[2])) ? 1 : 0;
  S.V[1] = RightEmpty ? L.V[1] : R.V[1];
  S.V[2] = (L.V[2] == Sentinel) ? R.V[2] : L.V[2];
  return S;
}

//===--------------------------------------------------------------------===//
// atoi: V0 = value; lifted adds V1 = 10^len
//===--------------------------------------------------------------------===//

KState atoiSeq(const int64_t *A, const int64_t *, size_t N) {
  KState S;
  for (size_t I = 0; I != N; ++I)
    S.V[0] = ops::Add()(ops::Mul()(S.V[0], 10), A[I] - '0');
  return S;
}
KState atoiLeaf(const int64_t *A, const int64_t *, size_t B, size_t E) {
  KState S;
  S.V[1] = 1;
  for (size_t I = B; I != E; ++I) {
    S.V[0] = ops::Add()(ops::Mul()(S.V[0], 10), A[I] - '0');
    S.V[1] = ops::Mul()(S.V[1], 10);
  }
  return S;
}
KState atoiJoin(const KState &L, const KState &R) {
  KState S;
  S.V[0] = ops::Add()(ops::Mul()(L.V[0], R.V[1]), R.V[0]);
  S.V[1] = ops::Mul()(L.V[1], R.V[1]);
  return S;
}

//===--------------------------------------------------------------------===//
// dropwhile: V0 = dropped-prefix length; lifted adds V1 = len
//===--------------------------------------------------------------------===//

KState dropSeq(const int64_t *A, const int64_t *, size_t N) {
  KState S;
  for (size_t I = 0; I != N; ++I)
    if (S.V[0] == static_cast<int64_t>(I) && A[I] > 0)
      S.V[0] += 1;
  S.V[1] = static_cast<int64_t>(N);
  return S;
}
KState dropLeaf(const int64_t *A, const int64_t *B, size_t Begin, size_t E) {
  return dropSeq(A + Begin, B, E - Begin);
}
KState dropJoin(const KState &L, const KState &R) {
  KState S;
  S.V[0] = (L.V[0] == L.V[1]) ? L.V[0] + R.V[0] : L.V[0];
  S.V[1] = L.V[1] + R.V[1];
  return S;
}

//===--------------------------------------------------------------------===//
// balanced-(): V0 = bal, V1 = ofs; lifted adds V2 = max of negated prefix
// sums (MIN-sentinel for the empty chunk)
//===--------------------------------------------------------------------===//

KState balSeq(const int64_t *A, const int64_t *, size_t N) {
  KState S;
  S.V[0] = 1;
  for (size_t I = 0; I != N; ++I) {
    S.V[1] += (A[I] == '(') ? 1 : -1;
    S.V[0] = (S.V[0] && S.V[1] >= 0) ? 1 : 0;
  }
  return S;
}
KState balLeaf(const int64_t *A, const int64_t *, size_t B, size_t E) {
  KState S;
  S.V[0] = 1;
  S.V[2] = -Sentinel;
  for (size_t I = B; I != E; ++I) {
    S.V[1] += (A[I] == '(') ? 1 : -1;
    S.V[0] = (S.V[0] && S.V[1] >= 0) ? 1 : 0;
    S.V[2] = std::max(S.V[2], -S.V[1]);
  }
  return S;
}
KState balJoin(const KState &L, const KState &R) {
  KState S;
  S.V[0] = (L.V[0] && L.V[1] >= R.V[2]) ? 1 : 0;
  S.V[1] = L.V[1] + R.V[1];
  S.V[2] = std::max(L.V[2], R.V[2] - L.V[1]);
  return S;
}

//===--------------------------------------------------------------------===//
// 0*1*: V0 = ok, V1 = seen1; lifted adds V2 = seen0
//===--------------------------------------------------------------------===//

KState zeroOneSeq(const int64_t *A, const int64_t *, size_t N) {
  KState S;
  S.V[0] = 1;
  for (size_t I = 0; I != N; ++I) {
    if (S.V[1] && A[I] == 0)
      S.V[0] = 0;
    if (A[I] == 1)
      S.V[1] = 1;
  }
  return S;
}
KState zeroOneLeaf(const int64_t *A, const int64_t *, size_t B, size_t E) {
  KState S;
  S.V[0] = 1;
  for (size_t I = B; I != E; ++I) {
    if (S.V[1] && A[I] == 0)
      S.V[0] = 0;
    if (A[I] == 1)
      S.V[1] = 1;
    if (A[I] == 0)
      S.V[2] = 1;
  }
  return S;
}
KState zeroOneJoin(const KState &L, const KState &R) {
  KState S;
  S.V[0] = (L.V[0] && R.V[0] && !(L.V[1] && R.V[2])) ? 1 : 0;
  S.V[1] = (L.V[1] || R.V[1]) ? 1 : 0;
  S.V[2] = (L.V[2] || R.V[2]) ? 1 : 0;
  return S;
}

//===--------------------------------------------------------------------===//
// count-1's: V0 = blocks, V1 = prev1; lifted adds V2 = first1, V3 = len
//===--------------------------------------------------------------------===//

KState count1Seq(const int64_t *A, const int64_t *, size_t N) {
  KState S;
  for (size_t I = 0; I != N; ++I) {
    if (A[I] == 1 && !S.V[1])
      S.V[0] += 1;
    S.V[1] = (A[I] == 1) ? 1 : 0;
  }
  return S;
}
KState count1Leaf(const int64_t *A, const int64_t *B, size_t Begin,
                  size_t E) {
  KState S = count1Seq(A + Begin, B, E - Begin);
  S.V[2] = (E - Begin && A[Begin] == 1) ? 1 : 0;
  S.V[3] = static_cast<int64_t>(E - Begin);
  return S;
}
KState count1Join(const KState &L, const KState &R) {
  KState S;
  int64_t Overlap = (R.V[3] > 0 && L.V[1] && R.V[2]) ? 1 : 0;
  S.V[0] = L.V[0] + R.V[0] - Overlap;
  S.V[1] = R.V[3] > 0 ? R.V[1] : L.V[1];
  S.V[2] = L.V[3] > 0 ? L.V[2] : R.V[2];
  S.V[3] = L.V[3] + R.V[3];
  return S;
}

//===--------------------------------------------------------------------===//
// line-sight: V0 = visible, V1 = running max; lifted adds V2 = last, V3 =
// len
//===--------------------------------------------------------------------===//

KState sightSeq(const int64_t *A, const int64_t *, size_t N) {
  KState S;
  S.V[0] = 1;
  S.V[1] = -Sentinel;
  for (size_t I = 0; I != N; ++I) {
    S.V[0] = (A[I] >= S.V[1]) ? 1 : 0;
    S.V[1] = std::max(S.V[1], A[I]);
  }
  return S;
}
KState sightLeaf(const int64_t *A, const int64_t *B, size_t Begin,
                 size_t E) {
  KState S = sightSeq(A + Begin, B, E - Begin);
  S.V[2] = (E - Begin) ? A[E - 1] : 0;
  S.V[3] = static_cast<int64_t>(E - Begin);
  return S;
}
KState sightJoin(const KState &L, const KState &R) {
  KState S;
  S.V[0] = R.V[3] == 0 ? L.V[0]
                       : ((R.V[2] >= std::max(L.V[1], R.V[1])) ? 1 : 0);
  S.V[1] = std::max(L.V[1], R.V[1]);
  S.V[2] = R.V[3] > 0 ? R.V[2] : L.V[2];
  S.V[3] = L.V[3] + R.V[3];
  return S;
}

//===--------------------------------------------------------------------===//
// 0after1: V0 = res, V1 = seen1; lifted adds V2 = seen0
//===--------------------------------------------------------------------===//

KState zafterSeq(const int64_t *A, const int64_t *, size_t N) {
  KState S;
  for (size_t I = 0; I != N; ++I) {
    if (S.V[1] && A[I] == 0)
      S.V[0] = 1;
    if (A[I] == 1)
      S.V[1] = 1;
  }
  return S;
}
KState zafterLeaf(const int64_t *A, const int64_t *, size_t B, size_t E) {
  KState S;
  for (size_t I = B; I != E; ++I) {
    if (S.V[1] && A[I] == 0)
      S.V[0] = 1;
    if (A[I] == 1)
      S.V[1] = 1;
    if (A[I] == 0)
      S.V[2] = 1;
  }
  return S;
}
KState zafterJoin(const KState &L, const KState &R) {
  KState S;
  S.V[0] = (L.V[0] || R.V[0] || (L.V[1] && R.V[2])) ? 1 : 0;
  S.V[1] = (L.V[1] || R.V[1]) ? 1 : 0;
  S.V[2] = (L.V[2] || R.V[2]) ? 1 : 0;
  return S;
}

//===--------------------------------------------------------------------===//
// max-block-1: V0 = best, V1 = cur; lifted adds V2 = prefix run, V3 = len,
// V4 = all-ones. (The paper's tool finds only 1 of the 2 auxiliaries; this
// is the hand-completed version the evaluation runs, as in the paper.)
//===--------------------------------------------------------------------===//

KState blockSeq(const int64_t *A, const int64_t *, size_t N) {
  KState S;
  for (size_t I = 0; I != N; ++I) {
    S.V[1] = (A[I] == 1) ? S.V[1] + 1 : 0;
    S.V[0] = std::max(S.V[0], S.V[1]);
  }
  return S;
}
KState blockLeaf(const int64_t *A, const int64_t *, size_t B, size_t E) {
  KState S;
  S.V[4] = 1;
  for (size_t I = B; I != E; ++I) {
    S.V[1] = (A[I] == 1) ? S.V[1] + 1 : 0;
    S.V[0] = std::max(S.V[0], S.V[1]);
    if (S.V[4] && A[I] == 1)
      S.V[2] += 1;
    else
      S.V[4] = 0;
    S.V[3] += 1;
  }
  return S;
}
KState blockJoin(const KState &L, const KState &R) {
  KState S;
  S.V[0] = std::max(std::max(L.V[0], R.V[0]), L.V[1] + R.V[2]);
  S.V[1] = R.V[4] ? L.V[1] + R.V[1] : R.V[1];
  S.V[2] = L.V[4] ? L.V[2] + R.V[2] : L.V[2];
  S.V[3] = L.V[3] + R.V[3];
  S.V[4] = (L.V[4] && R.V[4]) ? 1 : 0;
  return S;
}

} // namespace

const std::vector<NativeKernel> &parsynt::nativeKernels() {
  static const std::vector<NativeKernel> Kernels = {
      {"sum", InputKind::Random, false, sumSeq, sumLeaf, sumJoin, out0},
      {"min", InputKind::Random, false, minSeq, minLeaf, minJoin, out0},
      {"max", InputKind::Random, false, maxSeq, maxLeaf, maxJoin, out0},
      {"average", InputKind::Random, false, avgSeq, avgLeaf, avgJoin,
       avgOut},
      {"hamming", InputKind::Random, true, hamSeq, hamLeaf, sumJoin, out0},
      {"length", InputKind::Random, false, lenSeq, lenLeaf, sumJoin, out0},
      {"2nd-min", InputKind::Random, false, min2Seq, min2Leaf, min2Join,
       out1},
      {"mps", InputKind::Random, false, mpsSeq, mpsLeaf, mpsJoin, out1},
      {"mts", InputKind::Random, false, mtsSeq, mtsLeaf, mtsJoin, out0},
      {"mss", InputKind::Random, false, mssSeq, mssLeaf, mssJoin, out0},
      {"mts-p", InputKind::Random, false, mtspSeq, mtspLeaf, mtspJoin,
       out2},
      {"mps-p", InputKind::Random, false, mpspSeq, mpspLeaf, mpspJoin,
       out2},
      {"poly", InputKind::Random, false, polySeq, polyLeaf, polyJoin, out0},
      {"is-sorted", InputKind::NearSorted, false, sortedSeq, sortedLeaf,
       sortedJoin, out0},
      {"atoi", InputKind::Digits, false, atoiSeq, atoiLeaf, atoiJoin, out0},
      {"dropwhile", InputKind::DropPrefix, false, dropSeq, dropLeaf,
       dropJoin, out0},
      {"balanced-()", InputKind::Parens, false, balSeq, balLeaf, balJoin,
       out0},
      {"0*1*", InputKind::Bits, false, zeroOneSeq, zeroOneLeaf, zeroOneJoin,
       out0},
      {"count-1's", InputKind::Bits, false, count1Seq, count1Leaf,
       count1Join, out0},
      {"line-sight", InputKind::Heights, false, sightSeq, sightLeaf,
       sightJoin, out0},
      {"0after1", InputKind::Bits, false, zafterSeq, zafterLeaf, zafterJoin,
       out0},
      {"max-block-1", InputKind::Bits, false, blockSeq, blockLeaf,
       blockJoin, out0},
  };
  return Kernels;
}

const NativeKernel *parsynt::findKernel(const std::string &Name) {
  for (const NativeKernel &K : nativeKernels())
    if (K.Name == Name)
      return &K;
  return nullptr;
}

std::vector<int64_t> parsynt::generateInput(InputKind Kind, size_t N,
                                            uint64_t Seed) {
  std::mt19937_64 R(Seed);
  std::vector<int64_t> Out(N);
  switch (Kind) {
  case InputKind::Random:
    for (auto &V : Out)
      V = static_cast<int64_t>(R() % 201) - 100;
    break;
  case InputKind::Bits:
    for (auto &V : Out)
      V = static_cast<int64_t>(R() & 1);
    break;
  case InputKind::Parens:
    // Mildly biased towards '(' so long balanced prefixes occur.
    for (auto &V : Out)
      V = (R() % 100 < 52) ? '(' : ')';
    break;
  case InputKind::Digits:
    for (auto &V : Out)
      V = '0' + static_cast<int64_t>(R() % 10);
    break;
  case InputKind::NearSorted: {
    int64_t Current = 0;
    for (auto &V : Out) {
      Current += static_cast<int64_t>(R() % 5);
      if (R() % 10000 == 0)
        Current -= 50; // rare dip: keeps the sortedness check non-trivial
      V = Current;
    }
    break;
  }
  case InputKind::Heights:
    for (auto &V : Out)
      V = static_cast<int64_t>(R() % 1000) + 1;
    break;
  case InputKind::DropPrefix: {
    size_t Prefix = N / 3;
    for (size_t I = 0; I != N; ++I)
      Out[I] = I < Prefix ? static_cast<int64_t>(R() % 50) + 1
                          : static_cast<int64_t>(R() % 101) - 50;
    break;
  }
  }
  return Out;
}
