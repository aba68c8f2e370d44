//===- tests/Goldens.h - Table-1 golden joins and final loops ---*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// What the pipeline returns for each Table-1 loop, written down: the join,
// the counters of the search that found it, and the final loop it joins.
// PipelineSweep checks that the pipeline returns exactly these; the tests
// that only need a parallelized loop (ProofSweep, the emitted programs)
// take it from here instead of synthesizing it again.
//
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_TESTS_GOLDENS_H
#define PARSYNT_TESTS_GOLDENS_H

#include "suite/Benchmarks.h"
#include "TestUtil.h"

#include <map>

namespace parsynt {
namespace test {

/// The final join and the exact search counters of its synthesis call, per
/// Table-1 loop, plus the rewriter's work over the whole pipeline call, the
/// auxiliary count and the number of lifts (0 when the original loop has a
/// join, else 1). Evaluator and enumerator changes must keep the
/// enumeration order and the first match; rewriter changes must keep the
/// Figure-6 search order and its closed set; so every field stays
/// identical. EnumeratedCandidates counts only the pool levels the
/// searches read: the pools grow a sketch tier at a time, and the free
/// grammar a level at a time up to its first match (synth/JoinSynth.cpp),
/// so a join found among the leaves counts the leaves alone (hamming 13,
/// mps-p 22). The empty-guard sketch runs before the free grammar grows the
/// pool past the sketch tiers, so is-sorted's prev takes the guard's join
/// (prev_r == MIN_INT, not the size-6 free-grammar prev_r <= MIN_INT, which
/// fails on elements below MIN_INT), and line-sight's and count-1's final
/// calls build no size-6 or size-7 level their guard joins never read. A
/// round's counterexample is the split behind its proof's failed
/// obligation, so is-sorted's second round enumerates over that test.
/// (max-block-1 fails as in the paper: an empty join, the counters of the
/// join search on its lifted loop. Its integer pool is full before the
/// free grammar's last level, size 7, which therefore could add nothing:
/// that level is decided without a scan and never built.) The normalize
/// counters
/// follow the Figure-6 search's stall rule (normalize/Normalizer.h): each
/// search on balanced-(), count-1's, line-sight and max-block-1 stops
/// StallLimit expansions after the one that found its normal form.
struct JoinGolden {
  const char *Name;
  const char *Join;
  uint64_t SketchAssignments;
  uint64_t EnumeratedCandidates;
  uint64_t NormalizeExpanded;
  uint64_t NormalizeRuleHits;
  unsigned AuxCount;
  unsigned LiftAttempts;
};

inline const JoinGolden Goldens[] = {
    {"sum",
     "sum = (sum_l + sum_r)\n",
     0, 0,
     0, 0, 0, 0},
    {"min",
     "m = min(m_l, m_r)\n",
     0, 0,
     0, 0, 0, 0},
    {"max",
     "m = max(m_l, m_r)\n",
     0, 0,
     0, 0, 0, 0},
    {"average",
     "sum = (sum_l + sum_r)\n"
     "cnt = (cnt_l + cnt_r)\n",
     0, 0,
     0, 0, 0, 0},
    {"hamming",
     "ham = ((ham_r != -1) ? (ham_l + ham_r) : ham_l)\n",
     101, 13,
     0, 0, 0, 0},
    {"length",
     "len = (len_l + len_r)\n",
     0, 0,
     0, 0, 0, 0},
    {"2nd-min",
     "m2 = min(m2_l, max(min(m2_r, m_l), m_r))\n"
     "m = min(m_l, m_r)\n",
     1673, 209,
     0, 0, 0, 0},
    {"mps",
     "sum = (sum_l + sum_r)\n"
     "mps = max(mps_l, (sum_l + mps_r))\n",
     72, 16,
     0, 0, 0, 0},
    {"mts",
     "mts = max((mts_l + aux0_r), mts_r)\n"
     "aux0 = (aux0_l + aux0_r)\n",
     6, 16,
     0, 0, 1, 1},
    {"mss",
     "mss = max(max(mss_l, mss_r), (mts_l + aux1_r))\n"
     "mts = max((mts_l + aux0_r), mts_r)\n"
     "aux0 = (aux0_l + aux0_r)\n"
     "aux1 = max(aux1_l, (aux0_l + aux1_r))\n",
     42106, 567,
     0, 0, 2, 1},
    {"mts-p",
     "mts = max((mts_l + sum_r), mts_r)\n"
     "sum = (sum_l + sum_r)\n"
     "pos = ((max((mts_l + sum_r), mts_r) == mts_r) ? (_pos_l + pos_r) : "
     "pos_l)\n"
     "_pos = (_pos_l + _pos_r)\n",
     42000, 22,
     0, 0, 1, 0},
    {"mps-p",
     "sum = (sum_l + sum_r)\n"
     "mps = (((sum_l + mps_r) > mps_l) ? (sum_l + mps_r) : mps_l)\n"
     "pos = (((sum_l + mps_r) > mps_l) ? (_pos_l + pos_r) : pos_l)\n"
     "_pos = (_pos_l + _pos_r)\n",
     22525, 22,
     0, 0, 1, 0},
    {"poly",
     "res = (res_l + (res_r * p_l))\n"
     "p = (p_l * p_r)\n",
     3, 18,
     0, 0, 0, 0},
    {"is-sorted",
     "sorted = ((prev_r == -1099511627776) ? sorted_l : "
     "((sorted_l && sorted_r) && (prev_l <= aux0_r)))\n"
     "prev = ((prev_r == -1099511627776) ? prev_l : prev_r)\n"
     "aux0 = ((prev_l == -1099511627776) ? aux0_r : aux0_l)\n",
     7429817, 9481,
     1012, 7928, 1, 1},
    {"atoi",
     "res = ((res_l * aux0_r) + res_r)\n"
     "aux0 = (aux0_l * aux0_r)\n",
     53, 20,
     0, 0, 1, 1},
    {"dropwhile",
     "cnt = (((cnt_l == _pos_l) && (cnt_r > -1)) ? (cnt_l + cnt_r) : cnt_l)\n"
     "_pos = (_pos_l + _pos_r)\n",
     12741, 16,
     0, 0, 1, 0},
    {"balanced-()",
     "ofs = (ofs_l + ofs_r)\n"
     "bal = (bal_l && (ofs_l >= aux0_r))\n"
     "aux0 = max(aux0_l, (aux0_r - ofs_l))\n",
     42440, 42,
     5945, 107951, 1, 1},
    {"0*1*",
     "ok = (seen1_l ? (ok_l && aux0_r) : ok_r)\n"
     "seen1 = (seen1_l || seen1_r)\n"
     "aux0 = (aux0_l && aux0_r)\n",
     0, 0,
     0, 0, 1, 1},
    {"count-1's",
     "cnt = ((cnt_l + cnt_r) + ((prev1_l && aux1_r) ? -1 : 0))\n"
     "prev1 = ((_pos_r <= 0) ? prev1_l : prev1_r)\n"
     "_pos = (_pos_l + _pos_r)\n"
     "aux1 = (((aux1_r ? _pos_l : -1) == 0) ? true : aux1_l)\n",
     4851459, 16092,
     3632, 85426, 2, 1},
    {"line-sight",
     "vis = ((m_r == -1099511627776) ? vis_l : "
     "(m_r >= (vis_r ? m_l : 1099511627776)))\n"
     "m = max(m_l, m_r)\n",
     46465, 1413,
     2052, 23692, 0, 1},
    {"0after1",
     "res = ((res_l || res_r) || (seen1_l && aux0_r))\n"
     "seen1 = (seen1_l || seen1_r)\n"
     "aux0 = (aux0_l || aux0_r)\n",
     10532, 104,
     0, 0, 1, 1},
    {"max-block-1",
     "",
     15138834, 33936,
     5184, 83155, 4, 1},
};

inline const JoinGolden *goldenFor(const std::string &Name) {
  for (const JoinGolden &G : Goldens)
    if (Name == G.Name)
      return &G;
  return nullptr;
}

/// The final loop of each benchmark the pipeline lifts, with the auxiliary
/// names it gives them (a loop reading its index reads `_pos` instead);
/// every other benchmark's final loop is its own source.
inline const std::map<std::string, const char *> LiftedSources = {
    {"mts", "mts = 0;\naux0 = 0;\nfor (i = 0; i < |s|; i++) {\n"
            "  mts = max(mts + s[i], 0);\n  aux0 = aux0 + s[i];\n}\n"},
    {"mss", "mss = 0;\nmts = 0;\naux0 = 0;\naux1 = MIN_INT;\n"
            "for (i = 0; i < |s|; i++) {\n"
            "  mss = max(mss, mts + s[i]);\n  mts = max(mts + s[i], 0);\n"
            "  aux1 = max(aux1, aux0 + s[i]);\n  aux0 = aux0 + s[i];\n}\n"},
    {"mts-p", "mts = 0;\nsum = 0;\npos = 0;\n_pos = 0;\n"
              "for (i = 0; i < |s|; i++) {\n"
              "  mts = max(mts + s[i], 0);\n  sum = sum + s[i];\n"
              "  if (mts == 0) { pos = _pos + 1; }\n  _pos = _pos + 1;\n}\n"},
    {"mps-p", "sum = 0;\nmps = 0;\npos = 0;\n_pos = 0;\n"
              "for (i = 0; i < |s|; i++) {\n  sum = sum + s[i];\n"
              "  if (sum > mps) { mps = sum; pos = _pos + 1; }\n"
              "  _pos = _pos + 1;\n}\n"},
    {"is-sorted", "sorted = true;\nprev = MIN_INT;\naux0 = 0;\n"
                  "for (i = 0; i < |s|; i++) {\n"
                  "  sorted = sorted && (prev <= s[i]);\n"
                  "  if (prev == MIN_INT) { aux0 = s[i]; }\n"
                  "  prev = s[i];\n}\n"},
    {"atoi", "res = 0;\naux0 = 1;\nfor (i = 0; i < |s|; i++) {\n"
             "  res = res * 10 + (s[i] - '0');\n  aux0 = aux0 * 10;\n}\n"},
    {"dropwhile", "cnt = 0;\n_pos = 0;\nfor (i = 0; i < |s|; i++) {\n"
                  "  if (cnt == _pos && s[i] > 0) { cnt = cnt + 1; }\n"
                  "  _pos = _pos + 1;\n}\n"},
    {"balanced-()", "ofs = 0;\nbal = true;\naux0 = -1;\n"
                    "for (i = 0; i < |s|; i++) {\n"
                    "  aux0 = max(aux0, (40 == s[i] ? -1 : 1) - ofs);\n"
                    "  ofs = s[i] == 40 ? ofs + 1 : ofs - 1;\n"
                    "  bal = bal && ofs >= 0;\n}\n"},
    {"0*1*", "ok = true;\nseen1 = false;\naux0 = true;\n"
             "for (i = 0; i < |s|; i++) {\n"
             "  if (seen1 && s[i] == 0) { ok = false; }\n"
             "  if (s[i] == 1) { seen1 = true; }\n"
             "  aux0 = !(s[i] == 0) && (aux0 || s[i] == 0);\n}\n"},
    {"count-1's", "cnt = 0;\nprev1 = false;\n_pos = 0;\naux1 = false;\n"
                  "for (i = 0; i < |s|; i++) {\n"
                  "  if (s[i] == 1 && !prev1) { cnt = cnt + 1; }\n"
                  "  prev1 = s[i] == 1;\n"
                  "  if (_pos == 0) { aux1 = s[i] == 1; }\n"
                  "  _pos = _pos + 1;\n}\n"},
    {"0after1", "seen1 = false;\nres = false;\naux0 = false;\n"
                "for (i = 0; i < |s|; i++) {\n"
                "  res = res || (seen1 && s[i] == 0);\n"
                "  seen1 = seen1 || s[i] == 1;\n"
                "  aux0 = aux0 || s[i] == 0;\n}\n"},
};

/// Parses \p Join, one `x = <expr>` line per state variable of \p L as
/// joinToString prints it, into join components in \p L's equation order.
/// The lines become the body of a loop over the split state (x_l, x_r,
/// each assigned itself afterwards so that it stays state), so each x's
/// update is its join component, read as state variables.
inline std::vector<ExprRef> parseJoin(const Loop &L, const std::string &Join) {
  std::string Inits, Body;
  Substitution Split;
  for (const Equation &Eq : L.Equations) {
    const char *Init = Eq.Ty == Type::Bool ? " = false;\n" : " = 0;\n";
    for (Side S : {Side::Left, Side::Right}) {
      std::string Name = splitName(Eq.Name, S);
      Inits += Name + Init;
      Body += Name + " = " + Name + ";\n";
      Split[Name] = inputVar(Name, Eq.Ty);
    }
    Inits += Eq.Name + Init;
  }
  std::string Source = Inits + "for (i = 0; i < |s|; i++) {\n";
  for (char C : Join)
    Source += C == '\n' ? std::string(";\n") : std::string(1, C);
  Loop Parsed = mustParse(Source + Body + "}\n");
  std::vector<ExprRef> Components;
  for (const Equation &Eq : L.Equations) {
    const Equation *Component = Parsed.findEquation(Eq.Name);
    EXPECT_NE(Component, nullptr) << Eq.Name << " has no join component";
    if (Component)
      Components.push_back(substitute(Component->Update, Split));
  }
  return Components;
}

/// \p B's final loop and golden join, parsed without synthesizing.
struct GoldenParallelization {
  Loop Final;
  std::vector<ExprRef> Join;
};

inline GoldenParallelization goldenParallelization(const Benchmark &B) {
  auto Lifted = LiftedSources.find(B.Name);
  Loop Final = Lifted == LiftedSources.end()
                   ? parseBenchmark(B)
                   : mustParse(Lifted->second, B.Name);
  const JoinGolden *Golden = goldenFor(B.Name);
  EXPECT_NE(Golden, nullptr) << "no golden join for " << B.Name;
  std::vector<ExprRef> Join = Golden ? parseJoin(Final, Golden->Join)
                                     : std::vector<ExprRef>{};
  return {std::move(Final), std::move(Join)};
}

} // namespace test
} // namespace parsynt

#endif // PARSYNT_TESTS_GOLDENS_H
