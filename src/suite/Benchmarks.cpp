//===- suite/Benchmarks.cpp - The Table-1 benchmark suite -----------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "suite/Benchmarks.h"
#include "frontend/Convert.h"

#include <cassert>
#include <map>

using namespace parsynt;

const std::vector<Benchmark> &parsynt::allBenchmarks() {
  static const std::vector<Benchmark> Benchmarks = {
      {"sum",
       "sum = 0;\n"
       "for (i = 0; i < |s|; i++) { sum = sum + s[i]; }\n",
       false, 0, true, "sum of the elements",
       "sum", InputKind::Random},

      {"min",
       "m = MAX_INT;\n"
       "for (i = 0; i < |s|; i++) { m = min(m, s[i]); }\n",
       false, 0, true, "minimum element",
       "m", InputKind::Random},

      {"max",
       "m = MIN_INT;\n"
       "for (i = 0; i < |s|; i++) { m = max(m, s[i]); }\n",
       false, 0, true, "maximum element",
       "m", InputKind::Random},

      {"average",
       "sum = 0;\n"
       "cnt = 0;\n"
       "for (i = 0; i < |s|; i++) { sum = sum + s[i]; cnt = cnt + 1; }\n",
       false, 0, true, "running sum and count (mean taken after the loop)",
       "sum", InputKind::Random},

      {"hamming",
       "ham = 0;\n"
       "for (i = 0; i < |s|; i++) {\n"
       "  if (s[i] != t[i]) { ham = ham + 1; }\n"
       "}\n",
       false, 0, true, "hamming distance of two equal-length strings",
       "ham", InputKind::Random},

      {"length",
       "len = 0;\n"
       "for (i = 0; i < |s|; i++) { len = len + 1; }\n",
       false, 0, true, "sequence length",
       "len", InputKind::Random},

      {"2nd-min",
       "m = MAX_INT;\n"
       "m2 = MAX_INT;\n"
       "for (i = 0; i < |s|; i++) {\n"
       "  m2 = min(m2, max(m, s[i]));\n"
       "  m = min(m, s[i]);\n"
       "}\n",
       false, 0, true, "second smallest element (paper Section 2)",
       "m2", InputKind::Random},

      {"mps",
       "sum = 0;\n"
       "mps = 0;\n"
       "for (i = 0; i < |s|; i++) {\n"
       "  sum = sum + s[i];\n"
       "  mps = max(mps, sum);\n"
       "}\n",
       false, 0, true,
       "maximum prefix sum (running sum kept by the natural formulation)",
       "mps", InputKind::Random},

      {"mts",
       "mts = 0;\n"
       "for (i = 0; i < |s|; i++) { mts = max(mts + s[i], 0); }\n",
       true, 1, true, "maximum tail (suffix) sum (paper Section 2)",
       "mts", InputKind::Random},

      {"mss",
       "mss = 0;\n"
       "mts = 0;\n"
       "for (i = 0; i < |s|; i++) {\n"
       "  mss = max(mss, mts + s[i]);\n"
       "  mts = max(mts + s[i], 0);\n"
       "}\n",
       true, 2, true, "maximum segment sum (Kadane)",
       "mss", InputKind::Random},

      {"mts-p",
       "mts = 0;\n"
       "sum = 0;\n"
       "pos = 0;\n"
       "for (i = 0; i < |s|; i++) {\n"
       "  mts = max(mts + s[i], 0);\n"
       "  sum = sum + s[i];\n"
       "  if (mts == 0) { pos = i + 1; }\n"
       "}\n",
       true, -1, true, "mts with the start position of the maximal tail",
       "pos", InputKind::Random},

      {"mps-p",
       "sum = 0;\n"
       "mps = 0;\n"
       "pos = 0;\n"
       "for (i = 0; i < |s|; i++) {\n"
       "  sum = sum + s[i];\n"
       "  if (sum > mps) { mps = sum; pos = i + 1; }\n"
       "}\n",
       true, -1, true, "mps with the end position of the maximal prefix",
       "pos", InputKind::Random},

      {"poly",
       "param x;\n"
       "res = 0;\n"
       "p = 1;\n"
       "for (i = 0; i < |s|; i++) {\n"
       "  res = res + s[i] * p;\n"
       "  p = p * x;\n"
       "}\n",
       false, 0, true, "polynomial evaluation at x (Horner-free form)",
       "res", InputKind::Random},

      {"is-sorted",
       "sorted = true;\n"
       "prev = MIN_INT;\n"
       "for (i = 0; i < |s|; i++) {\n"
       "  sorted = sorted && (prev <= s[i]);\n"
       "  prev = s[i];\n"
       "}\n",
       true, 1, true, "is the sequence sorted (non-decreasing)?",
       "sorted", InputKind::NearSorted},

      {"atoi",
       "res = 0;\n"
       "for (i = 0; i < |s|; i++) {\n"
       "  res = res * 10 + (s[i] - '0');\n"
       "}\n",
       true, 1, true, "decimal string to integer",
       "res", InputKind::Digits},

      {"dropwhile",
       "cnt = 0;\n"
       "for (i = 0; i < |s|; i++) {\n"
       "  if (cnt == i && s[i] > 0) { cnt = cnt + 1; }\n"
       "}\n",
       true, 1, true,
       "length of the dropped prefix (drop while positive)",
       "cnt", InputKind::DropPrefix},

      {"balanced-()",
       "bal = true;\n"
       "ofs = 0;\n"
       "for (i = 0; i < |s|; i++) {\n"
       "  if (s[i] == '(') { ofs = ofs + 1; } else { ofs = ofs - 1; }\n"
       "  bal = bal && (ofs >= 0);\n"
       "}\n",
       true, 1, true, "balanced parentheses prefix check",
       "bal", InputKind::Parens},

      {"0*1*",
       "ok = true;\n"
       "seen1 = false;\n"
       "for (i = 0; i < |s|; i++) {\n"
       "  if (seen1 && s[i] == 0) { ok = false; }\n"
       "  if (s[i] == 1) { seen1 = true; }\n"
       "}\n",
       true, -1, true, "membership in the regular language 0*1*",
       "ok", InputKind::Bits},

      {"count-1's",
       "cnt = 0;\n"
       "prev1 = false;\n"
       "for (i = 0; i < |s|; i++) {\n"
       "  if (s[i] == 1 && !prev1) { cnt = cnt + 1; }\n"
       "  prev1 = s[i] == 1;\n"
       "}\n",
       true, -1, true, "number of contiguous blocks of 1's",
       "cnt", InputKind::Bits},

      {"line-sight",
       "m = MIN_INT;\n"
       "vis = true;\n"
       "for (i = 0; i < |s|; i++) {\n"
       "  vis = s[i] >= m;\n"
       "  m = max(m, s[i]);\n"
       "}\n",
       true, 0, true,
       "is the last building visible over the earlier skyline? (the "
       "empty-guard sketch finds a join that needs no auxiliary at all; "
       "the paper's tool keeps 1 — see EXPERIMENTS.md)",
       "vis", InputKind::Heights},

      {"0after1",
       "seen1 = false;\n"
       "res = false;\n"
       "for (i = 0; i < |s|; i++) {\n"
       "  res = res || (seen1 && s[i] == 0);\n"
       "  seen1 = seen1 || s[i] == 1;\n"
       "}\n",
       true, 1, true, "does a 0 occur after a 1?",
       "res", InputKind::Bits},

      {"max-block-1",
       "best = 0;\n"
       "cur = 0;\n"
       "for (i = 0; i < |s|; i++) {\n"
       "  if (s[i] == 1) { cur = cur + 1; } else { cur = 0; }\n"
       "  best = max(best, cur);\n"
       "}\n",
       true, -1, false,
       "length of the longest block of 1's (paper: 1 of 2 auxiliaries "
       "found)",
       "best", InputKind::Bits},
  };
  return Benchmarks;
}

const Benchmark *parsynt::findBenchmark(const std::string &Name) {
  for (const Benchmark &B : allBenchmarks())
    if (B.Name == Name)
      return &B;
  return nullptr;
}

Loop parsynt::parseBenchmark(const Benchmark &B) {
  DiagnosticEngine Diags;
  auto L = parseLoop(B.Source, B.Name, Diags);
  assert(L && "benchmark source must parse");
  if (!L) {
    // Release-build fallback: return an empty loop (callers assert anyway).
    return Loop();
  }
  return *L;
}

std::optional<HandLifting> parsynt::handLifting(const Benchmark &B) {
  if (B.Name != "max-block-1")
    return std::nullopt;
  // max-block-1 with both auxiliaries: pre, the leading run of 1's, and
  // all1, whether every element is a 1.
  Benchmark Lifted = B;
  Lifted.Source = "cur = 0;\n"
                  "best = 0;\n"
                  "pre = 0;\n"
                  "all1 = true;\n"
                  "for (i = 0; i < |s|; i++) {\n"
                  "  if (s[i] == 1) { cur = cur + 1; } else { cur = 0; }\n"
                  "  best = max(best, cur);\n"
                  "  if (all1 && s[i] == 1) { pre = pre + 1; }\n"
                  "  all1 = all1 && s[i] == 1;\n"
                  "}\n";
  HandLifting H{parseBenchmark(Lifted), {}};
  auto L = [](const char *Var, Type Ty = Type::Int) {
    return inputVar(splitName(Var, Side::Left), Ty);
  };
  auto R = [](const char *Var, Type Ty = Type::Int) {
    return inputVar(splitName(Var, Side::Right), Ty);
  };
  const std::map<std::string, ExprRef> Join = {
      {"best", maxE(maxE(L("best"), R("best")), add(L("cur"), R("pre")))},
      {"cur", ite(R("all1", Type::Bool), add(L("cur"), R("cur")), R("cur"))},
      {"pre", ite(L("all1", Type::Bool), add(L("pre"), R("pre")), L("pre"))},
      {"all1", andE(L("all1", Type::Bool), R("all1", Type::Bool))},
  };
  for (const Equation &Eq : H.Lifted.Equations)
    H.Join.push_back(Join.at(Eq.Name));
  return H;
}
