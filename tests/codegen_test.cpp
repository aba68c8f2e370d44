//===- tests/codegen_test.cpp - Emitted C++ compiles and runs -------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The strongest possible test of the code generator: emit the parallel
// program for a benchmark, compile it with the system compiler, run it, and
// let its built-in self-check (parallel vs sequential on random data)
// decide. The programs are emitted from the golden joins and final loops
// of tests/Goldens.h, so no test here synthesizes.
//
// Every program is compiled by one g++ call: EmittedPrograms.CompileInOneCall
// emits them all and builds one executable, and each test that checks a
// program runs it in a process of its own. ctest runs the build first (a
// fixture the runs require, see tests/CMakeLists.txt); a plain run of this
// binary does too, since it is the first test defined.
//
//===----------------------------------------------------------------------===//

#include "codegen/EmitCpp.h"
#include "ir/ExprOps.h"
#include "suite/Benchmarks.h"
#include "Goldens.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>

using namespace parsynt;
using namespace parsynt::test;

namespace {

/// The executable EmittedPrograms.CompileInOneCall builds.
const std::string EmittedBin = PARSYNT_EMITTED_BIN;

/// One emitted program: the name that selects it on the command line (no
/// quotes or backslashes) and its source.
struct EmittedSource {
  std::string Name;
  std::string Code;
};

/// Compiles \p Programs (g++, warning-free under -Wall -Wextra, with UBSan
/// aborting on the first report) into one executable \p Bin, in a single
/// compiler call, and returns the compiler's exit status. `Bin <name>` runs
/// the program <name> and exits with its status, its self-check verdict.
///
/// The translation unit includes every header the programs include once,
/// then each program inside a namespace of its own with its main renamed;
/// the include guards make the programs' own includes no-ops. The programs
/// include the shared header-only runtime, so they compile (as C++17)
/// against the parsynt src tree.
int buildProgramBatch(const std::vector<EmittedSource> &Programs,
                      const std::string &Bin) {
  std::ostringstream TU;
  std::set<std::string> Includes;
  for (const EmittedSource &P : Programs) {
    std::istringstream Lines(P.Code);
    for (std::string Line; std::getline(Lines, Line);)
      if (Line.rfind("#include", 0) == 0 && Includes.insert(Line).second)
        TU << Line << "\n";
  }
  TU << "#include <cstdio>\n#include <cstring>\n";
  for (size_t I = 0; I != Programs.size(); ++I)
    TU << "\nnamespace program" << I << " {\n#define main main_\n"
       << Programs[I].Code << "\n#undef main\n} // namespace program" << I
       << "\n";
  TU << "\nint main(int argc, char **argv) {\n";
  for (size_t I = 0; I != Programs.size(); ++I)
    TU << "  if (argc == 2 && std::strcmp(argv[1], \"" << Programs[I].Name
       << "\") == 0)\n    return program" << I << "::main_();\n";
  TU << "  std::fprintf(stderr, \"usage: %s <program>\\n\", argv[0]);\n"
        "  return 2;\n}\n";

  std::string Src = Bin + ".cpp";
  {
    std::ofstream Out(Src);
    Out << TU.str();
  }
  std::remove(Bin.c_str());
  std::string Compile = "g++ -O1 -std=c++17 -pthread -Wall -Wextra -Werror "
                        "-fsanitize=undefined "
                        "-fno-sanitize-recover=undefined -I " PARSYNT_SRC_DIR
                        " -o " + Bin + " " + Src + " 2>&1";
  return std::system(Compile.c_str());
}

/// Runs program \p Name of the batch executable in a process of its own and
/// returns its wait status.
int runEmitted(const std::string &Name) {
  if (access(EmittedBin.c_str(), X_OK) != 0) {
    ADD_FAILURE() << EmittedBin
                  << " is missing; EmittedPrograms.CompileInOneCall builds it";
    return -1;
  }
  return std::system((EmittedBin + " '" + Name + "' > /dev/null").c_str());
}

/// A representative slice of the suite (one plain, one lifted-arithmetic,
/// one lifted-boolean, one index-dependent, one two-sequence).
const char *const Representative[] = {"sum",       "2nd-min",  "mts",
                                      "balanced-()", "dropwhile", "hamming",
                                      "poly"};

TEST(EmittedPrograms, CompileInOneCall) {
  EmitCppOptions Opts;
  Opts.Grain = 4096;
  Opts.SelfCheckElements = 200000;
  std::vector<EmittedSource> Programs;
  for (const char *Name : Representative) {
    GoldenParallelization R = goldenParallelization(*findBenchmark(Name));
    Programs.push_back({Name, emitParallelCpp(R.Final, R.Join, Opts)});
    if (std::string(Name) != "mts")
      continue;
    // The program's leaf() joins its lanes with the emitted join, so the
    // self-check compares parallel_run with the join-free run(): mts's join
    // with every left and right operand exchanged must fail it.
    Programs.push_back({"mts_wrong_join",
                        emitParallelCpp(R.Final, swapSides(R.Final, R.Join),
                                        Opts)});
  }

  // p doubles until it wraps through INT64_MIN: negating it and dividing
  // it by -1 there are defined (wrapping) in the synthesis semantics and
  // must be in the emitted program too.
  Loop Wrap = mustParse("p = 1;\nn = 0;\nd = 0;\n"
                        "for (i = 0; i < |s|; i++) {\n"
                        "  p = p * 2 + s[i] * 0;\n"
                        "  n = -p;\n"
                        "  d = p / (0 - 1);\n"
                        "}",
                        "wrap");
  EmitCppOptions WrapOpts;
  WrapOpts.SelfCheckElements = 1000;
  Programs.push_back({"wrap", emitParallelCpp(Wrap, {}, WrapOpts)});
  // The same wrapping in a lane leaf: x, y and d step through INT64_MIN with
  // +, -, negation and *, and d divides INT64_MIN by -1 (s[i] == -2) and by
  // 0 (s[i] == -1), lane by lane; x also reads the index.
  Loop LaneWrap =
      mustParse("x = 0;\ny = 0;\nd = 0;\n"
                "for (i = 0; i < |s|; i++) {\n"
                "  x = x + s[i] * 4611686018427387904 + i;\n"
                "  y = y - -(s[i] * 4611686018427387904);\n"
                "  d = d + s[i] * 4611686018427387904 / (s[i] + 1);\n"
                "}",
                "lane_wrap");
  Programs.push_back(
      {"lane_wrap",
       emitParallelCpp(LaneWrap,
                       parseJoin(LaneWrap, "x = (x_l + x_r)\ny = (y_l + y_r)\n"
                                           "d = (d_l + d_r)\n"),
                       Opts)});

  ASSERT_EQ(buildProgramBatch(Programs, EmittedBin), 0)
      << "compile failed: " << EmittedBin << ".cpp";
}

TEST(EmitCpp, ContainsTheExpectedStructure) {
  GoldenParallelization R = goldenParallelization(*findBenchmark("mts"));
  std::string Code = emitParallelCpp(R.Final, R.Join);
  EXPECT_NE(Code.find("struct State {"), std::string::npos);
  EXPECT_NE(Code.find("int64_t mts;"), std::string::npos);
  EXPECT_NE(Code.find("static State join(const State &l, const State &r)"),
            std::string::npos);
  EXPECT_NE(Code.find("static State parallel_run"), std::string::npos);
  // The synthesized join body references left/right fields.
  EXPECT_NE(Code.find("l.mts"), std::string::npos);
  EXPECT_NE(Code.find("r.mts"), std::string::npos);
  // The leaf runs on vector lanes, in one clone per instruction set, and
  // folds the lanes' states with the join in block order.
  EXPECT_NE(Code.find("PARSYNT_LANE_CLONES\nstatic State leaf(size_t first, "
                      "size_t last, const int64_t *seq_s) {"),
            std::string::npos);
  EXPECT_NE(Code.find("    Lanes mts;\n"), std::string::npos);
  EXPECT_NE(Code.find("  State r = c[0];\n  for (int k = 1; k != 8; ++k)\n"
                      "    r = join(r, c[k]);\n  return r;\n"),
            std::string::npos);
}

TEST(EmitCpp, ParametersBecomeGlobals) {
  GoldenParallelization R = goldenParallelization(*findBenchmark("poly"));
  std::string Code = emitParallelCpp(R.Final, R.Join);
  EXPECT_NE(Code.find("static int64_t x;"), std::string::npos);
  EXPECT_NE(Code.find("x = 3;"), std::string::npos);
}

/// Each representative program passes its self-check.
class EmittedProgram : public ::testing::TestWithParam<const char *> {};

TEST_P(EmittedProgram, CompilesAndSelfChecks) {
  EXPECT_EQ(runEmitted(GetParam()), 0)
      << "generated self-check failed for " << GetParam();
}

TEST(EmitCpp, WrappingOperatorsHaveNoUndefinedBehaviour) {
  EXPECT_EQ(runEmitted("wrap"), 0);
  EXPECT_EQ(runEmitted("lane_wrap"), 0);
}

TEST(EmitCpp, SelfCheckRejectsAWrongJoin) {
  // The emitted main returns 1 on a MISMATCH; a crash or a sanitizer
  // abort is no rejection.
  int Status = runEmitted("mts_wrong_join");
  ASSERT_TRUE(WIFEXITED(Status)) << "status " << Status;
  EXPECT_EQ(WEXITSTATUS(Status), 1);
}

INSTANTIATE_TEST_SUITE_P(Representative, EmittedProgram,
                         ::testing::ValuesIn(Representative));

} // namespace
