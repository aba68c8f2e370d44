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
// decide.
//
//===----------------------------------------------------------------------===//

#include "codegen/EmitCpp.h"
#include "pipeline/Parallelizer.h"
#include "suite/Benchmarks.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace parsynt;
using namespace parsynt::test;

namespace {

PipelineResult parallelized(const char *Name) {
  Loop L = parseBenchmark(*findBenchmark(Name));
  PipelineResult R = parallelizeLoop(L);
  EXPECT_TRUE(R.Success) << R.report();
  return R;
}

TEST(EmitCpp, ContainsTheExpectedStructure) {
  PipelineResult R = parallelized("mts");
  std::string Code = emitParallelCpp(R.Final, R.Join.Components);
  EXPECT_NE(Code.find("struct State {"), std::string::npos);
  EXPECT_NE(Code.find("int64_t mts;"), std::string::npos);
  EXPECT_NE(Code.find("static State join(const State &l, const State &r)"),
            std::string::npos);
  EXPECT_NE(Code.find("static State parallel_run"), std::string::npos);
  // The synthesized join body references left/right fields.
  EXPECT_NE(Code.find("l.mts"), std::string::npos);
  EXPECT_NE(Code.find("r.mts"), std::string::npos);
}

TEST(EmitCpp, ParametersBecomeGlobals) {
  PipelineResult R = parallelized("poly");
  std::string Code = emitParallelCpp(R.Final, R.Join.Components);
  EXPECT_NE(Code.find("static int64_t x;"), std::string::npos);
  EXPECT_NE(Code.find("x = 3;"), std::string::npos);
}

/// Compiles (g++, warning-free under -Wall -Wextra, with UBSan aborting on
/// the first report) and runs an emitted program named \p Name; its exit
/// status is the self-check verdict. The program includes the shared
/// header-only runtime, so it compiles (as C++17) against the parsynt src
/// tree.
void compileAndRun(const std::string &Name, const std::string &Code) {
  std::string Base = std::string(::testing::TempDir()) + "/parsynt_emit_";
  for (char C : Name)
    Base += std::isalnum(static_cast<unsigned char>(C)) ? C : '_';
  std::string Src = Base + ".cpp", Bin = Base + ".bin";
  {
    std::ofstream Out(Src);
    Out << Code;
  }
  std::string Compile = "g++ -O1 -std=c++17 -pthread -Wall -Wextra -Werror "
                        "-fsanitize=undefined "
                        "-fno-sanitize-recover=undefined -I " PARSYNT_SRC_DIR
                        " -o " + Bin + " " + Src + " 2>&1";
  ASSERT_EQ(std::system(Compile.c_str()), 0) << "compile failed:\n" << Code;
  ASSERT_EQ(std::system((Bin + " > /dev/null").c_str()), 0)
      << "generated self-check failed for " << Name << ":\n" << Code;
}

/// Emits and runs the generated program for a representative slice of the
/// suite (one plain, one lifted-arithmetic, one lifted-boolean, one
/// index-dependent, one two-sequence).
class EmittedProgram : public ::testing::TestWithParam<const char *> {};

TEST_P(EmittedProgram, CompilesAndSelfChecks) {
  const char *Name = GetParam();
  PipelineResult R = parallelized(Name);
  EmitCppOptions Opts;
  Opts.Grain = 4096;
  Opts.SelfCheckElements = 200000;
  compileAndRun(Name, emitParallelCpp(R.Final, R.Join.Components, Opts));
}

TEST(EmitCpp, WrappingOperatorsHaveNoUndefinedBehaviour) {
  // p doubles until it wraps through INT64_MIN: negating it and dividing
  // it by -1 there are defined (wrapping) in the synthesis semantics and
  // must be in the emitted program too.
  Loop L = mustParse("p = 1;\nn = 0;\nd = 0;\n"
                     "for (i = 0; i < |s|; i++) {\n"
                     "  p = p * 2 + s[i] * 0;\n"
                     "  n = -p;\n"
                     "  d = p / (0 - 1);\n"
                     "}",
                     "wrap");
  EmitCppOptions Opts;
  Opts.SelfCheckElements = 1000;
  compileAndRun("wrap", emitParallelCpp(L, {}, Opts));
}

INSTANTIATE_TEST_SUITE_P(Representative, EmittedProgram,
                         ::testing::Values("sum", "2nd-min", "mts",
                                           "balanced-()", "dropwhile",
                                           "hamming", "poly"));

} // namespace
