//===- codegen/EmitCpp.cpp - Parallel C++ code emission -------------------===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "codegen/EmitCpp.h"
#include "ir/ExprOps.h"
#include "observe/Metrics.h"
#include "observe/Tracer.h"

#include <cctype>
#include <map>
#include <set>
#include <sstream>

using namespace parsynt;

namespace {

/// Chains a leaf with a join runs side by side (DESIGN.md §5i): enough
/// independent loop-carried chains to hide a step's latency, few enough
/// that four copies of a state stay mostly in registers.
constexpr int LeafChains = 4;

/// The test a short-circuit condition jumps on first: the leftmost operand
/// under `&&`, `||` and `!`.
const ExprRef &leadingTest(const ExprRef &E) {
  if (const auto *B = dyn_cast<BinaryExpr>(E))
    if (B->op() == BinaryOp::And || B->op() == BinaryOp::Or)
      return leadingTest(B->lhs());
  if (const auto *U = dyn_cast<UnaryExpr>(E))
    if (U->op() == UnaryOp::Not)
      return leadingTest(U->operand());
  return E;
}

bool isShortCircuit(const ExprRef &E) {
  const auto *B = dyn_cast<BinaryExpr>(E);
  return B && (B->op() == BinaryOp::And || B->op() == BinaryOp::Or);
}

bool readsSequence(const ExprRef &E) { return !collectSeqNames(E).empty(); }

std::string cppType(Type Ty) { return Ty == Type::Int ? "int64_t" : "bool"; }

/// Renders an expression as C++. \p VarRef maps variable names (state
/// variables to struct accesses, join variables to left/right accesses);
/// sequence reads render through \p SeqElem.
///
/// Conditionals and short-circuit operators become branch-free
/// `parsynt::ops::select`, `both` and `either` calls where a jump would be
/// mispredicted or, in a chained leaf, would stop the compiler from
/// interleaving the chains (DESIGN.md §5i). Every expression is pure and total (wrapping
/// arithmetic, total division, reads at the loop index), so evaluating
/// both arms is exact.
class CppPrinter {
public:
  std::function<std::string(const std::string &)> VarRef;
  std::function<std::string(const SeqAccessExpr &)> SeqElem;
  /// The expression is a step of a loop whose leaf runs interleaved
  /// chains.
  bool Chained = false;

  std::string print(const ExprRef &E) const { return print(E, false); }

private:
  /// Whether `c ? t : f` stays a conditional jump. Only a conditional
  /// update `c ? e : x` of a variable x does. A bool update keeps it while
  /// c reads only state (a position test is predicted; a select costs ops on
  /// every element). An int update keeps it, which the compiler turns into
  /// a cmov, an add of the condition or a predicted jump on a flag, except
  /// in a chained step when c is a short-circuit test that jumps first on a
  /// sequence element: across chains the compiler keeps that jump.
  bool keepsJump(const IteExpr &I) const {
    if (!isa<VarExpr>(I.thenExpr()) && !isa<VarExpr>(I.elseExpr()))
      return false;
    if (I.type() == Type::Bool)
      return !readsSequence(I.cond());
    return !(Chained && isShortCircuit(I.cond()) &&
             readsSequence(leadingTest(I.cond())));
  }

  /// \p InJumpCond: \p E is part of the condition of a conditional update
  /// that keeps its jump.
  std::string print(const ExprRef &E, bool InJumpCond) const {
    auto sub = [&](const ExprRef &Child) { return print(Child, InJumpCond); };
    switch (E->kind()) {
    case ExprKind::IntConst: {
      int64_t V = cast<IntConstExpr>(E)->value();
      std::ostringstream OS;
      OS << "INT64_C(" << V << ")";
      return OS.str();
    }
    case ExprKind::BoolConst:
      return cast<BoolConstExpr>(E)->value() ? "true" : "false";
    case ExprKind::Var:
      return VarRef(cast<VarExpr>(E)->name());
    case ExprKind::SeqAccess:
      return SeqElem(*cast<SeqAccessExpr>(E));
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      return std::string(U->op() == UnaryOp::Neg ? "parsynt::ops::neg"
                                                 : "!") +
             "(" + sub(U->operand()) + ")";
    }
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      auto call = [&](const char *Fn) {
        return std::string(Fn) + "(" + sub(B->lhs()) + ", " + sub(B->rhs()) +
               ")";
      };
      switch (B->op()) {
      case BinaryOp::Min:
        return call("std::min<int64_t>");
      case BinaryOp::Max:
        return call("std::max<int64_t>");
      // Wrapping arithmetic and total division: the operators synthesis
      // judged candidates with (interp/OpSemantics.h), free of overflow UB.
      case BinaryOp::Add:
        return call("parsynt::ops::Add()");
      case BinaryOp::Sub:
        return call("parsynt::ops::Sub()");
      case BinaryOp::Mul:
        return call("parsynt::ops::Mul()");
      case BinaryOp::Div:
        return call("parsynt::ops::Div()");
      case BinaryOp::And:
      case BinaryOp::Or:
        // In one chain a jump on a flag lets the loop skip the rest of the
        // condition, and the compiler if-converts the others. Across
        // chains it builds a tree of jumps instead; only a jump on a state
        // flag that guards a kept conditional update still pays there.
        if (Chained && (!InJumpCond || readsSequence(leadingTest(E))))
          return call(B->op() == BinaryOp::And ? "parsynt::ops::both"
                                               : "parsynt::ops::either");
        [[fallthrough]];
      default:
        return "(" + sub(B->lhs()) + " " + binaryOpName(B->op()) + " " +
               sub(B->rhs()) + ")";
      }
    }
    case ExprKind::Ite: {
      const auto *I = cast<IteExpr>(E);
      if (keepsJump(*I))
        return "(" + print(I->cond(), true) + " ? " + sub(I->thenExpr()) +
               " : " + sub(I->elseExpr()) + ")";
      // c ? x + e : x adds the selected increment: x + (c ? e : 0), which
      // GCC turns into an add of the condition (DESIGN.md §5i).
      const auto *Inc = dyn_cast<BinaryExpr>(I->thenExpr());
      if (Inc && Inc->op() == BinaryOp::Add && Inc->lhs() == I->elseExpr())
        return "parsynt::ops::Add()(" + sub(Inc->lhs()) +
               ", parsynt::ops::select(" + sub(I->cond()) + ", " +
               sub(Inc->rhs()) + ", INT64_C(0)))";
      return "parsynt::ops::select(" + sub(I->cond()) + ", " +
             sub(I->thenExpr()) + ", " + sub(I->elseExpr()) + ")";
    }
    }
    return "/*?*/0";
  }
};

/// The `, const int64_t *seq_<name>` parameter list of \p L's sequences; a
/// sequence outside \p Used (when given) is left unnamed.
std::string seqParams(const Loop &L,
                      const std::set<std::string> *Used = nullptr) {
  std::string Params;
  for (const SeqDecl &S : L.Sequences)
    Params += ", const int64_t *" + (!Used || Used->count(S.Name)
                                         ? "seq_" + S.Name
                                         : std::string());
  return Params;
}

std::string seqArgs(const Loop &L) {
  std::string Args;
  for (const SeqDecl &S : L.Sequences)
    Args += ", seq_" + S.Name;
  return Args;
}

/// Prints what the standalone program and the native kernel share for \p L:
/// the `State` struct, `init()`, `step()`, the single-chain `run()` and,
/// unless \p Join is empty (the sequential fallback), `join()` and the
/// chained `leaf()`.
void printLoopFunctions(std::ostream &OS, const Loop &L,
                        const std::vector<ExprRef> &Join) {
  // State struct.
  OS << "struct State {\n";
  for (const Equation &Eq : L.Equations)
    OS << "  " << cppType(Eq.Ty) << " " << Eq.Name << ";\n";
  OS << "};\n\n";

  // init().
  {
    CppPrinter P;
    P.VarRef = [](const std::string &Name) { return Name; }; // params only
    P.SeqElem = [](const SeqAccessExpr &) { return std::string("0"); };
    OS << "static State init() {\n  State st;\n";
    for (const Equation &Eq : L.Equations)
      OS << "  st." << Eq.Name << " = " << P.print(Eq.Init) << ";\n";
    OS << "  return st;\n}\n\n";
  }

  // step(): one iteration with simultaneous-assignment semantics. The index
  // is an Int of the loop language, so it is passed as int64_t; an index or
  // sequence the updates never read is left unnamed.
  {
    std::set<std::string> Read;
    for (const Equation &Eq : L.Equations) {
      for (const std::string &Name : collectAllVars(Eq.Update))
        Read.insert(Name);
      for (const std::string &Name : collectSeqNames(Eq.Update))
        Read.insert(Name);
    }
    CppPrinter P;
    P.Chained = !Join.empty();
    P.VarRef = [&](const std::string &Name) {
      if (L.findEquation(Name))
        return "st." + Name;
      return Name; // parameter or the index variable
    };
    P.SeqElem = [&](const SeqAccessExpr &Access) {
      return "seq_" + Access.seqName() + "[" + P.print(Access.index()) + "]";
    };
    OS << "static inline void step(State &st, int64_t"
       << (Read.count(L.IndexName) ? " " + L.IndexName : std::string())
       << seqParams(L, &Read) << ") {\n";
    OS << "  State n = st;\n";
    for (size_t I = 0; I != L.Equations.size(); ++I)
      OS << "  n." << L.Equations[I].Name << " = "
         << P.print(L.Equations[I].Update) << ";\n";
    OS << "  st = n;\n}\n\n";
  }

  // run(): the sequential run over [first, last), one chain, no join.
  OS << "static State run(size_t first, size_t last" << seqParams(L)
     << ") {\n  State st = init();\n"
        "  for (size_t i = first; i < last; ++i)\n    step(st, i"
     << seqArgs(L) << ");\n  return st;\n}\n\n";

  // join(): the synthesized operator.
  if (!Join.empty()) {
    CppPrinter P;
    P.VarRef = [&](const std::string &Name) -> std::string {
      for (const Equation &Eq : L.Equations) {
        if (Name == splitName(Eq.Name, Side::Left))
          return "l." + Eq.Name;
        if (Name == splitName(Eq.Name, Side::Right))
          return "r." + Eq.Name;
      }
      return Name; // parameter
    };
    P.SeqElem = [](const SeqAccessExpr &) { return std::string("0"); };
    OS << "static State join(const State &l, const State &r) {\n  State "
          "st;\n";
    for (size_t I = 0; I != L.Equations.size(); ++I)
      OS << "  st." << L.Equations[I].Name << " = " << P.print(Join[I])
         << ";\n";
    OS << "  return st;\n}\n\n";

    // leaf(): [first, last) as LeafChains interleaved chains over
    // contiguous sub-ranges, combined with join() as parallelReduce combines
    // leaves; a range too short to give every chain an element is one chain.
    const std::string Args = seqArgs(L);
    OS << "static State leaf(size_t first, size_t last" << seqParams(L)
       << ") {\n  const size_t q = (last - first) / " << LeafChains
       << ";\n  if (q == 0)\n    return run(first, last" << Args << ");\n";
    for (int C = 0; C != LeafChains; ++C)
      OS << "  State c" << C << " = init();\n";
    OS << "  for (size_t i = first; i < first + q; ++i) {\n";
    for (int C = 0; C != LeafChains; ++C)
      OS << "    step(c" << C << ", i"
         << (C ? " + " + std::to_string(C) + " * q" : std::string()) << Args
         << ");\n";
    OS << "  }\n  for (size_t i = first + " << LeafChains
       << " * q; i < last; ++i)\n    step(c" << LeafChains - 1 << ", i"
       << Args << ");\n  State st = c0;\n";
    for (int C = 1; C != LeafChains; ++C)
      OS << "  st = join(st, c" << C << ");\n";
    OS << "  return st;\n}\n\n";
  }
}

} // namespace

std::string parsynt::emitParallelCpp(const Loop &L,
                                     const std::vector<ExprRef> &Join,
                                     const EmitCppOptions &Options) {
  // An empty join is the pipeline's sequential-fallback signal (synthesis
  // failed or timed out): emit a correct single-threaded program instead.
  const bool Sequential = Join.empty();
  assert((Sequential || Join.size() == L.Equations.size()) &&
         "join arity mismatch");
  std::ostringstream OS;
  const std::string LoopName = L.Name.empty() ? "loop" : L.Name;
  Span EmitSpan("emitParallelCpp", trace::Codegen);
  EmitSpan.attr("loop", LoopName);
  EmitSpan.attr("sequential_fallback", Sequential);
  MetricsRegistry::global().counter("codegen.emits").inc();
  if (Sequential)
    MetricsRegistry::global().counter("codegen.sequential_emits").inc();

  OS << "// Generated by parsynt-cxx from loop '" << LoopName << "'.\n";
  if (Sequential) {
    OS << "// SEQUENTIAL FALLBACK: no join operator was synthesized "
          "(synthesis failed\n// or timed out), so the loop runs "
          "single-threaded. The program is still a\n// correct rendering "
          "of the input loop.\n";
  } else {
    OS << "// Divide-and-conquer parallelization per 'Synthesis of Divide "
          "and Conquer\n// Parallelism for Loops' (PLDI 2017).\n";
    OS << "// Runs on the parsynt header-only work-stealing runtime.\n";
  }
  OS << "// Build: g++ -O2 -std=c++17 -pthread -I <parsynt>/src "
        "<this-file>.cpp\n\n";
  if (!Sequential)
    OS << "#include \"runtime/ParallelReduce.h\"\n";
  // The operator semantics synthesis evaluated the loop and join under.
  OS << "#include \"interp/OpSemantics.h\"\n";
  // The same header-only tracer the synthesis pipeline links: setting
  // PARSYNT_TRACE=<file> in the environment makes this program dump a
  // Chrome-JSON trace of its own leaf/join execution.
  OS << "#include \"observe/Tracer.h\"\n\n";
  OS << "#include <algorithm>\n#include <cstdint>\n#include <cstdio>\n"
        "#include <cstdlib>\n#include <random>\n#include <vector>\n\n";
  // Parameters as globals (bound in main).
  for (const ParamDecl &P : L.Params)
    OS << "static " << cppType(P.Ty) << " " << P.Name << ";\n";
  if (!L.Params.empty())
    OS << "\n";

  printLoopFunctions(OS, L, Join);
  const std::string SeqParams = seqParams(L), SeqArgs = seqArgs(L);

  if (Sequential) {
    // No join: the whole range is one leaf, run on the calling thread.
    OS << "static State parallel_run(size_t first, size_t last" << SeqParams
       << ") {\n  return run(first, last" << SeqArgs << ");\n}\n\n";
  } else {
    // The fork-join driver: the shared work-stealing skeleton (same
    // scheduler as InterpReduce and the Figure-8 harness).
    OS << "static State parallel_run(size_t first, size_t last" << SeqParams
       << ", parsynt::TaskPool &pool) {\n"
          "  constexpr size_t kGrain = "
       << Options.Grain
       << ";\n"
          "  return parsynt::parallelReduce<State>(\n"
          "      parsynt::BlockedRange{first, last, kGrain}, pool,\n"
          "      [&](size_t b, size_t e) { return leaf(b, e"
       << SeqArgs
       << "); },\n"
          "      [](const State &l, const State &r) { return join(l, r); "
          "});\n}\n\n";
  }

  // main(): self-check against run(), the one code path without join(), so
  // a wrong join cannot also be in the reference.
  OS << "int main() {\n";
  OS << "  const char *trace_path = std::getenv(\"PARSYNT_TRACE\");\n"
        "  if (trace_path)\n    parsynt::Tracer::setEnabled(true);\n";
  OS << "  const size_t n = " << Options.SelfCheckElements << ";\n";
  OS << "  std::mt19937_64 rng(42);\n";
  for (const SeqDecl &S : L.Sequences) {
    OS << "  std::vector<int64_t> " << S.Name << "_data(n);\n";
    OS << "  for (auto &v : " << S.Name
       << "_data) v = static_cast<int64_t>(rng() % 201) - 100;\n";
  }
  for (const ParamDecl &P : L.Params)
    OS << "  " << P.Name << " = 3;\n";
  std::string DataArgs;
  for (const SeqDecl &S : L.Sequences)
    DataArgs += ", " + S.Name + "_data.data()";
  OS << "  State seq = run(0, n" << DataArgs << ");\n";
  OS << "  parsynt::Span run_span(\"parallel_run\", parsynt::trace::Runtime);\n";
  if (Sequential) {
    OS << "  State par = parallel_run(0, n" << DataArgs << ");\n";
  } else {
    // defaultThreadCount() clamps hardware_concurrency()'s permitted 0
    // return to 1 — the guard lives in the shared runtime, not here.
    OS << "  parsynt::TaskPool pool(parsynt::defaultThreadCount());\n";
    OS << "  State par = parallel_run(0, n" << DataArgs << ", pool);\n";
  }
  OS << "  run_span.finish();\n";
  OS << "  if (trace_path)\n    parsynt::dumpChromeTrace(trace_path);\n";
  OS << "  bool ok = true;\n";
  for (const Equation &Eq : L.Equations)
    OS << "  ok = ok && (seq." << Eq.Name << " == par." << Eq.Name << ");\n";
  OS << "  std::printf(\"%s\\n\", ok ? "
     << (Sequential ? "\"sequential fallback ok\"" : "\"parallel == sequential\"")
     << " : \"MISMATCH\");\n";
  OS << "  return ok ? 0 : 1;\n}\n";
  return OS.str();
}

std::string parsynt::kernelIdentifier(const std::string &Name) {
  std::string Id;
  for (size_t I = 0; I != Name.size(); ++I) {
    char C = Name[I];
    if (C == '\'')
      continue;
    if (Name.compare(I, 2, "()") == 0) {
      Id += "parens";
      ++I;
    } else if (C == '*') {
      Id += "star";
    } else {
      Id += std::isalnum(static_cast<unsigned char>(C)) ? C : '_';
    }
  }
  return Id;
}

namespace {

/// Prints `pack()` (State -> KState) and, for the lifted loop, `unpack()`,
/// with \p Slot giving each state variable's KState slot.
void printSlotMapping(std::ostream &OS, const Loop &L,
                      const std::map<std::string, size_t> &Slot,
                      bool WithUnpack) {
  OS << "static_assert(" << L.Equations.size()
     << " <= parsynt::KState::Capacity, \"state wider than KState\");\n\n";
  OS << "static parsynt::KState pack(const State &st) {\n"
        "  parsynt::KState k;\n";
  for (const Equation &Eq : L.Equations)
    OS << "  k.V[" << Slot.at(Eq.Name) << "] = st." << Eq.Name << ";\n";
  OS << "  return k;\n}\n\n";
  if (!WithUnpack)
    return;
  OS << "static State unpack(const parsynt::KState &k) {\n  State st;\n";
  for (const Equation &Eq : L.Equations)
    OS << "  st." << Eq.Name << " = k.V[" << Slot.at(Eq.Name) << "]"
       << (Eq.Ty == Type::Bool ? " != 0" : "") << ";\n";
  OS << "  return st;\n}\n\n";
}

/// The `const int64_t *A, const int64_t *B` pair of a NativeKernel function,
/// named after \p L's (at most two) sequences.
std::string kernelSeqParams(const Loop &L) {
  assert(L.Sequences.size() <= 2 && "a native kernel reads at most two "
                                    "sequences");
  std::string Params = "const int64_t *";
  if (!L.Sequences.empty())
    Params += "seq_" + L.Sequences[0].Name;
  Params += ", const int64_t *";
  if (L.Sequences.size() > 1)
    Params += "seq_" + L.Sequences[1].Name;
  return Params;
}

} // namespace

std::string parsynt::emitNativeKernel(const Loop &Original, const Loop &Lifted,
                                      const std::vector<ExprRef> &Join,
                                      const std::string &ResultVar) {
  assert(Join.size() == Lifted.Equations.size() && "join arity mismatch");
  // Each original variable keeps its slot; the lifted loop's auxiliaries
  // take the slots after them, in the lifted loop's order.
  std::map<std::string, size_t> Slot;
  for (const Equation &Eq : Original.Equations)
    Slot.emplace(Eq.Name, Slot.size());
  for (const Equation &Eq : Lifted.Equations)
    Slot.emplace(Eq.Name, Slot.size());
  assert(Slot.size() == Lifted.Equations.size() &&
         "the lifted loop drops an original variable");
  assert(Original.findEquation(ResultVar) && "result is not a state variable");

  std::ostringstream OS;
  std::vector<std::string> BySlot(Slot.size());
  for (const auto &KV : Slot)
    BySlot[KV.second] = KV.first;
  OS << "// Generated by parsynt-cxx from benchmark '" << Original.Name
     << "' (its Figure-8 kernel).\n"
        "// Do not edit: regenerate with tools/ci/regen_kernels.sh.\n"
        "// sequential: the original loop; leaf, join: the lifted loop and "
        "its join;\n// output: '"
     << ResultVar << "'. KState slots:";
  for (size_t I = 0; I != BySlot.size(); ++I)
    OS << (I ? ", " : " ") << I << " " << BySlot[I];
  OS << ".\n\nnamespace kernel_" << kernelIdentifier(Original.Name)
     << " {\n\n";
  // Parameters at the value the self-checking programs bind them to.
  for (const ParamDecl &P : Lifted.Params)
    OS << "constexpr " << cppType(P.Ty) << " " << P.Name << " = 3;\n";
  if (!Lifted.Params.empty())
    OS << "\n";

  OS << "namespace original {\n\n";
  printLoopFunctions(OS, Original, {});
  printSlotMapping(OS, Original, Slot, /*WithUnpack=*/false);
  OS << "} // namespace original\n\nnamespace lifted {\n\n";
  printLoopFunctions(OS, Lifted, Join);
  printSlotMapping(OS, Lifted, Slot, /*WithUnpack=*/true);
  OS << "} // namespace lifted\n\n";

  OS << "parsynt::KState sequential(" << kernelSeqParams(Original)
     << ", size_t n) {\n  return original::pack(original::run(0, n"
     << seqArgs(Original) << "));\n}\n\n";
  OS << "parsynt::KState leaf(" << kernelSeqParams(Lifted)
     << ", size_t first, size_t last) {\n"
        "  return lifted::pack(lifted::leaf(first, last"
     << seqArgs(Lifted) << "));\n}\n\n";
  OS << "parsynt::KState join(const parsynt::KState &l, const "
        "parsynt::KState &r) {\n"
        "  return lifted::pack(lifted::join(lifted::unpack(l), "
        "lifted::unpack(r)));\n}\n\n";
  OS << "int64_t output(const parsynt::KState &k) { return k.V["
     << Slot.at(ResultVar) << "]; }\n\n";
  OS << "} // namespace kernel_" << kernelIdentifier(Original.Name) << "\n";
  return OS.str();
}
