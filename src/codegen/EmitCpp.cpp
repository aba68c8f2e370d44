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

/// The lanes of one `parsynt::ops::Lanes` vector (256 bits of 64-bit
/// values), and the vectors a lane leaf steps side by side: two, so that a
/// step's loop-carried latency (a compare and a blend for `max`) is hidden
/// (DESIGN.md §5i). A leaf runs LaneWidth * LaneVectors blocks.
constexpr int LaneWidth = 4;
constexpr int LaneVectors = 2;

bool readsSequence(const ExprRef &E) { return !collectSeqNames(E).empty(); }

std::string cppType(Type Ty) { return Ty == Type::Int ? "int64_t" : "bool"; }

std::string intLiteral(const IntConstExpr &C) {
  return "INT64_C(" + std::to_string(C.value()) + ")";
}

/// Renders an expression as C++. \p VarRef maps variable names (state
/// variables to struct accesses, join variables to left/right accesses);
/// sequence reads render through \p SeqElem.
///
/// Conditionals become branch-free `parsynt::ops::select` calls where a
/// jump would be mispredicted (DESIGN.md §5i). Every expression is pure and
/// total (wrapping arithmetic, total division, reads at the loop index), so
/// evaluating both arms is exact.
class CppPrinter {
public:
  std::function<std::string(const std::string &)> VarRef;
  std::function<std::string(const SeqAccessExpr &)> SeqElem;

  std::string print(const ExprRef &E) const {
    auto sub = [&](const ExprRef &Child) { return print(Child); };
    switch (E->kind()) {
    case ExprKind::IntConst:
      return intLiteral(*cast<IntConstExpr>(E));
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
      default:
        return "(" + sub(B->lhs()) + " " + binaryOpName(B->op()) + " " +
               sub(B->rhs()) + ")";
      }
    }
    case ExprKind::Ite: {
      const auto *I = cast<IteExpr>(E);
      if (keepsJump(*I))
        return "(" + sub(I->cond()) + " ? " + sub(I->thenExpr()) + " : " +
               sub(I->elseExpr()) + ")";
      return "parsynt::ops::select(" + sub(I->cond()) + ", " +
             sub(I->thenExpr()) + ", " + sub(I->elseExpr()) + ")";
    }
    }
    return "/*?*/0";
  }

private:
  /// Whether `c ? t : f` stays a conditional jump. Only a conditional
  /// update `c ? e : x` of a variable x does. A bool update keeps it while
  /// c reads only state (a position test is predicted; a select costs ops on
  /// every element). An int update keeps it, which the compiler turns into
  /// a cmov, an add of the condition or a predicted jump on a flag.
  static bool keepsJump(const IteExpr &I) {
    if (!isa<VarExpr>(I.thenExpr()) && !isa<VarExpr>(I.elseExpr()))
      return false;
    return I.type() == Type::Int || !readsSequence(I.cond());
  }
};

/// `parsynt::ops::Lanes` holding \p Scalar, a value of type \p Ty, in every
/// lane: a bool as the mask 0 or -1.
std::string splat(const std::string &Scalar, Type Ty) {
  return std::string("(Lanes{} ") + (Ty == Type::Int ? "+ " : "- ") + Scalar +
         ")";
}

/// Renders an expression as C++ over `parsynt::ops::Lanes` vectors, one
/// lane per block of a lane leaf (DESIGN.md §5i). An int is a lane value, a
/// bool a mask of 0 or -1 per lane, so comparisons, `&&`, `||`, `!` and
/// conditionals are vector compares, bitwise operators and selects, with no
/// jump. `+ - *` and negation run on `ULanes`, so they wrap as
/// `parsynt::ops` does; `/` applies `parsynt::ops::Div` lane by lane.
/// \p VarRef maps a variable name to a vector; sequence reads render
/// through \p SeqElem. An operand that the rendering reads more than once
/// is bound to a temporary first, declared in \p Temps.
class LanePrinter {
public:
  std::function<std::string(const std::string &)> VarRef;
  std::function<std::string(const SeqAccessExpr &)> SeqElem;
  /// `const Lanes tN = ...;` lines, in dependency order.
  std::string Temps;

  std::string print(const ExprRef &E) {
    auto sub = [&](const ExprRef &Child) { return print(Child); };
    switch (E->kind()) {
    case ExprKind::IntConst:
      return splat(intLiteral(*cast<IntConstExpr>(E)), Type::Int);
    case ExprKind::BoolConst:
      return cast<BoolConstExpr>(E)->value() ? "~Lanes{}" : "Lanes{}";
    case ExprKind::Var:
      return VarRef(cast<VarExpr>(E)->name());
    case ExprKind::SeqAccess:
      return SeqElem(*cast<SeqAccessExpr>(E));
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      if (U->op() == UnaryOp::Neg)
        return "Lanes(-ULanes(" + sub(U->operand()) + "))";
      return "(~" + sub(U->operand()) + ")";
    }
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      switch (B->op()) {
      case BinaryOp::Min:
      case BinaryOp::Max: {
        std::string L = temp(B->lhs()), R = temp(B->rhs());
        return "(" + L + (B->op() == BinaryOp::Min ? " < " : " > ") + R +
               " ? " + L + " : " + R + ")";
      }
      case BinaryOp::Add:
      case BinaryOp::Sub:
      case BinaryOp::Mul:
        return "Lanes(ULanes(" + sub(B->lhs()) + ") " +
               binaryOpName(B->op()) + " ULanes(" + sub(B->rhs()) + "))";
      case BinaryOp::Div: {
        std::string L = temp(B->lhs()), R = temp(B->rhs()), Quotients;
        for (int K = 0; K != LaneWidth; ++K)
          Quotients += std::string(K ? ", " : "") + "parsynt::ops::Div()(" +
                       L + "[" + std::to_string(K) + "], " + R + "[" +
                       std::to_string(K) + "])";
        return "Lanes{" + Quotients + "}";
      }
      case BinaryOp::And:
      case BinaryOp::Or:
        return "(" + sub(B->lhs()) +
               (B->op() == BinaryOp::And ? " & " : " | ") + sub(B->rhs()) +
               ")";
      default:
        return "(" + sub(B->lhs()) + " " + binaryOpName(B->op()) + " " +
               sub(B->rhs()) + ")";
      }
    }
    case ExprKind::Ite: {
      const auto *I = cast<IteExpr>(E);
      return "(" + sub(I->cond()) + " ? " + sub(I->thenExpr()) + " : " +
             sub(I->elseExpr()) + ")";
    }
    }
    return "/*?*/Lanes{}";
  }

private:
  /// A name for \p E: itself if it is a variable, a constant or an element,
  /// else a temporary holding it (one per distinct node).
  std::string temp(const ExprRef &E) {
    if (isa<VarExpr>(E) || isa<IntConstExpr>(E) || isa<BoolConstExpr>(E) ||
        isa<SeqAccessExpr>(E))
      return print(E);
    auto It = Named.find(E.get());
    if (It != Named.end())
      return It->second;
    std::string Value = print(E);
    std::string Name = "t" + std::to_string(Named.size());
    Temps += "      const Lanes " + Name + " = " + Value + ";\n";
    Named.emplace(E.get(), Name);
    return Name;
  }

  std::map<const Expr *, std::string> Named;
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

/// Prints `leaf(first, last)` for \p L, whose `State`, `init()`, `step()`,
/// `run()` and `join()` are already printed: the range as LaneVectors
/// vector states of LaneWidth lanes each, one lane per contiguous,
/// non-empty block, unpacked into `State`s and folded with `join()` in
/// block order, as parallelReduce combines leaves (DESIGN.md §5i). The
/// last block takes the remainder, through `step()`; a range too short to
/// give every lane an element runs as `run()`.
void printLaneLeaf(std::ostream &OS, const Loop &L) {
  std::set<std::string> SeqsRead;
  for (const Equation &Eq : L.Equations)
    for (const std::string &Name : collectSeqNames(Eq.Update))
      SeqsRead.insert(Name);
  // Whether an update reads the index other than as a subscript.
  bool IndexRead = false;
  LanePrinter P;
  P.VarRef = [&](const std::string &Name) -> std::string {
    if (L.findEquation(Name))
      return "st[h]." + Name;
    if (Name == L.IndexName) {
      IndexRead = true;
      return "ix[h]";
    }
    for (const ParamDecl &Param : L.Params)
      if (Param.Name == Name)
        return splat(Name, Param.Ty);
    return Name;
  };
  P.SeqElem = [](const SeqAccessExpr &Access) {
    return "el_" + Access.seqName();
  };
  std::vector<std::string> Updates;
  for (const Equation &Eq : L.Equations)
    Updates.push_back(P.print(Eq.Update));

  const std::string W = std::to_string(LaneWidth),
                    V = std::to_string(LaneVectors),
                    Blocks = std::to_string(LaneWidth * LaneVectors),
                    EachVector = "for (int h = 0; h != " + V + "; ++h)";
  // {Base + W * h * Step<Close>, Base + (W * h + 1) * Step<Close>, ...}:
  // the value at Base in each lane's block of vector h.
  auto lanes = [&](const std::string &Base, const std::string &Step,
                   const std::string &Close) {
    std::string List = Base + " + " + W + " * h * " + Step + Close;
    for (int K = 1; K != LaneWidth; ++K)
      List += ", " + Base + " + (" + W + " * h + " + std::to_string(K) +
              ") * " + Step + Close;
    return "{" + List + "}";
  };
  OS << "PARSYNT_LANE_CLONES\nstatic State leaf(size_t first, size_t last"
     << seqParams(L) << ") {\n"
     << "  using parsynt::ops::Lanes;\n  using parsynt::ops::ULanes;\n"
     << "  const size_t q = (last - first) / " << Blocks << ";\n"
     << "  if (q == 0)\n    return run(first, last" << seqArgs(L) << ");\n"
     << "  struct LaneState {\n";
  for (const Equation &Eq : L.Equations)
    OS << "    Lanes " << Eq.Name << ";\n";
  OS << "  };\n  const State s0 = init();\n  LaneState st[" << V << "];\n";
  if (IndexRead)
    OS << "  const int64_t i0 = static_cast<int64_t>(first), q0 = "
          "static_cast<int64_t>(q);\n  Lanes ix[" << V << "];\n";
  OS << "  " << EachVector << " {\n";
  for (const Equation &Eq : L.Equations)
    OS << "    st[h]." << Eq.Name << " = " << splat("s0." + Eq.Name, Eq.Ty)
       << ";\n";
  if (IndexRead)
    OS << "    ix[h] = Lanes" << lanes("i0", "q0", "") << ";\n";
  OS << "  }\n  for (size_t i = first; i != first + q; ++i) {\n"
     << "#pragma GCC unroll " << V << "\n    " << EachVector << " {\n";
  for (const std::string &Seq : SeqsRead)
    OS << "      const Lanes el_" << Seq << " = "
       << lanes("seq_" + Seq + "[i", "q", "]") << ";\n";
  OS << P.Temps << "      LaneState n;\n";
  for (size_t I = 0; I != L.Equations.size(); ++I)
    OS << "      n." << L.Equations[I].Name << " = " << Updates[I] << ";\n";
  OS << "      st[h] = n;\n"
     << (IndexRead ? "      ix[h] += 1;\n" : "") << "    }\n  }\n"
     << "  State c[" << Blocks << "];\n  " << EachVector
     << "\n    for (int k = 0; k != " << W << "; ++k) {\n";
  for (const Equation &Eq : L.Equations)
    OS << "      c[" << W << " * h + k]." << Eq.Name << " = st[h]."
       << Eq.Name << "[k]" << (Eq.Ty == Type::Bool ? " != 0" : "") << ";\n";
  OS << "    }\n  for (size_t i = first + " << Blocks
     << " * q; i < last; ++i)\n    step(c[" << LaneWidth * LaneVectors - 1
     << "], i" << seqArgs(L) << ");\n"
     << "  State r = c[0];\n  for (int k = 1; k != " << Blocks
     << "; ++k)\n    r = join(r, c[k]);\n  return r;\n}\n\n";
}

/// Prints what the standalone program and the native kernel share for \p L:
/// the `State` struct, `init()`, `step()`, the single-chain `run()` and,
/// unless \p Join is empty (the sequential fallback), `join()` and the
/// lane `leaf()`.
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
    printLaneLeaf(OS, L);
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
