//===- codegen/CEmitter.cpp - Lower optimized IR to C ---------------------===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The lowering is deliberately literal: every register is an int64_t
// local, every block a label, every branch an `if`/`goto`.  Two details
// carry the paper's optimization into machine code:
//
//  * Blocks are emitted in Function layout order — the order
//    opt/Repositioning produced.  A CondBr whose fall-through is the
//    physically-next block emits no `goto` for the not-taken edge, and a
//    JumpInst flagged isFallThrough() emits nothing at all, exactly
//    mirroring the cost model (fall-throughs are free).
//
//  * Everything observable matches sim/Interpreter bit-for-bit: the
//    wrap-around arithmetic, the trap conditions and their exact message
//    strings, the instruction-limit fuel, the 2000-frame depth guard,
//    and the I/O byte stream.  The fuzz oracle leans on this.
//
// Traps unwind via longjmp out of arbitrarily deep native frames; the
// emitted context is heap-backed and self-contained, so the generated
// code is reentrant and thread-safe (no mutable globals).
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"

#include "codegen/NativeABI.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Instruction.h"
#include "ir/Module.h"
#include "ir/Operand.h"
#include "support/Strings.h"

#include <cassert>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace bropt {

namespace {

/// The function bropt_native_run invokes.
const char *const EntryName = "main";

/// Escapes \p S for inclusion in a C string literal.
std::string escapeC(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char Ch : S) {
    switch (Ch) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      if (Ch < 0x20 || Ch >= 0x7f)
        Out += formatString("\\%03o", Ch);
      else
        Out += (char)Ch;
    }
  }
  return Out;
}

/// Renders \p V as a C int64 literal.  INT64_MIN has no direct literal
/// spelling in C (9223372036854775808 overflows long long), hence the
/// subtraction form.
std::string immLiteral(int64_t V) {
  if (V == INT64_MIN)
    return "(-9223372036854775807LL - 1)";
  return formatString("%lldLL", (long long)V);
}

/// Renders an operand as a C expression.
std::string ref(const Operand &Op) {
  if (Op.isReg())
    return formatString("r%u", Op.getReg());
  return immLiteral(Op.getImm());
}

const char *ccOperator(CondCode CC) {
  switch (CC) {
  case CondCode::EQ:
    return "==";
  case CondCode::NE:
    return "!=";
  case CondCode::LT:
    return "<";
  case CondCode::LE:
    return "<=";
  case CondCode::GT:
    return ">";
  case CondCode::GE:
    return ">=";
  }
  return "==";
}

/// The fixed TU preamble: result struct (mirrors codegen/NativeABI.h),
/// execution context, and the runtime helpers the lowered code calls.
const char *Preamble = R"C(#include <setjmp.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

typedef struct bropt_native_result {
  long long exit_value;
  int trapped;
  char trap_reason[512];
  char *output;
  unsigned long long output_size;
} bropt_native_result;

typedef struct bropt_ctx {
  int64_t *mem;
  uint64_t mem_size;
  const char *in;
  uint64_t in_size;
  uint64_t in_cur;
  char *out;
  uint64_t out_len;
  uint64_t out_cap;
  uint64_t fuel;  /* remaining countable instructions */
  uint64_t depth; /* active call frames */
  int trapped;
  char trap_reason[512];
  jmp_buf trap_jmp;
} bropt_ctx;

static _Noreturn void bropt_trap(bropt_ctx *C, const char *msg) {
  snprintf(C->trap_reason, sizeof C->trap_reason, "%s", msg);
  C->trapped = 1;
  longjmp(C->trap_jmp, 1);
}

static _Noreturn void bropt_trapll(bropt_ctx *C, const char *fmt, long long v) {
  snprintf(C->trap_reason, sizeof C->trap_reason, fmt, v);
  C->trapped = 1;
  longjmp(C->trap_jmp, 1);
}

static void bropt_out_reserve(bropt_ctx *C, uint64_t n) {
  uint64_t cap;
  char *p;
  if (C->out_len + n <= C->out_cap)
    return;
  cap = C->out_cap ? C->out_cap * 2 : 64;
  if (cap < C->out_len + n)
    cap = C->out_len + n;
  p = (char *)realloc(C->out, cap);
  if (!p)
    bropt_trap(C, "native output allocation failed");
  C->out = p;
  C->out_cap = cap;
}

static void bropt_putc(bropt_ctx *C, int64_t v) {
  bropt_out_reserve(C, 1);
  C->out[C->out_len++] = (char)((uint64_t)v & 0xff);
}

static void bropt_printi(bropt_ctx *C, int64_t v) {
  char buf[32];
  int n = snprintf(buf, sizeof buf, "%lld\n", (long long)v);
  bropt_out_reserve(C, (uint64_t)n);
  memcpy(C->out + C->out_len, buf, (size_t)n);
  C->out_len += (uint64_t)n;
}

static int64_t bropt_readc(bropt_ctx *C) {
  if (C->in_cur < C->in_size)
    return (int64_t)(unsigned char)C->in[C->in_cur++];
  return -1;
}

/* Arithmetic shift right without implementation-defined behavior. */
static int64_t bropt_shr(int64_t v, int64_t amt) {
  uint64_t s = (uint64_t)amt & 63;
  if (v < 0)
    return (int64_t)~(~(uint64_t)v >> s);
  return (int64_t)((uint64_t)v >> s);
}

static int64_t bropt_div(bropt_ctx *C, int64_t l, int64_t r) {
  if (r == 0)
    bropt_trap(C, "division by zero");
  if (l == (-9223372036854775807LL - 1) && r == -1)
    bropt_trap(C, "division overflow");
  return l / r;
}

static int64_t bropt_rem(bropt_ctx *C, int64_t l, int64_t r) {
  if (r == 0)
    bropt_trap(C, "remainder by zero");
  if (l == (-9223372036854775807LL - 1) && r == -1)
    bropt_trap(C, "remainder overflow");
  return l % r;
}

static int64_t bropt_load(bropt_ctx *C, int64_t base, int64_t off) {
  int64_t a = (int64_t)((uint64_t)base + (uint64_t)off);
  if (a < 0 || (uint64_t)a >= C->mem_size)
    bropt_trapll(C, "load from invalid address %lld", (long long)a);
  return C->mem[a];
}

static void bropt_store(bropt_ctx *C, int64_t base, int64_t off, int64_t v) {
  int64_t a = (int64_t)((uint64_t)base + (uint64_t)off);
  if (a < 0 || (uint64_t)a >= C->mem_size)
    bropt_trapll(C, "store to invalid address %lld", (long long)a);
  C->mem[a] = v;
}

#define BROPT_FUEL()                                                         \
  do {                                                                       \
    if (C->fuel == 0)                                                        \
      bropt_trap(C, "instruction limit exceeded");                           \
    C->fuel--;                                                               \
  } while (0)

)C";

/// Emits one function body.
class FunctionEmitter {
public:
  FunctionEmitter(std::string &Out, const Function &F,
                  const std::map<const Function *, unsigned> &Ids)
      : Out(Out), F(F), Ids(Ids) {}

  void emit() {
    emitSignature(/*Prototype=*/false);
    Out += " {\n";
    if (F.empty()) {
      Out += formatString(
          "  bropt_trap(C, \"function '%s' has no body\");\n",
          escapeC(F.getName()).c_str());
      Out += "}\n\n";
      return;
    }
    // The interpreter checks the frame count before pushing the frame.
    Out += "  if (C->depth > 2000)\n"
           "    bropt_trap(C, \"call depth limit exceeded\");\n"
           "  C->depth++;\n";
    emitLocals();
    std::vector<const BasicBlock *> Layout;
    for (const auto &B : F)
      Layout.push_back(B.get());
    for (size_t I = 0, N = Layout.size(); I != N; ++I)
      emitBlock(*Layout[I], I + 1 < N ? Layout[I + 1] : nullptr);
    Out += "}\n\n";
  }

  void emitSignature(bool Prototype) {
    Out += formatString("static int64_t bf%u(bropt_ctx *const C",
                        Ids.at(&F));
    for (unsigned P = 0; P != F.getNumParams(); ++P)
      Out += formatString(", int64_t r%u", P);
    Out += ")";
    if (Prototype)
      Out += formatString("; /* %s */\n", escapeC(F.getName()).c_str());
  }

private:
  void emitLocals() {
    // Params arrived as r0..rP-1; the remaining registers start at zero,
    // as in Interpreter::execFunction's zero-initialised frame.
    for (unsigned R = F.getNumParams(); R < F.getNumRegs(); ++R)
      Out += formatString("  int64_t r%u = 0;\n", R);
    Out += "  int64_t cc_l = 0, cc_r = 0;\n"
           "  (void)cc_l;\n"
           "  (void)cc_r;\n";
  }

  void emitBlock(const BasicBlock &B, const BasicBlock *Next) {
    Out += formatString("L%u: /* %s */\n", B.getId(),
                        escapeC(B.getLabel()).c_str());
    bool Terminated = false;
    for (size_t I = 0, N = B.size(); I != N; ++I) {
      const Instruction *Inst = B.getInstruction(I);
      emitInst(*Inst, Next, Terminated);
      if (Terminated)
        break;
    }
    if (!Terminated)
      Out += formatString(
          "  bropt_trap(C, \"%s fell off the end (no terminator)\");\n",
          escapeC(B.getLabel()).c_str());
  }

  void emitInst(const Instruction &I, const BasicBlock *Next,
                bool &Terminated) {
    switch (I.getKind()) {
    case InstKind::Move: {
      const auto &M = *cast<MoveInst>(&I);
      fuel();
      Out += formatString("  r%u = %s;\n", M.getDest(),
                          ref(M.getSrc()).c_str());
      return;
    }
    case InstKind::Binary:
      fuel();
      emitBinary(*cast<BinaryInst>(&I));
      return;
    case InstKind::Unary: {
      const auto &U = *cast<UnaryInst>(&I);
      fuel();
      std::string S = ref(U.getSrc());
      if (U.getOp() == UnaryOp::Neg)
        Out += formatString("  r%u = (int64_t)(-(uint64_t)%s);\n",
                            U.getDest(), S.c_str());
      else
        Out += formatString("  r%u = (%s == 0) ? 1 : 0;\n", U.getDest(),
                            S.c_str());
      return;
    }
    case InstKind::Load: {
      const auto &L = *cast<LoadInst>(&I);
      fuel();
      Out += formatString("  r%u = bropt_load(C, %s, %s);\n", L.getDest(),
                          ref(L.getBase()).c_str(),
                          immLiteral(L.getOffset()).c_str());
      return;
    }
    case InstKind::Store: {
      const auto &S = *cast<StoreInst>(&I);
      fuel();
      Out += formatString("  bropt_store(C, %s, %s, %s);\n",
                          ref(S.getBase()).c_str(),
                          immLiteral(S.getOffset()).c_str(),
                          ref(S.getValue()).c_str());
      return;
    }
    case InstKind::Cmp: {
      const auto &Cm = *cast<CmpInst>(&I);
      fuel();
      Out += formatString("  cc_l = %s;\n  cc_r = %s;\n",
                          ref(Cm.getLhs()).c_str(), ref(Cm.getRhs()).c_str());
      return;
    }
    case InstKind::Call: {
      const auto &Call = *cast<CallInst>(&I);
      fuel();
      std::string Invoke =
          formatString("bf%u(C", Ids.at(Call.getCallee()));
      for (const Operand &A : Call.getArgs())
        Invoke += ", " + ref(A);
      Invoke += ")";
      if (auto Dest = Call.getDef())
        Out += formatString("  r%u = %s;\n", *Dest, Invoke.c_str());
      else
        Out += formatString("  (void)%s;\n", Invoke.c_str());
      return;
    }
    case InstKind::ReadChar:
      fuel();
      Out += formatString("  r%u = bropt_readc(C);\n",
                          cast<ReadCharInst>(&I)->getDest());
      return;
    case InstKind::PutChar:
      fuel();
      Out += formatString("  bropt_putc(C, %s);\n",
                          ref(cast<PutCharInst>(&I)->getSrc()).c_str());
      return;
    case InstKind::PrintInt:
      fuel();
      Out += formatString("  bropt_printi(C, %s);\n",
                          ref(cast<PrintIntInst>(&I)->getSrc()).c_str());
      return;
    case InstKind::Profile:
    case InstKind::ComboProfile:
      // Profiling hooks are free in the interpreter's cost model and
      // have no native observer; they lower to nothing.
      Out += "  /* profile hook (not collected natively) */\n";
      return;
    case InstKind::CondBr: {
      const auto &Br = *cast<CondBrInst>(&I);
      fuel();
      Out += formatString("  if (cc_l %s cc_r)\n    goto L%u;\n",
                          ccOperator(Br.getPred()), Br.getTaken()->getId());
      if (Br.getFallThrough() == Next)
        Out += formatString("  /* falls through to L%u */\n",
                            Br.getFallThrough()->getId());
      else
        Out += formatString("  goto L%u;\n", Br.getFallThrough()->getId());
      Terminated = true;
      return;
    }
    case InstKind::Jump: {
      const auto &J = *cast<JumpInst>(&I);
      if (J.isFallThrough()) {
        // Repositioning marked this jump contiguous: it costs nothing in
        // the interpreter and emits nothing here.  The defensive goto
        // covers the (never expected) case of a stale flag.
        if (J.getTarget() == Next)
          Out += formatString("  /* falls through to L%u */\n",
                              J.getTarget()->getId());
        else
          Out += formatString("  goto L%u; /* flagged fall-through */\n",
                              J.getTarget()->getId());
      } else {
        fuel();
        Out += formatString("  goto L%u;\n", J.getTarget()->getId());
      }
      Terminated = true;
      return;
    }
    case InstKind::Switch: {
      const auto &Sw = *cast<SwitchInst>(&I);
      fuel();
      Out += "  {\n";
      Out += formatString("    int64_t sw = %s;\n", ref(Sw.getValue()).c_str());
      Out += "    (void)sw;\n";
      for (const auto &Case : Sw.getCases())
        Out += formatString("    if (sw == %s)\n      goto L%u;\n",
                            immLiteral(Case.Value).c_str(),
                            Case.Target->getId());
      Out += formatString("    goto L%u;\n  }\n", Sw.getDefault()->getId());
      Terminated = true;
      return;
    }
    case InstKind::IndirectJump: {
      const auto &IJ = *cast<IndirectJumpInst>(&I);
      fuel();
      const auto &Table = IJ.getTable();
      Out += "  {\n";
      Out += formatString("    int64_t ix = %s;\n", ref(IJ.getIndex()).c_str());
      Out += formatString(
          "    if (ix < 0 || ix >= %lldLL)\n"
          "      bropt_trapll(C, \"indirect jump index %%lld out of range\", "
          "(long long)ix);\n",
          (long long)Table.size());
      Out += "    switch (ix) {\n";
      for (size_t T = 0; T != Table.size(); ++T)
        Out += formatString("    case %zu: goto L%u;\n", T,
                            Table[T]->getId());
      Out += "    }\n";
      // Unreachable (the bounds check covers every case), but keeps the
      // lowered control flow total for the compiler.
      Out += "    bropt_trapll(C, \"indirect jump index %lld out of range\", "
             "(long long)ix);\n  }\n";
      Terminated = true;
      return;
    }
    case InstKind::Ret: {
      const auto &R = *cast<RetInst>(&I);
      fuel();
      Out += "  C->depth--;\n";
      if (R.hasValue())
        Out += formatString("  return %s;\n", ref(R.getValue()).c_str());
      else
        Out += "  return 0;\n";
      Terminated = true;
      return;
    }
    }
  }

  void emitBinary(const BinaryInst &B) {
    std::string L = ref(B.getLhs());
    std::string R = ref(B.getRhs());
    unsigned D = B.getDest();
    switch (B.getOp()) {
    case BinaryOp::Add:
      Out += formatString("  r%u = (int64_t)((uint64_t)%s + (uint64_t)%s);\n",
                          D, L.c_str(), R.c_str());
      return;
    case BinaryOp::Sub:
      Out += formatString("  r%u = (int64_t)((uint64_t)%s - (uint64_t)%s);\n",
                          D, L.c_str(), R.c_str());
      return;
    case BinaryOp::Mul:
      Out += formatString("  r%u = (int64_t)((uint64_t)%s * (uint64_t)%s);\n",
                          D, L.c_str(), R.c_str());
      return;
    case BinaryOp::Div:
      Out += formatString("  r%u = bropt_div(C, %s, %s);\n", D, L.c_str(),
                          R.c_str());
      return;
    case BinaryOp::Rem:
      Out += formatString("  r%u = bropt_rem(C, %s, %s);\n", D, L.c_str(),
                          R.c_str());
      return;
    case BinaryOp::And:
      Out += formatString("  r%u = %s & %s;\n", D, L.c_str(), R.c_str());
      return;
    case BinaryOp::Or:
      Out += formatString("  r%u = %s | %s;\n", D, L.c_str(), R.c_str());
      return;
    case BinaryOp::Xor:
      Out += formatString("  r%u = %s ^ %s;\n", D, L.c_str(), R.c_str());
      return;
    case BinaryOp::Shl:
      Out += formatString(
          "  r%u = (int64_t)((uint64_t)%s << ((uint64_t)%s & 63));\n", D,
          L.c_str(), R.c_str());
      return;
    case BinaryOp::Shr:
      Out += formatString("  r%u = bropt_shr(%s, %s);\n", D, L.c_str(),
                          R.c_str());
      return;
    }
  }

  void fuel() { Out += "  BROPT_FUEL();\n"; }

  std::string &Out;
  const Function &F;
  const std::map<const Function *, unsigned> &Ids;
};

void emitMemoryInit(std::string &Out, const Module &M) {
  Out += "static void bropt_init_mem(bropt_ctx *C) {\n  (void)C;\n";
  for (const auto &G : M.globals()) {
    if (G->Init.empty())
      continue;
    Out += formatString("  { /* %s @ %u */\n", escapeC(G->Name).c_str(),
                        G->BaseAddress);
    Out += "    static const int64_t init[] = {";
    for (size_t I = 0; I != G->Init.size(); ++I) {
      if (I)
        Out += ", ";
      Out += immLiteral(G->Init[I]);
    }
    Out += "};\n";
    Out += formatString("    memcpy(C->mem + %u, init, sizeof init);\n  }\n",
                        G->BaseAddress);
  }
  Out += "}\n\n";
}

void emitEntryPoints(std::string &Out, const Module &M,
                     const std::map<const Function *, unsigned> &Ids) {
  Out += formatString("unsigned bropt_native_abi(void) { return %uu; }\n\n",
                      NativeABIVersion);
  Out += "void bropt_native_release(char *output) { free(output); }\n\n";

  Out += "int bropt_native_run(const char *input, unsigned long long "
         "input_size,\n"
         "                     const long long *args, unsigned long long "
         "num_args,\n"
         "                     unsigned long long instruction_limit,\n"
         "                     bropt_native_result *res) {\n"
         "  bropt_ctx C0;\n"
         "  bropt_ctx *const C = &C0;\n"
         "  volatile long long exit_value = 0;\n"
         "  (void)args;\n"
         "  memset(res, 0, sizeof *res);\n"
         "  memset(C, 0, sizeof *C);\n";
  Out += formatString("  C->mem_size = %uull;\n", M.memorySize());
  Out += "  C->mem = (int64_t *)calloc(C->mem_size ? C->mem_size : 1, "
         "sizeof(int64_t));\n"
         "  if (!C->mem)\n    return 1;\n"
         "  C->in = input;\n"
         "  C->in_size = input_size;\n"
         "  C->fuel = instruction_limit;\n"
         "  if (setjmp(C->trap_jmp) == 0) {\n"
         "    bropt_init_mem(C);\n";

  const Function *Entry = M.getFunction(EntryName);
  if (!Entry) {
    Out += formatString(
        "    bropt_trap(C, \"entry function '%s' not found\");\n",
        EntryName);
  } else {
    Out += formatString(
        "    if (num_args != %uull)\n"
        "      bropt_trap(C, \"argument count mismatch for entry "
        "function\");\n",
        Entry->getNumParams());
    std::string Invoke = formatString("bf%u(C", Ids.at(Entry));
    for (unsigned P = 0; P != Entry->getNumParams(); ++P)
      Invoke += formatString(", (int64_t)args[%u]", P);
    Invoke += ")";
    Out += formatString("    exit_value = %s;\n", Invoke.c_str());
  }

  Out += "  }\n"
         "  res->exit_value = C->trapped ? 0 : exit_value;\n"
         "  res->trapped = C->trapped;\n"
         "  memcpy(res->trap_reason, C->trap_reason, sizeof "
         "res->trap_reason);\n"
         "  res->output = C->out;\n"
         "  res->output_size = C->out_len;\n"
         "  free(C->mem);\n"
         "  return 0;\n"
         "}\n";
}

} // namespace

std::string layoutSignature(const Module &M) {
  std::string Sig;
  for (const auto &F : M) {
    if (!Sig.empty())
      Sig += ";";
    Sig += F->getName() + ":";
    bool First = true;
    for (const auto &B : *F) {
      if (!First)
        Sig += ",";
      First = false;
      Sig += formatString("%u", B->getId());
    }
  }
  return Sig;
}

std::string emitC(const Module &M, const CEmitterOptions &Opts) {
  // With OnlyReachable, restrict emission to the entry's call closure.
  // CallInst callees are Function pointers (no indirect calls in the IR),
  // so a worklist walk finds exactly the functions a run can enter.
  std::set<const Function *> Reachable;
  if (Opts.OnlyReachable) {
    std::vector<const Function *> Work;
    if (const Function *Entry = M.getFunction(EntryName)) {
      Reachable.insert(Entry);
      Work.push_back(Entry);
    }
    while (!Work.empty()) {
      const Function *F = Work.back();
      Work.pop_back();
      for (const auto &B : *F)
        for (const auto &I : *B)
          if (I->getKind() == InstKind::Call) {
            const Function *Callee =
                static_cast<const CallInst &>(*I).getCallee();
            if (Callee && Reachable.insert(Callee).second)
              Work.push_back(Callee);
          }
    }
  }
  auto Emits = [&](const Function *F) {
    return !Opts.OnlyReachable || Reachable.count(F) != 0;
  };

  // Ids stay numbered over the full module so a function keeps the same
  // `bf<N>` name whether or not its siblings were pruned.
  std::map<const Function *, unsigned> Ids;
  unsigned NextId = 0;
  for (const auto &F : M)
    Ids.emplace(F.get(), NextId++);

  std::string Sig;
  for (const auto &F : M) {
    if (!Emits(F.get()))
      continue;
    if (!Sig.empty())
      Sig += ";";
    Sig += F->getName() + ":";
    bool First = true;
    for (const auto &B : *F) {
      if (!First)
        Sig += ",";
      First = false;
      Sig += formatString("%u", B->getId());
    }
  }

  std::string Out;
  Out += "/* Generated by bropt CEmitter; do not edit. */\n";
  Out += formatString("/* abi %u; entry \"%s\" */\n", NativeABIVersion,
                      EntryName);
  Out += formatString("/* layout %s */\n\n", escapeC(Sig).c_str());
  Out += Preamble;

  emitMemoryInit(Out, M);

  for (const auto &F : M)
    if (Emits(F.get()))
      FunctionEmitter(Out, *F, Ids).emitSignature(/*Prototype=*/true);
  Out += "\n";
  for (const auto &F : M)
    if (Emits(F.get()))
      FunctionEmitter(Out, *F, Ids).emit();

  emitEntryPoints(Out, M, Ids);
  return Out;
}

} // namespace bropt
