//===- tests/codegen/native_test.cpp - Native backend round-trip tests ----===//
//
// End-to-end proof that the AOT path — emit C, invoke the host compiler,
// dlopen, run — reproduces the interpreter's observables bit for bit:
// exit values, output bytes, and every trap, including the ones whose
// ordering is subtle (fuel exhaustion vs. the instruction that would have
// trapped next).  Every test skips cleanly when the host has no working C
// compiler, so the suite stays green on minimal containers; CI runs it
// under both gcc and clang via $BROPT_CC (ctest -L native).
//
//===----------------------------------------------------------------------===//

#include "codegen/NativeRunner.h"

#include "driver/Evaluator.h"
#include "exec/ExecBackend.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace bropt;

namespace {

#define SKIP_WITHOUT_HOST_COMPILER()                                         \
  do {                                                                       \
    if (!NativeRunner::shared().available())                                 \
      GTEST_SKIP() << NativeRunner::shared().unavailableReason();            \
  } while (0)

RunResult nativeRun(const Module &M, std::string_view Input = "",
                    uint64_t InstructionLimit = 2'000'000'000) {
  ExecRequest Req;
  Req.Input = Input;
  Req.InstructionLimit = InstructionLimit;
  return executeModule(M, Interpreter::Mode::Native, Req);
}

RunResult interpRun(const Module &M, std::string_view Input = "",
                    uint64_t InstructionLimit = 2'000'000'000) {
  ExecRequest Req;
  Req.Input = Input;
  Req.InstructionLimit = InstructionLimit;
  return executeModule(M, Interpreter::Mode::Tree, Req);
}

/// Observables must agree exactly; counters are exempt by design (native
/// code counts nothing).
void expectSameObservables(const RunResult &Interp, const RunResult &Native,
                           const std::string &Context) {
  EXPECT_EQ(Interp.Trapped, Native.Trapped) << Context;
  EXPECT_EQ(Interp.TrapReason, Native.TrapReason) << Context;
  EXPECT_EQ(Interp.ExitValue, Native.ExitValue) << Context;
  EXPECT_EQ(Interp.Output, Native.Output) << Context;
}

/// Builds `main() { return lhs op rhs; }`.
std::unique_ptr<Module> binaryModule(BinaryOp Op, int64_t Lhs, int64_t Rhs) {
  auto M = std::make_unique<Module>();
  Function *F = M->createFunction("main", 0);
  IRBuilder IB(F->createBlock());
  unsigned Dest = F->newReg();
  IB.emitBinary(Op, Dest, Operand::imm(Lhs), Operand::imm(Rhs));
  IB.emitRet(Operand::reg(Dest));
  return M;
}

TEST(NativeRunnerTest, ArithmeticMatchesInterpreter) {
  SKIP_WITHOUT_HOST_COMPILER();
  const struct {
    BinaryOp Op;
    int64_t Lhs, Rhs;
  } Cases[] = {
      {BinaryOp::Add, 3, 4},         {BinaryOp::Sub, 3, 4},
      {BinaryOp::Mul, -3, 4},        {BinaryOp::Div, -7, 2},
      {BinaryOp::Rem, -7, 3},        {BinaryOp::Shl, 1, 63},
      {BinaryOp::Shr, -8, 1},        {BinaryOp::Add, INT64_MAX, 1},
      {BinaryOp::Sub, INT64_MIN, 1}, {BinaryOp::Mul, INT64_MAX, 2},
      // The trap quartet: reasons must match byte for byte.
      {BinaryOp::Div, 1, 0},         {BinaryOp::Rem, 1, 0},
      {BinaryOp::Div, INT64_MIN, -1}, {BinaryOp::Rem, INT64_MIN, -1},
  };
  for (const auto &Case : Cases) {
    std::unique_ptr<Module> M = binaryModule(Case.Op, Case.Lhs, Case.Rhs);
    expectSameObservables(
        interpRun(*M), nativeRun(*M),
        "op " + std::to_string(static_cast<int>(Case.Op)) + " " +
            std::to_string(Case.Lhs) + ", " + std::to_string(Case.Rhs));
  }
}

TEST(NativeRunnerTest, MemoryTrapsMatchInterpreter) {
  SKIP_WITHOUT_HOST_COMPILER();
  for (bool IsStore : {false, true}) {
    Module M;
    M.createGlobal("g", 4, {7});
    Function *F = M.createFunction("main", 0);
    IRBuilder IB(F->createBlock());
    unsigned Dest = F->newReg();
    if (IsStore)
      IB.emitStore(Operand::imm(1), Operand::imm(-3));
    else
      IB.emitLoad(Dest, Operand::imm(99));
    IB.emitRet(Operand::imm(0));
    expectSameObservables(interpRun(M), nativeRun(M),
                          IsStore ? "store" : "load");
  }
}

TEST(NativeRunnerTest, InstructionLimitTrapsAtSameFuel) {
  SKIP_WITHOUT_HOST_COMPILER();
  // main: loop { print 7 } — hitting the cap mid-output proves the native
  // fuel accounting charges instructions in the interpreter's order.
  Module M;
  Function *F = M.createFunction("main", 0);
  BasicBlock *Body = F->createBlock();
  IRBuilder IB(Body);
  IB.emitPrintInt(Operand::imm(7));
  IB.emitJump(Body);
  for (uint64_t Limit : {1, 2, 3, 7, 100}) {
    RunResult Interp = interpRun(M, "", Limit);
    RunResult Native = nativeRun(M, "", Limit);
    EXPECT_TRUE(Interp.Trapped);
    expectSameObservables(Interp, Native,
                          "limit " + std::to_string(Limit));
  }
}

TEST(NativeRunnerTest, CallDepthTrapMatchesInterpreter) {
  SKIP_WITHOUT_HOST_COMPILER();
  Module M;
  Function *F = M.createFunction("f", 0);
  {
    IRBuilder IB(F->createBlock());
    unsigned Dest = F->newReg();
    IB.emitCall(Dest, F, {});
    IB.emitRet(Operand::reg(Dest));
  }
  Function *Main = M.createFunction("main", 0);
  {
    IRBuilder IB(Main->createBlock());
    unsigned Dest = Main->newReg();
    IB.emitCall(Dest, F, {});
    IB.emitRet(Operand::reg(Dest));
  }
  RunResult Interp = interpRun(M);
  EXPECT_TRUE(Interp.Trapped);
  expectSameObservables(Interp, nativeRun(M), "recursion");
}

TEST(NativeRunnerTest, IndirectJumpOutOfRangeMatchesInterpreter) {
  SKIP_WITHOUT_HOST_COMPILER();
  Module M;
  Function *F = M.createFunction("main", 0);
  BasicBlock *Entry = F->createBlock();
  BasicBlock *Only = F->createBlock();
  IRBuilder IB(Entry);
  IB.emitIndirectJump(Operand::imm(5), {Only});
  IB.setInsertionPoint(Only);
  IB.emitRet(Operand::imm(0));
  RunResult Interp = interpRun(M);
  EXPECT_TRUE(Interp.Trapped);
  expectSameObservables(Interp, nativeRun(M), "indirect");
}

TEST(NativeRunnerTest, MissingEntryAndArgMismatchMatchInterpreter) {
  SKIP_WITHOUT_HOST_COMPILER();
  {
    Module M; // no main at all
    Function *F = M.createFunction("helper", 0);
    IRBuilder IB(F->createBlock());
    IB.emitRet(Operand::imm(0));
    expectSameObservables(interpRun(M), nativeRun(M), "no entry");
  }
  {
    Module M; // main expects an argument none is passed
    Function *F = M.createFunction("main", 1);
    IRBuilder IB(F->createBlock());
    IB.emitRet(Operand::reg(0));
    expectSameObservables(interpRun(M), nativeRun(M), "arg mismatch");
  }
}

// The acceptance bar: every standard workload, baseline and reordered,
// runs natively with observables bit-identical to the fused engine.
TEST(NativeRunnerTest, WorkloadSuiteMatchesFusedEngine) {
  SKIP_WITHOUT_HOST_COMPILER();
  for (const Workload &W : standardWorkloads()) {
    CompileResult Baseline = compileBaseline(W.Source, {});
    ASSERT_TRUE(Baseline.ok()) << W.Name << ": " << Baseline.Error;
    CompileResult Reordered =
        compileWithReordering(W.Source, W.TrainingInput, {});
    ASSERT_TRUE(Reordered.ok()) << W.Name << ": " << Reordered.Error;
    for (const Module *M : {Baseline.M.get(), Reordered.M.get()}) {
      ExecRequest Req;
      Req.Input = W.TestInput;
      RunResult Fused = executeModule(*M, Interpreter::Mode::Fused, Req);
      RunResult Native = executeModule(*M, Interpreter::Mode::Native, Req);
      expectSameObservables(Fused, Native, W.Name);
    }
  }
}

TEST(NativeRunnerTest, SourceHashCacheHitsAndEvicts) {
  SKIP_WITHOUT_HOST_COMPILER();
  NativeRunner Runner(/*CacheCapacity=*/1);
  std::unique_ptr<Module> A = binaryModule(BinaryOp::Add, 1, 2);
  std::unique_ptr<Module> B = binaryModule(BinaryOp::Add, 3, 4);
  std::string Error;
  ASSERT_NE(Runner.prepare(*A, &Error), nullptr) << Error;
  uint64_t CompilesAfterA = Runner.stats().Compiles;
  ASSERT_NE(Runner.prepare(*A, &Error), nullptr) << Error;
  EXPECT_EQ(Runner.stats().Compiles, CompilesAfterA);
  EXPECT_GE(Runner.stats().CacheHits, 1u);
  // A second distinct module overflows the single-slot cache...
  ASSERT_NE(Runner.prepare(*B, &Error), nullptr) << Error;
  EXPECT_GE(Runner.stats().Evictions, 1u);
  // ...and a program evicted mid-use must stay runnable (shared_ptr
  // ownership, not cache residency, keeps the dlopen handle alive).
  std::shared_ptr<const NativeProgram> KeptAlive = Runner.prepare(*A, &Error);
  ASSERT_NE(KeptAlive, nullptr) << Error;
  ASSERT_NE(Runner.prepare(*B, &Error), nullptr) << Error;
  RunResult Result = KeptAlive->run("");
  EXPECT_FALSE(Result.Trapped) << Result.TrapReason;
  EXPECT_EQ(Result.ExitValue, 3);
}

TEST(NativeRunnerTest, EvaluatorNativeModeCachesAndEvicts) {
  SKIP_WITHOUT_HOST_COMPILER();
  std::vector<Workload> Suite = standardWorkloads();
  ASSERT_GE(Suite.size(), 2u);

  EvaluatorOptions Opts;
  Opts.Threads = 1;
  Opts.Mode = Interpreter::Mode::Native;
  // Room for the baseline and reordered builds of one workload.
  Evaluator Eval(Opts, std::make_shared<ArtifactCache>(2));

  WorkloadRecord First = Eval.evaluateWorkload(Suite[0], {});
  ASSERT_TRUE(First.Eval.ok()) << First.Eval.Error;
  EXPECT_TRUE(First.Eval.OutputsMatch);
  EXPECT_FALSE(First.BaselineEngineHit);

  const NativeRunnerStats Before = NativeRunner::shared().stats();
  WorkloadRecord Again = Eval.evaluateWorkload(Suite[0], {});
  ASSERT_TRUE(Again.Eval.ok()) << Again.Eval.Error;
  EXPECT_TRUE(Again.BaselineEngineHit);
  EXPECT_TRUE(Again.ReorderedEngineHit);
  // The hits reuse the shared objects: nothing is emitted or compiled.
  EXPECT_EQ(NativeRunner::shared().stats().Compiles, Before.Compiles);
  EXPECT_EQ(NativeRunner::shared().stats().CacheHits, Before.CacheHits);

  // A different workload's two builds displace the cached pair.
  WorkloadRecord Other = Eval.evaluateWorkload(Suite[1], {});
  ASSERT_TRUE(Other.Eval.ok()) << Other.Eval.Error;
  EXPECT_FALSE(Other.BaselineEngineHit);
  EXPECT_FALSE(Other.ReorderedEngineHit);
  ArtifactCacheStats Stats = Eval.cache().stats();
  EXPECT_GE(Stats.Evictions, 2u);
  EXPECT_GE(Stats.Hits, 2u);
  EXPECT_GE(Stats.Misses, 4u);
  EXPECT_GE(Stats.EngineBuilds, 4u);
}

} // namespace
