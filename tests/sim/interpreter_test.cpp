//===- tests/sim/interpreter_test.cpp - Interpreter semantics tests -------===//

#include "sim/Interpreter.h"

#include "ir/IRBuilder.h"
#include "cost/MachineModel.h"

#include <gtest/gtest.h>

#include <pthread.h>

using namespace bropt;

namespace {

/// Builds `main() { return lhs op rhs; }` and runs it.
RunResult runBinary(BinaryOp Op, int64_t Lhs, int64_t Rhs) {
  Module M;
  Function *F = M.createFunction("main", 0);
  BasicBlock *Entry = F->createBlock();
  unsigned Dest = F->newReg();
  IRBuilder Builder(Entry);
  Builder.emitBinary(Op, Dest, Operand::imm(Lhs), Operand::imm(Rhs));
  Builder.emitRet(Operand::reg(Dest));
  return Interpreter(M).run();
}

TEST(InterpreterTest, ArithmeticSemantics) {
  EXPECT_EQ(runBinary(BinaryOp::Add, 3, 4).ExitValue, 7);
  EXPECT_EQ(runBinary(BinaryOp::Sub, 3, 4).ExitValue, -1);
  EXPECT_EQ(runBinary(BinaryOp::Mul, -3, 4).ExitValue, -12);
  EXPECT_EQ(runBinary(BinaryOp::Div, 7, 2).ExitValue, 3);
  EXPECT_EQ(runBinary(BinaryOp::Div, -7, 2).ExitValue, -3);
  EXPECT_EQ(runBinary(BinaryOp::Rem, 7, 3).ExitValue, 1);
  EXPECT_EQ(runBinary(BinaryOp::Rem, -7, 3).ExitValue, -1);
  EXPECT_EQ(runBinary(BinaryOp::And, 0b1100, 0b1010).ExitValue, 0b1000);
  EXPECT_EQ(runBinary(BinaryOp::Or, 0b1100, 0b1010).ExitValue, 0b1110);
  EXPECT_EQ(runBinary(BinaryOp::Xor, 0b1100, 0b1010).ExitValue, 0b0110);
  EXPECT_EQ(runBinary(BinaryOp::Shl, 1, 10).ExitValue, 1024);
  EXPECT_EQ(runBinary(BinaryOp::Shr, -8, 1).ExitValue, -4);
}

TEST(InterpreterTest, SignedOverflowWrapsLikeHardware) {
  EXPECT_EQ(runBinary(BinaryOp::Add, INT64_MAX, 1).ExitValue, INT64_MIN);
  EXPECT_EQ(runBinary(BinaryOp::Sub, INT64_MIN, 1).ExitValue, INT64_MAX);
  EXPECT_EQ(runBinary(BinaryOp::Mul, INT64_MAX, 2).ExitValue, -2);
}

TEST(InterpreterTest, DivisionTraps) {
  EXPECT_TRUE(runBinary(BinaryOp::Div, 1, 0).Trapped);
  EXPECT_TRUE(runBinary(BinaryOp::Rem, 1, 0).Trapped);
  EXPECT_TRUE(runBinary(BinaryOp::Div, INT64_MIN, -1).Trapped);
  EXPECT_TRUE(runBinary(BinaryOp::Rem, INT64_MIN, -1).Trapped);
}

TEST(InterpreterTest, MemoryBoundsTrap) {
  Module M;
  M.createGlobal("g", 4);
  Function *F = M.createFunction("main", 0);
  BasicBlock *Entry = F->createBlock();
  unsigned Dest = F->newReg();
  IRBuilder Builder(Entry);
  Builder.emitLoad(Dest, Operand::imm(99)); // beyond the 4 words
  Builder.emitRet(Operand::reg(Dest));
  RunResult Result = Interpreter(M).run();
  EXPECT_TRUE(Result.Trapped);
  EXPECT_NE(Result.TrapReason.find("invalid address"), std::string::npos);
}

TEST(InterpreterTest, GlobalInitializersApplied) {
  Module M;
  M.createGlobal("a", 3, {7, 8});
  Function *F = M.createFunction("main", 0);
  BasicBlock *Entry = F->createBlock();
  unsigned R0 = F->newReg(), R1 = F->newReg(), R2 = F->newReg();
  unsigned Sum = F->newReg(), Sum2 = F->newReg();
  IRBuilder Builder(Entry);
  Builder.emitLoad(R0, Operand::imm(0));
  Builder.emitLoad(R1, Operand::imm(1));
  Builder.emitLoad(R2, Operand::imm(2)); // uninitialized -> 0
  Builder.emitBinary(BinaryOp::Add, Sum, Operand::reg(R0), Operand::reg(R1));
  Builder.emitBinary(BinaryOp::Add, Sum2, Operand::reg(Sum),
                     Operand::reg(R2));
  Builder.emitRet(Operand::reg(Sum2));
  EXPECT_EQ(Interpreter(M).run().ExitValue, 15);
}

TEST(InterpreterTest, IndirectJumpDispatchAndBoundsTrap) {
  Module M;
  Function *F = M.createFunction("main", 1);
  BasicBlock *Entry = F->createBlock();
  BasicBlock *T0 = F->createBlock();
  BasicBlock *T1 = F->createBlock();
  IRBuilder Builder(Entry);
  Builder.emitIndirectJump(Operand::reg(0), {T0, T1});
  Builder.setInsertionPoint(T0);
  Builder.emitRet(Operand::imm(100));
  Builder.setInsertionPoint(T1);
  Builder.emitRet(Operand::imm(101));

  EXPECT_EQ(Interpreter(M).run("main", {0}).ExitValue, 100);
  EXPECT_EQ(Interpreter(M).run("main", {1}).ExitValue, 101);
  RunResult OutOfRange = Interpreter(M).run("main", {5});
  EXPECT_TRUE(OutOfRange.Trapped);
  RunResult Negative = Interpreter(M).run("main", {-1});
  EXPECT_TRUE(Negative.Trapped);
}

TEST(InterpreterTest, InstructionLimitStopsRunaways) {
  Module M;
  Function *F = M.createFunction("main", 0);
  BasicBlock *Loop = F->createBlock();
  IRBuilder Builder(Loop);
  Builder.emitJump(Loop);
  Interpreter Interp(M);
  Interp.setInstructionLimit(1000);
  RunResult Result = Interp.run();
  EXPECT_TRUE(Result.Trapped);
  EXPECT_NE(Result.TrapReason.find("limit"), std::string::npos);
}

/// Runs \p Body to completion on a thread with a 64 MB stack.  Reaching
/// the call-depth limit nests one engine frame per guest call, and under
/// AddressSanitizer those frames outgrow a default 8 MB main stack.
void runOnLargeStack(void (*Body)()) {
  pthread_attr_t Attr;
  ASSERT_EQ(pthread_attr_init(&Attr), 0);
  int Err = pthread_attr_setstacksize(&Attr, 64u << 20);
  pthread_t Thread{};
  auto Trampoline = [](void *Arg) -> void * {
    (*static_cast<void (**)()>(Arg))();
    return nullptr;
  };
  if (Err == 0)
    Err = pthread_create(&Thread, &Attr, Trampoline, &Body);
  pthread_attr_destroy(&Attr);
  ASSERT_EQ(Err, 0);
  pthread_join(Thread, nullptr);
}

TEST(InterpreterTest, CallDepthLimitTraps) {
  runOnLargeStack([] {
    Module M;
    Function *F = M.createFunction("main", 0);
    BasicBlock *Entry = F->createBlock();
    unsigned Dest = F->newReg();
    IRBuilder Builder(Entry);
    Builder.emitCall(Dest, F, {}); // infinite recursion
    Builder.emitRet(Operand::reg(Dest));
    RunResult Result = Interpreter(M).run();
    EXPECT_TRUE(Result.Trapped);
    EXPECT_NE(Result.TrapReason.find("depth"), std::string::npos);
  });
}

TEST(InterpreterTest, ReadCharConsumesInputThenEOF) {
  Module M;
  Function *F = M.createFunction("main", 0);
  BasicBlock *Entry = F->createBlock();
  unsigned A = F->newReg(), B = F->newReg(), C = F->newReg();
  unsigned S1 = F->newReg(), S2 = F->newReg();
  IRBuilder Builder(Entry);
  Builder.emitReadChar(A); // 'x' = 120
  Builder.emitReadChar(B); // EOF = -1
  Builder.emitReadChar(C); // still EOF
  Builder.emitBinary(BinaryOp::Add, S1, Operand::reg(A), Operand::reg(B));
  Builder.emitBinary(BinaryOp::Add, S2, Operand::reg(S1), Operand::reg(C));
  Builder.emitRet(Operand::reg(S2));
  Interpreter Interp(M);
  Interp.setInput("x");
  EXPECT_EQ(Interp.run().ExitValue, 120 - 1 - 1);
}

TEST(InterpreterTest, FallThroughJumpsAreFree) {
  Module M;
  Function *F = M.createFunction("main", 0);
  BasicBlock *A = F->createBlock();
  BasicBlock *B = F->createBlock();
  IRBuilder Builder(A);
  auto *Jump = Builder.emitJump(B);
  Builder.setInsertionPoint(B);
  Builder.emitRet();

  RunResult Costly = Interpreter(M).run();
  EXPECT_EQ(Costly.Counts.UncondJumps, 1u);
  Jump->setIsFallThrough(true);
  RunResult Free = Interpreter(M).run();
  EXPECT_EQ(Free.Counts.UncondJumps, 0u);
  EXPECT_EQ(Free.Counts.TotalInsts, Costly.Counts.TotalInsts - 1);
}

TEST(InterpreterTest, CountsBreakDownByKind) {
  Module M;
  M.createGlobal("g", 1);
  Function *F = M.createFunction("main", 0);
  BasicBlock *Entry = F->createBlock();
  BasicBlock *Exit = F->createBlock();
  unsigned R = F->newReg();
  IRBuilder Builder(Entry);
  Builder.emitLoad(R, Operand::imm(0));
  Builder.emitStore(Operand::reg(R), Operand::imm(0));
  Builder.emitCmp(Operand::reg(R), Operand::imm(0));
  Builder.emitCondBr(CondCode::EQ, Exit, Exit);
  Builder.setInsertionPoint(Exit);
  Builder.emitRet();
  RunResult Result = Interpreter(M).run();
  EXPECT_EQ(Result.Counts.Loads, 1u);
  EXPECT_EQ(Result.Counts.Stores, 1u);
  EXPECT_EQ(Result.Counts.Compares, 1u);
  EXPECT_EQ(Result.Counts.CondBranches, 1u);
  EXPECT_EQ(Result.Counts.TakenBranches, 1u);
  EXPECT_EQ(Result.Counts.TotalInsts, 5u);
}

TEST(InterpreterTest, MissingEntryFunctionTraps) {
  Module M;
  RunResult Result = Interpreter(M).run("nonexistent");
  EXPECT_TRUE(Result.Trapped);
}

TEST(CostModelTest, CyclesChargeIndirectJumpsAndMispredicts) {
  DynamicCounts Counts;
  Counts.TotalInsts = 100;
  Counts.IndirectJumps = 10;
  MachineModel IPC = MachineModel::sparcIPCLike();
  MachineModel Ultra = MachineModel::sparcUltraLike();
  EXPECT_EQ(computeCycles(IPC, Counts), 100u + 10u * IPC.IndirectJumpExtra);
  EXPECT_GT(computeCycles(Ultra, Counts), computeCycles(IPC, Counts));
  EXPECT_EQ(computeCycles(IPC, Counts, 5),
            computeCycles(IPC, Counts) + 5 * IPC.MispredictPenalty);
}

} // namespace
