//===- tests/opt/passes_test.cpp - Conventional-optimization tests --------===//

#include "opt/Passes.h"

#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "lang/Lowering.h"
#include "opt/Liveness.h"
#include "sim/Interpreter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace bropt;

namespace {

std::unique_ptr<Module> compileOrDie(std::string_view Source) {
  std::string Errors;
  std::unique_ptr<Module> M = compileSource(Source, &Errors);
  EXPECT_TRUE(M) << Errors;
  return M;
}

/// Runs \p M and returns (exit, output, counts); expects no trap.
RunResult runOK(Module &M, std::string_view Input = "") {
  Interpreter Interp(M);
  Interp.setInput(Input);
  RunResult Result = Interp.run();
  EXPECT_FALSE(Result.Trapped) << Result.TrapReason;
  return Result;
}

/// Applies the full pipeline and checks the module still verifies.
void optimizeAndVerify(Module &M) {
  optimizeModule(M);
  std::string Errors;
  ASSERT_TRUE(verifyModule(M, &Errors)) << Errors << printModule(M);
}

TEST(PassesTest, PipelinePreservesBehaviour) {
  const char *Source = R"(
    int hist[128];
    int helper(int x) { return x * 2 + 1; }
    int main() {
      int c;
      int total = 0;
      while ((c = getchar()) != -1) {
        if (c >= 'a' && c <= 'z')
          hist[c]++;
        else if (c == ' ')
          total += helper(c);
        else
          total--;
      }
      printint(total);
      printint(hist['a']);
      return total;
    }
  )";
  auto Reference = compileOrDie(Source);
  auto Optimized = compileOrDie(Source);
  ASSERT_TRUE(Reference && Optimized);
  optimizeAndVerify(*Optimized);

  std::string Input = "a quick brown fox! aa Z";
  RunResult Before = runOK(*Reference, Input);
  RunResult After = runOK(*Optimized, Input);
  EXPECT_EQ(Before.ExitValue, After.ExitValue);
  EXPECT_EQ(Before.Output, After.Output);
  // The pipeline should not make the program slower.
  EXPECT_LE(After.Counts.TotalInsts, Before.Counts.TotalInsts);
}

TEST(PassesTest, ConstantFoldingFoldsArithmetic) {
  auto M = compileOrDie("int main() { int x = 3; return x * 4 + 2; }");
  ASSERT_TRUE(M);
  Function *F = M->getFunction("main");
  ASSERT_TRUE(F);
  runCleanupPipeline(*F);
  // After folding + propagation + DCE, main should be a single block that
  // just returns 14.
  RunResult Result = runOK(*M);
  EXPECT_EQ(Result.ExitValue, 14);
  EXPECT_LE(F->instructionCount(), 2u);
}

TEST(PassesTest, ConstantBranchFoldsToJump) {
  auto M = compileOrDie(R"(
    int main() {
      if (3 < 5) return 1;
      return 2;
    }
  )");
  ASSERT_TRUE(M);
  Function *F = M->getFunction("main");
  runCleanupPipeline(*F);
  for (auto &Block : *F)
    for (auto &Inst : *Block)
      EXPECT_NE(Inst->getKind(), InstKind::CondBr)
          << "constant condition should fold away:\n"
          << printFunction(*F);
  EXPECT_EQ(runOK(*M).ExitValue, 1);
}

TEST(PassesTest, DeadCodeEliminationRemovesUnusedDefs) {
  auto M = std::make_unique<Module>();
  Function *F = M->createFunction("main", 0);
  BasicBlock *Entry = F->createBlock("entry");
  IRBuilder Builder(Entry);
  unsigned Dead = F->newReg();
  unsigned Live = F->newReg();
  Builder.emitMove(Dead, Operand::imm(99));
  Builder.emitMove(Live, Operand::imm(7));
  Builder.emitCmp(Operand::reg(Live), Operand::imm(3)); // dead compare
  Builder.emitRet(Operand::reg(Live));
  EXPECT_TRUE(eliminateDeadCode(*F));
  EXPECT_EQ(F->instructionCount(), 2u) << printFunction(*F);
  EXPECT_EQ(runOK(*M).ExitValue, 7);
}

TEST(PassesTest, DeadCompareKeptWhenBranchNeedsIt) {
  auto M = std::make_unique<Module>();
  Function *F = M->createFunction("main", 0);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Then = F->createBlock("then");
  BasicBlock *Else = F->createBlock("else");
  IRBuilder Builder(Entry);
  unsigned X = F->newReg();
  Builder.emitMove(X, Operand::imm(5));
  Builder.emitCmp(Operand::reg(X), Operand::imm(3));
  Builder.emitCondBr(CondCode::GT, Then, Else);
  Builder.setInsertionPoint(Then);
  Builder.emitRet(Operand::imm(1));
  Builder.setInsertionPoint(Else);
  Builder.emitRet(Operand::imm(0));
  EXPECT_FALSE(eliminateDeadCode(*F));
  EXPECT_EQ(runOK(*M).ExitValue, 1);
}

TEST(PassesTest, UnreachableBlocksRemoved) {
  auto M = std::make_unique<Module>();
  Function *F = M->createFunction("main", 0);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Orphan = F->createBlock("orphan");
  IRBuilder Builder(Entry);
  Builder.emitRet(Operand::imm(0));
  Builder.setInsertionPoint(Orphan);
  Builder.emitRet(Operand::imm(1));
  EXPECT_TRUE(removeUnreachableBlocks(*F));
  EXPECT_EQ(F->size(), 1u);
}

TEST(PassesTest, BranchChainingCollapsesJumpChains) {
  auto M = std::make_unique<Module>();
  Function *F = M->createFunction("main", 0);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Hop1 = F->createBlock("hop1");
  BasicBlock *Hop2 = F->createBlock("hop2");
  BasicBlock *Final = F->createBlock("final");
  IRBuilder Builder(Entry);
  Builder.emitJump(Hop1);
  Builder.setInsertionPoint(Hop1);
  Builder.emitJump(Hop2);
  Builder.setInsertionPoint(Hop2);
  Builder.emitJump(Final);
  Builder.setInsertionPoint(Final);
  Builder.emitRet(Operand::imm(3));
  // chainBranches retargets the entry jump; the dead hops then keep the
  // final block's predecessor count above one until unreachable-block
  // elimination runs, so the merge completes on the pipeline's next round.
  EXPECT_TRUE(runCleanupPipeline(*F));
  EXPECT_EQ(F->size(), 1u) << printFunction(*F);
  EXPECT_EQ(runOK(*M).ExitValue, 3);
}

TEST(PassesTest, CondBrWithEqualSuccessorsBecomesJump) {
  auto M = std::make_unique<Module>();
  Function *F = M->createFunction("main", 0);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Target = F->createBlock("target");
  IRBuilder Builder(Entry);
  unsigned X = F->newReg();
  Builder.emitMove(X, Operand::imm(1));
  Builder.emitCmp(Operand::reg(X), Operand::imm(0));
  Builder.emitCondBr(CondCode::EQ, Target, Target);
  Builder.setInsertionPoint(Target);
  Builder.emitRet(Operand::reg(X));
  EXPECT_TRUE(chainBranches(*F));
  EXPECT_EQ(runOK(*M).ExitValue, 1);
}

TEST(PassesTest, RepositioningMakesFallThroughsFree) {
  auto M = compileOrDie(R"(
    int main() {
      int n = 0;
      for (int i = 0; i < 100; i++)
        if (i % 3 == 0)
          n++;
      return n;
    }
  )");
  ASSERT_TRUE(M);
  Function *F = M->getFunction("main");
  RunResult Before = runOK(*M);
  finalizeFunction(*F);
  std::string Errors;
  ASSERT_TRUE(verifyFunction(*F, &Errors)) << Errors;
  RunResult After = runOK(*M);
  EXPECT_EQ(Before.ExitValue, After.ExitValue);
  // Layout should remove most executed unconditional jumps.
  EXPECT_LT(After.Counts.UncondJumps, Before.Counts.UncondJumps);

  // Every conditional branch must now fall through to the adjacent block.
  for (auto &Block : *F) {
    const auto *Br = dyn_cast<CondBrInst>(Block->getTerminator());
    if (!Br)
      continue;
    EXPECT_EQ(Br->getFallThrough(), F->getNextBlock(Block.get()))
        << printFunction(*F);
  }
}

TEST(PassesTest, RedundantCompareEliminatedAcrossBlocks) {
  auto M = std::make_unique<Module>();
  Function *F = M->createFunction("main", 0);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Second = F->createBlock("second");
  BasicBlock *T1 = F->createBlock("t1");
  BasicBlock *T2 = F->createBlock("t2");
  IRBuilder Builder(Entry);
  unsigned X = F->newReg();
  Builder.emitMove(X, Operand::imm(42));
  Builder.emitCmp(Operand::reg(X), Operand::imm(10));
  Builder.emitCondBr(CondCode::GT, T1, Second);
  Builder.setInsertionPoint(Second);
  Builder.emitCmp(Operand::reg(X), Operand::imm(10)); // redundant
  Builder.emitCondBr(CondCode::EQ, T2, T1);
  Builder.setInsertionPoint(T1);
  Builder.emitRet(Operand::imm(1));
  Builder.setInsertionPoint(T2);
  Builder.emitRet(Operand::imm(2));

  EXPECT_TRUE(eliminateRedundantCompares(*F));
  EXPECT_EQ(Second->size(), 1u) << printFunction(*F);
  std::string Errors;
  EXPECT_TRUE(verifyFunction(*F, &Errors)) << Errors;
  EXPECT_EQ(runOK(*M).ExitValue, 1);
}

TEST(PassesTest, RedundantCompareKeptWhenOperandChanges) {
  auto M = std::make_unique<Module>();
  Function *F = M->createFunction("main", 0);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *T1 = F->createBlock("t1");
  BasicBlock *T2 = F->createBlock("t2");
  IRBuilder Builder(Entry);
  unsigned X = F->newReg();
  Builder.emitMove(X, Operand::imm(10));
  Builder.emitCmp(Operand::reg(X), Operand::imm(10));
  Builder.emitMove(X, Operand::imm(11)); // X changes between the compares
  Builder.emitCmp(Operand::reg(X), Operand::imm(10));
  Builder.emitCondBr(CondCode::EQ, T1, T2);
  Builder.setInsertionPoint(T1);
  Builder.emitRet(Operand::imm(1));
  Builder.setInsertionPoint(T2);
  Builder.emitRet(Operand::imm(2));

  eliminateRedundantCompares(*F);
  // The second compare must survive; x was redefined.
  EXPECT_EQ(runOK(*M).ExitValue, 2);
}

TEST(PassesTest, Figure9ReencodingRemovesAdjacentConstantCompare) {
  // Paper Figure 9: [cmp v,c; bgt L1] followed by [cmp v,c+1; bge ...]
  // after re-encoding shares one compare.  Build the 'before' column:
  // first condition tests v >= c+1, second tests v == c.
  auto M = std::make_unique<Module>();
  Function *F = M->createFunction("main", 0);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Second = F->createBlock("second");
  BasicBlock *L1 = F->createBlock("l1");
  BasicBlock *L2 = F->createBlock("l2");
  BasicBlock *Fall = F->createBlock("fall");
  IRBuilder Builder(Entry);
  unsigned V = F->newReg();
  Builder.emitMove(V, Operand::imm(42));
  Builder.emitCmp(Operand::reg(V), Operand::imm(43)); // v >= c+1, c = 42
  Builder.emitCondBr(CondCode::GE, L1, Second);
  Builder.setInsertionPoint(Second);
  Builder.emitCmp(Operand::reg(V), Operand::imm(42)); // v == c
  Builder.emitCondBr(CondCode::EQ, L2, Fall);
  Builder.setInsertionPoint(L1);
  Builder.emitRet(Operand::imm(1));
  Builder.setInsertionPoint(L2);
  Builder.emitRet(Operand::imm(2));
  Builder.setInsertionPoint(Fall);
  Builder.emitRet(Operand::imm(3));

  EXPECT_TRUE(eliminateRedundantCompares(*F));
  // The second block's compare must be gone: the entry compare was
  // re-encoded to (v, 42) with predicate GT, making it identical.
  EXPECT_EQ(Second->size(), 1u) << printFunction(*F);
  std::string Errors;
  EXPECT_TRUE(verifyFunction(*F, &Errors)) << Errors;
  EXPECT_EQ(runOK(*M).ExitValue, 2); // v == 42 takes the eq branch
}

TEST(PassesTest, Figure9ReencodingBlockedByCCConsumingSuccessor) {
  // If a successor inherits the condition codes, re-encoding would change
  // what it observes; the pass must leave the compare alone.
  auto M = std::make_unique<Module>();
  Function *F = M->createFunction("main", 0);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Lead = F->createBlock("lead");
  BasicBlock *Consumer = F->createBlock("consumer");
  BasicBlock *L1 = F->createBlock("l1");
  BasicBlock *L2 = F->createBlock("l2");
  BasicBlock *Second = F->createBlock("second");
  IRBuilder Builder(Entry);
  unsigned V = F->newReg();
  Builder.emitMove(V, Operand::imm(43));
  Builder.emitJump(Lead);
  Builder.setInsertionPoint(Lead);
  // Second's lead compare (v, 43) would like this re-encoded from
  // (44, LT) to (43, LE) — but Consumer inherits these condition codes.
  Builder.emitCmp(Operand::reg(V), Operand::imm(44));
  Builder.emitCondBr(CondCode::LT, Consumer, Second);
  Builder.setInsertionPoint(Consumer);
  // Reads the codes of Lead's compare: with v = 43 vs 44, EQ is false.
  Builder.emitCondBr(CondCode::EQ, L1, L2);
  Builder.setInsertionPoint(Second);
  Builder.emitCmp(Operand::reg(V), Operand::imm(43));
  Builder.emitCondBr(CondCode::GE, L2, L1);
  Builder.setInsertionPoint(L1);
  Builder.emitRet(Operand::imm(1));
  Builder.setInsertionPoint(L2);
  Builder.emitRet(Operand::imm(2));

  int64_t Before = runOK(*M).ExitValue;
  eliminateRedundantCompares(*F);
  EXPECT_EQ(runOK(*M).ExitValue, Before)
      << "re-encoding must not change a CC-consuming successor's view:\n"
      << printFunction(*F);
}

TEST(PassesTest, LivenessTracksAcrossBlocks) {
  auto M = compileOrDie(R"(
    int main() {
      int a = 1;
      int b = 2;
      if (a < b) return b;
      return a;
    }
  )");
  ASSERT_TRUE(M);
  Function *F = M->getFunction("main");
  LivenessInfo Info = computeLiveness(*F);
  // Registers live out of the entry block include those returned later.
  const BasicBlock *Entry = &F->getEntryBlock();
  bool AnyLive = false;
  for (bool Live : Info.LiveOut.at(Entry))
    AnyLive |= Live;
  EXPECT_TRUE(AnyLive);
}

TEST(PassesTest, CopyPropagationEnablesFolding) {
  auto M = std::make_unique<Module>();
  Function *F = M->createFunction("main", 0);
  BasicBlock *Entry = F->createBlock("entry");
  IRBuilder Builder(Entry);
  unsigned A = F->newReg(), B = F->newReg(), C = F->newReg();
  Builder.emitMove(A, Operand::imm(4));
  Builder.emitMove(B, Operand::reg(A));
  Builder.emitBinary(BinaryOp::Mul, C, Operand::reg(B), Operand::imm(10));
  Builder.emitRet(Operand::reg(C));
  runCleanupPipeline(*F);
  EXPECT_EQ(runOK(*M).ExitValue, 40);
  EXPECT_LE(F->instructionCount(), 2u) << printFunction(*F);
}

TEST(PassesTest, PassObserverSeesOnlyItsOwnThread) {
  // A daemon compiles on many workers while a fuzz oracle observes its own
  // compiles: an observer installed on one thread must neither see nor
  // disturb the passes another thread runs.
  const char *Source = R"(
    int main() {
      int x = 2 + 3;
      if (x > 4) return x * 1;
      return 0;
    }
  )";
  std::atomic<unsigned> Seen{0};
  PassObserverScope Scope(
      [&Seen](const char *, Function &) { Seen.fetch_add(1); });
  std::thread Other([Source] {
    auto M = compileOrDie(Source);
    optimizeModule(*M);
  });
  Other.join();
  EXPECT_EQ(Seen.load(), 0u) << "observed another thread's compile";

  auto M = compileOrDie(Source);
  optimizeModule(*M);
  EXPECT_GT(Seen.load(), 0u) << "missed this thread's own compile";
}

} // namespace
