//===- tests/ir/ir_test.cpp - IR data-structure unit tests ----------------===//

#include "ir/CFG.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace bropt;

namespace {

TEST(OperandTest, KindsAndAccessors) {
  Operand None;
  EXPECT_TRUE(None.isNone());
  Operand Reg = Operand::reg(5);
  EXPECT_TRUE(Reg.isReg());
  EXPECT_EQ(Reg.getReg(), 5u);
  EXPECT_TRUE(Reg.isRegister(5));
  EXPECT_FALSE(Reg.isRegister(4));
  Operand Imm = Operand::imm(-7);
  EXPECT_TRUE(Imm.isImm());
  EXPECT_EQ(Imm.getImm(), -7);
  EXPECT_FALSE(Imm.isRegister(0));
  EXPECT_EQ(Operand::imm(3), Operand::imm(3));
  EXPECT_FALSE(Operand::imm(3) == Operand::reg(3));
}

TEST(CondCodeTest, InvertAndSwapAreInvolutions) {
  for (CondCode CC : {CondCode::EQ, CondCode::NE, CondCode::LT,
                      CondCode::LE, CondCode::GT, CondCode::GE}) {
    EXPECT_EQ(invertCondCode(invertCondCode(CC)), CC);
    EXPECT_EQ(swapCondCode(swapCondCode(CC)), CC);
    // Semantic checks over a value grid.
    for (int64_t L : {-2, 0, 1, 5})
      for (int64_t R : {-2, 0, 1, 5}) {
        EXPECT_NE(evalCondCode(CC, L, R),
                  evalCondCode(invertCondCode(CC), L, R));
        EXPECT_EQ(evalCondCode(CC, L, R),
                  evalCondCode(swapCondCode(CC), R, L));
      }
  }
}

class IRStructureTest : public ::testing::Test {
protected:
  void SetUp() override { F = M.createFunction("f", 1); }
  Module M;
  Function *F = nullptr;
};

TEST_F(IRStructureTest, InstructionDefsAndUses) {
  auto usesOf = [](const Instruction &I) {
    std::vector<unsigned> Uses;
    I.getUses(Uses);
    return Uses;
  };

  BinaryInst Add(BinaryOp::Add, 3, Operand::reg(1), Operand::reg(2));
  EXPECT_EQ(*Add.getDef(), 3u);
  EXPECT_EQ(usesOf(Add), (std::vector<unsigned>{1, 2}));
  EXPECT_FALSE(Add.hasSideEffects());

  BinaryInst Div(BinaryOp::Div, 3, Operand::reg(1), Operand::reg(2));
  EXPECT_TRUE(Div.hasSideEffects()) << "division can trap";

  StoreInst Store(Operand::reg(4), Operand::imm(0), 2);
  EXPECT_FALSE(Store.getDef().has_value());
  EXPECT_TRUE(Store.hasSideEffects());
  EXPECT_EQ(usesOf(Store), (std::vector<unsigned>{4}));

  CmpInst Cmp(Operand::reg(0), Operand::imm(5));
  EXPECT_TRUE(Cmp.writesCC());
  EXPECT_FALSE(Cmp.hasSideEffects());

  ReadCharInst Read(2);
  EXPECT_TRUE(Read.hasSideEffects());
  EXPECT_EQ(*Read.getDef(), 2u);
}

TEST_F(IRStructureTest, CondBrInvertPreservesSemantics) {
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B = F->createBlock("b");
  CondBrInst Br(CondCode::LT, A, B);
  EXPECT_TRUE(Br.readsCC());
  Br.invert();
  EXPECT_EQ(Br.getPred(), CondCode::GE);
  EXPECT_EQ(Br.getTaken(), B);
  EXPECT_EQ(Br.getFallThrough(), A);
}

TEST_F(IRStructureTest, ReplaceSuccessorRewritesAllEdges) {
  BasicBlock *A = F->createBlock();
  BasicBlock *B = F->createBlock();
  CondBrInst Br(CondCode::EQ, A, A);
  Br.replaceSuccessor(A, B);
  EXPECT_EQ(Br.getTaken(), B);
  EXPECT_EQ(Br.getFallThrough(), B);
}

TEST_F(IRStructureTest, CloneIsDeepForAllKinds) {
  BasicBlock *A = F->createBlock();
  std::vector<std::unique_ptr<Instruction>> Originals;
  Originals.push_back(std::make_unique<MoveInst>(1, Operand::imm(4)));
  Originals.push_back(std::make_unique<BinaryInst>(
      BinaryOp::Xor, 2, Operand::reg(1), Operand::imm(3)));
  Originals.push_back(
      std::make_unique<UnaryInst>(UnaryOp::Not, 3, Operand::reg(2)));
  Originals.push_back(
      std::make_unique<LoadInst>(4, Operand::imm(0), 1));
  Originals.push_back(std::make_unique<StoreInst>(Operand::reg(4),
                                                  Operand::imm(0), 1));
  Originals.push_back(
      std::make_unique<CmpInst>(Operand::reg(1), Operand::imm(9)));
  Originals.push_back(std::make_unique<ReadCharInst>(5));
  Originals.push_back(std::make_unique<PutCharInst>(Operand::reg(5)));
  Originals.push_back(std::make_unique<PrintIntInst>(Operand::reg(5)));
  Originals.push_back(std::make_unique<ProfileInst>(7, 1));
  Originals.push_back(std::make_unique<JumpInst>(A));
  Originals.push_back(std::make_unique<CondBrInst>(CondCode::GT, A, A));
  Originals.push_back(std::make_unique<RetInst>(Operand::imm(0)));
  for (const auto &Inst : Originals) {
    auto Clone = Inst->clone();
    EXPECT_EQ(Clone->getKind(), Inst->getKind());
    EXPECT_EQ(Clone->toString(), Inst->toString());
    EXPECT_NE(Clone.get(), Inst.get());
  }
}

TEST_F(IRStructureTest, JumpFallThroughFlagSurvivesCloneNotRetarget) {
  BasicBlock *A = F->createBlock();
  BasicBlock *B = F->createBlock();
  JumpInst Jump(A);
  Jump.setIsFallThrough(true);
  auto Clone = Jump.clone();
  EXPECT_TRUE(cast<JumpInst>(Clone.get())->isFallThrough());
  // Retargeting invalidates the layout fact.
  Jump.setTarget(B);
  EXPECT_FALSE(Jump.isFallThrough());
}

TEST_F(IRStructureTest, BlockInsertRemoveTruncate) {
  BasicBlock *A = F->createBlock("work");
  A->append(std::make_unique<MoveInst>(0, Operand::imm(1)));
  A->append(std::make_unique<MoveInst>(0, Operand::imm(2)));
  A->append(std::make_unique<RetInst>(Operand::reg(0)));
  EXPECT_TRUE(A->hasTerminator());
  EXPECT_EQ(A->size(), 3u);

  A->insertAt(1, std::make_unique<MoveInst>(0, Operand::imm(9)));
  EXPECT_EQ(A->size(), 4u);
  auto Removed = A->removeAt(1);
  EXPECT_EQ(cast<MoveInst>(Removed.get())->getSrc().getImm(), 9);
  EXPECT_EQ(Removed->getParent(), nullptr);

  EXPECT_EQ(A->indexOf(A->getTerminator()), 2u);
  A->truncateFrom(1);
  EXPECT_EQ(A->size(), 1u);
  EXPECT_FALSE(A->hasTerminator());
}

TEST_F(IRStructureTest, FunctionLayoutOperations) {
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B = F->createBlock("b");
  BasicBlock *C = F->createBlockAfter(A, "c");
  // Layout is now a, c, b.
  EXPECT_EQ(F->getNextBlock(A), C);
  EXPECT_EQ(F->getNextBlock(C), B);
  EXPECT_EQ(F->getNextBlock(B), nullptr);

  F->moveBlockAfter(B, A); // a, b, c
  EXPECT_EQ(F->getNextBlock(A), B);
  EXPECT_EQ(F->getNextBlock(B), C);

  F->setLayout({A, C, B});
  EXPECT_EQ(F->getNextBlock(A), C);
  EXPECT_EQ(F->blockIndex(B), 2u);
}

TEST_F(IRStructureTest, PredecessorRecomputation) {
  BasicBlock *A = F->createBlock();
  BasicBlock *B = F->createBlock();
  BasicBlock *C = F->createBlock();
  IRBuilder Builder(A);
  Builder.emitCmp(Operand::reg(0), Operand::imm(0));
  Builder.emitCondBr(CondCode::EQ, B, C);
  Builder.setInsertionPoint(B);
  Builder.emitJump(C);
  Builder.setInsertionPoint(C);
  Builder.emitRet();
  PredecessorMap Preds = predecessorMap(*F);
  EXPECT_TRUE(Preds.at(A).empty());
  EXPECT_TRUE(Preds.at(B) == std::vector<BasicBlock *>{A});
  EXPECT_EQ(Preds.at(C).size(), 2u);
}

TEST_F(IRStructureTest, ModuleGlobalsGetDistinctAddresses) {
  Module Mod;
  const GlobalVariable *X = Mod.createGlobal("x", 1, {42});
  const GlobalVariable *Arr = Mod.createGlobal("arr", 10);
  EXPECT_EQ(X->BaseAddress, 0u);
  EXPECT_EQ(Arr->BaseAddress, 1u);
  EXPECT_EQ(Mod.memorySize(), 11u);
  EXPECT_EQ(Mod.getGlobal("x"), X);
  EXPECT_EQ(Mod.getGlobal("missing"), nullptr);
}

TEST_F(IRStructureTest, CodeSizeSkipsFallThroughAndHooks) {
  BasicBlock *A = F->createBlock();
  BasicBlock *B = F->createBlock();
  IRBuilder Builder(A);
  Builder.emitProfile(0, 0);
  auto *Jump = Builder.emitJump(B);
  Builder.setInsertionPoint(B);
  Builder.emitRet();
  EXPECT_EQ(F->instructionCount(), 3u);
  EXPECT_EQ(F->codeSize(), 2u); // profile hook excluded
  Jump->setIsFallThrough(true);
  EXPECT_EQ(F->codeSize(), 1u); // fall-through jump excluded too
}

//===----------------------------------------------------------------------===//
// CFG utilities
//===----------------------------------------------------------------------===//

TEST(CFGTest, ReachabilityAndRPO) {
  Module M;
  Function *F = M.createFunction("f", 0);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Then = F->createBlock("then");
  BasicBlock *Else = F->createBlock("else");
  BasicBlock *Join = F->createBlock("join");
  BasicBlock *Dead = F->createBlock("dead");
  IRBuilder Builder(Entry);
  Builder.emitCmp(Operand::imm(1), Operand::imm(2));
  Builder.emitCondBr(CondCode::LT, Then, Else);
  Builder.setInsertionPoint(Then);
  Builder.emitJump(Join);
  Builder.setInsertionPoint(Else);
  Builder.emitJump(Join);
  Builder.setInsertionPoint(Join);
  Builder.emitRet();
  Builder.setInsertionPoint(Dead);
  Builder.emitRet();

  auto Reached = reachableBlocks(*F);
  EXPECT_EQ(Reached.size(), 4u);
  EXPECT_FALSE(Reached.count(Dead));

  std::vector<BasicBlock *> Order = reversePostOrder(*F);
  ASSERT_EQ(Order.size(), 4u);
  EXPECT_EQ(Order.front(), Entry);
  EXPECT_EQ(Order.back(), Join);
}

TEST(CFGTest, CloneBlocksRedirectsInternalEdges) {
  Module M;
  Function *F = M.createFunction("f", 0);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B = F->createBlock("b");
  BasicBlock *Outside = F->createBlock("outside");
  IRBuilder Builder(A);
  Builder.emitCmp(Operand::imm(0), Operand::imm(1));
  Builder.emitCondBr(CondCode::LT, B, Outside);
  Builder.setInsertionPoint(B);
  Builder.emitJump(A); // back edge inside the cloned set
  Builder.setInsertionPoint(Outside);
  Builder.emitRet();

  auto CloneMap = cloneBlocks(*F, {A, B});
  ASSERT_EQ(CloneMap.size(), 2u);
  BasicBlock *CloneA = CloneMap[A];
  BasicBlock *CloneB = CloneMap[B];
  const auto *ClonedBr = cast<CondBrInst>(CloneA->getTerminator());
  EXPECT_EQ(ClonedBr->getTaken(), CloneB) << "internal edge must redirect";
  EXPECT_EQ(ClonedBr->getFallThrough(), Outside)
      << "external edge must stay";
  const auto *ClonedJump = cast<JumpInst>(CloneB->getTerminator());
  EXPECT_EQ(ClonedJump->getTarget(), CloneA);
}

//===----------------------------------------------------------------------===//
// Printer and verifier
//===----------------------------------------------------------------------===//

TEST(PrinterTest, InstructionRendering) {
  Module M;
  Function *F = M.createFunction("f", 0);
  BasicBlock *A = F->createBlock("target");
  EXPECT_EQ(MoveInst(1, Operand::imm(-3)).toString(), "mov r1, -3");
  EXPECT_EQ(BinaryInst(BinaryOp::Shl, 2, Operand::reg(1), Operand::imm(4))
                .toString(),
            "shl r2, r1, 4");
  EXPECT_EQ(CmpInst(Operand::reg(0), Operand::imm(32)).toString(),
            "cmp r0, 32");
  std::string BrText = CondBrInst(CondCode::LE, A, A).toString();
  EXPECT_NE(BrText.find("br.le"), std::string::npos);
  EXPECT_NE(BrText.find(A->getLabel()), std::string::npos);
  EXPECT_EQ(RetInst().toString(), "ret");
  EXPECT_EQ(RetInst(Operand::reg(2)).toString(), "ret r2");
}

TEST(VerifierTest, CatchesMissingTerminator) {
  Module M;
  Function *F = M.createFunction("f", 0);
  BasicBlock *A = F->createBlock();
  A->append(std::make_unique<MoveInst>(0, Operand::imm(1)));
  F->growRegsTo(0);
  std::string Errors;
  EXPECT_FALSE(verifyFunction(*F, &Errors));
  EXPECT_NE(Errors.find("terminator"), std::string::npos);
}

TEST(VerifierTest, CatchesOutOfRangeRegister) {
  Module M;
  Function *F = M.createFunction("f", 0);
  BasicBlock *A = F->createBlock();
  A->append(std::make_unique<MoveInst>(99, Operand::imm(1)));
  A->append(std::make_unique<RetInst>());
  std::string Errors;
  EXPECT_FALSE(verifyFunction(*F, &Errors));
  EXPECT_NE(Errors.find("out-of-range"), std::string::npos);
}

TEST(VerifierTest, CatchesBranchWithoutCompare) {
  Module M;
  Function *F = M.createFunction("f", 0);
  BasicBlock *A = F->createBlock();
  BasicBlock *B = F->createBlock();
  A->append(std::make_unique<CondBrInst>(CondCode::EQ, B, B));
  B->append(std::make_unique<RetInst>());
  std::string Errors;
  EXPECT_FALSE(verifyFunction(*F, &Errors));
  EXPECT_NE(Errors.find("cmp"), std::string::npos);
}

TEST(VerifierTest, AcceptsInheritedConditionCodes) {
  // After redundant-compare elimination a branch may rely on every
  // predecessor's compare; the verifier must accept that.
  Module M;
  Function *F = M.createFunction("f", 0);
  BasicBlock *A = F->createBlock();
  BasicBlock *B = F->createBlock();
  BasicBlock *C = F->createBlock();
  unsigned R = F->newReg();
  IRBuilder Builder(A);
  Builder.emitMove(R, Operand::imm(1));
  Builder.emitCmp(Operand::reg(R), Operand::imm(0));
  Builder.emitCondBr(CondCode::GT, B, C);
  Builder.setInsertionPoint(B);
  Builder.emitCondBr(CondCode::EQ, C, C); // inherits A's condition codes
  Builder.setInsertionPoint(C);
  Builder.emitRet();
  std::string Errors;
  EXPECT_TRUE(verifyFunction(*F, &Errors)) << Errors;
}

TEST(VerifierTest, IgnoresUnreachablePredecessorsInCCDataflow) {
  // Regression for a fuzzer find (fuzz/corpus/case-10454...): branch
  // chaining can orphan a jump-only block whose jump still targets a
  // block that inherits condition codes.  The dead edge must not poison
  // the CC dataflow — every *reachable* path into C carries a cmp.
  Module M;
  Function *F = M.createFunction("f", 0);
  BasicBlock *A = F->createBlock();
  BasicBlock *B = F->createBlock();
  BasicBlock *C = F->createBlock();
  BasicBlock *Dead = F->createBlock("dead");
  unsigned R = F->newReg();
  IRBuilder Builder(A);
  Builder.emitMove(R, Operand::imm(1));
  Builder.emitCmp(Operand::reg(R), Operand::imm(0));
  Builder.emitCondBr(CondCode::GT, B, C);
  Builder.setInsertionPoint(B);
  Builder.emitRet();
  Builder.setInsertionPoint(C);
  Builder.emitCondBr(CondCode::EQ, B, B); // inherits A's condition codes
  Dead->append(std::make_unique<JumpInst>(C)); // unreachable, no cmp
  std::string Errors;
  EXPECT_TRUE(verifyFunction(*F, &Errors)) << Errors;
}

} // namespace
