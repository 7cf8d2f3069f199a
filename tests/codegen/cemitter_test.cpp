//===- tests/codegen/cemitter_test.cpp - C emitter golden tests -----------===//
//
// Golden-file coverage for codegen/CEmitter.h: the emitted C for a fixture
// module is pinned byte-for-byte, so any change to the lowering — label
// order, fall-through elision, trap strings, the runtime preamble — shows
// up as a reviewable diff instead of a silent behavior shift.  Regenerate
// with
//
//   BROPT_UPDATE_GOLDEN=1 ctest -R CEmitter
//
// after reviewing the new output by eye.
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"

#include "driver/Driver.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"

#include "../GoldenFile.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>

using namespace bropt;

namespace {

/// A hand-laid module exercising every construct the emitter lowers:
/// arithmetic and unary ops, compare/branch with an elided fall-through,
/// a layout-flagged fall-through jump (what opt/Repositioning produces),
/// a plain goto, switch, indirect jump, call, memory with initializers,
/// and all three IO instructions.  Built by hand so the golden file pins
/// the *emitter*, not the whole pipeline in front of it.
std::unique_ptr<Module> fixtureModule() {
  auto M = std::make_unique<Module>();
  M->createGlobal("weights", 4, {5, 6});

  Function *Weight = M->createFunction("weight", 2);
  {
    IRBuilder IB(Weight->createBlock());
    unsigned Sum = Weight->newReg();
    IB.emitBinary(BinaryOp::Add, Sum, Operand::reg(0), Operand::reg(1));
    IB.emitRet(Operand::reg(Sum));
  }

  Function *F = M->createFunction("main", 0);
  BasicBlock *Entry = F->createBlock();  // bb0
  BasicBlock *Hot = F->createBlock();    // bb1: Entry's fall-through
  BasicBlock *Mid = F->createBlock();    // bb2: flagged fall-through of Hot
  BasicBlock *Disp = F->createBlock();   // bb3: switch + indirect jump
  BasicBlock *Table = F->createBlock();  // bb4
  BasicBlock *RetHi = F->createBlock();  // bb5
  BasicBlock *RetLo = F->createBlock();  // bb6
  unsigned C = F->newReg(), V = F->newReg(), W = F->newReg();
  unsigned N = F->newReg(), Z = F->newReg();

  IRBuilder IB(Entry);
  IB.emitReadChar(C);
  IB.emitCmp(Operand::reg(C), Operand::imm(-1));
  // Taken target is later in layout, fall-through is adjacent: the
  // emitter must elide the second goto.
  IB.emitCondBr(CondCode::EQ, Disp, Hot);

  IB.setInsertionPoint(Hot);
  IB.emitLoad(V, Operand::imm(0));
  IB.emitCall(W, Weight, {Operand::reg(V), Operand::reg(C)});
  IB.emitStore(Operand::reg(W), Operand::imm(1));
  IB.emitPrintInt(Operand::reg(W));
  // Layout-flagged fall-through: free at runtime, a comment in the C.
  IB.emitJump(Mid)->setIsFallThrough(true);

  IB.setInsertionPoint(Mid);
  IB.emitPutChar(Operand::imm('\n'));
  IB.emitUnary(UnaryOp::Neg, N, Operand::reg(C));
  IB.emitUnary(UnaryOp::Not, Z, Operand::reg(N));
  IB.emitCmp(Operand::reg(Z), Operand::imm(0));
  // Backward taken edge: a real goto against layout order.
  IB.emitCondBr(CondCode::NE, Entry, Disp);

  IB.setInsertionPoint(Disp);
  IB.emitSwitch(Operand::reg(V), {{5, Table}, {6, RetHi}}, RetLo);

  IB.setInsertionPoint(Table);
  IB.emitIndirectJump(Operand::reg(Z), {RetHi, RetLo});

  IB.setInsertionPoint(RetHi);
  IB.emitRet(Operand::imm(42));

  IB.setInsertionPoint(RetLo);
  IB.emitRet(Operand::reg(W));

  return M;
}

TEST(CEmitterTest, GoldenFixtureModule) {
  expectGolden(emitC(*fixtureModule()), goldenPath("codegen", "fixture.c"));
}

TEST(CEmitterTest, LayoutSignatureNamesEveryFunction) {
  std::unique_ptr<Module> M = fixtureModule();
  EXPECT_EQ(layoutSignature(*M), "weight:0;main:0,1,2,3,4,5,6");
  // The signature is embedded verbatim in the emitted unit so a cached
  // shared object can be audited against the layout it was built from.
  EXPECT_NE(emitC(*M).find("/* layout weight:0;main:0,1,2,3,4,5,6 */"),
            std::string::npos);
}

/// The paper's Figure 1 program (same fixture as tests/core/reorder_test).
const char *Figure1Source = R"(
  int x = 0; int y = 0; int z = 0;
  int main() {
    int c;
    while ((c = getchar()) != -1) {
      if (c == ' ')
        y = y + 1;
      else if (c == '\n')
        x = x + 1;
      else
        z = z + 1;
    }
    printint(x); printint(y); printint(z);
    return 0;
  }
)";

std::string ordinaryText(unsigned Seed, size_t Length) {
  std::mt19937 Rng(Seed);
  std::uniform_int_distribution<int> Dist(0, 99);
  std::string Text;
  for (size_t Index = 0; Index < Length; ++Index) {
    int Roll = Dist(Rng);
    if (Roll < 15)
      Text.push_back(' ');
    else if (Roll < 18)
      Text.push_back('\n');
    else
      Text.push_back(static_cast<char>('a' + Roll % 26));
  }
  return Text;
}

// The headline property of the backend: the block order the repositioning
// pass chose survives into the goto structure of the generated C, so the
// host compiler's straight-line code realizes the paper's fall-throughs
// on real silicon.
TEST(CEmitterTest, ReorderedFigure1LayoutSurvivesIntoGotoStructure) {
  CompileResult Baseline = compileBaseline(Figure1Source, {});
  ASSERT_TRUE(Baseline.ok()) << Baseline.Error;
  CompileResult Reordered =
      compileWithReordering(Figure1Source, ordinaryText(1, 4000), {});
  ASSERT_TRUE(Reordered.ok()) << Reordered.Error;
  ASSERT_EQ(Reordered.Stats.Reordered, 1u);

  // Reordering moved blocks, and the emitted C moved with them.
  EXPECT_NE(layoutSignature(*Baseline.M), layoutSignature(*Reordered.M));

  std::string C = emitC(*Reordered.M);
  EXPECT_NE(C.find("/* falls through to L"), std::string::npos);

  // Labels are defined in exactly layout order: walking the emitted text
  // must visit main's blocks in the signature's sequence.
  std::string Signature = layoutSignature(*Reordered.M);
  std::string MainPart = Signature.substr(Signature.find("main:") + 5);
  if (size_t Semi = MainPart.find(';'); Semi != std::string::npos)
    MainPart.resize(Semi);
  size_t Cursor = C.rfind("int64_t bf"); // last body: main's
  ASSERT_NE(Cursor, std::string::npos);
  std::stringstream Ids(MainPart);
  std::string Id;
  while (std::getline(Ids, Id, ',')) {
    size_t Label = C.find("L" + Id + ":", Cursor);
    ASSERT_NE(Label, std::string::npos) << "label L" << Id << " not found "
                                        << "after offset " << Cursor;
    Cursor = Label;
  }
}

} // namespace
