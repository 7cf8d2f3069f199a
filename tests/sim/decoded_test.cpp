//===- tests/sim/decoded_test.cpp - Engine agreement suite ----------------===//
//
// The one dispatch loop over the decoded format runs two streams: the
// unfused stream adaptive tier 0 starts in (Mode::Adaptive with no
// controller) and the fused stream (Mode::Fused).  Both must be
// observationally identical to the tree-walking reference interpreter:
// same DynamicCounts, same predictor statistics, same output bytes, same
// exit values, and same trap diagnostics, on every workload and example
// program, with and without an attached predictor.  These tests run all
// three over everything and assert bitwise equality.  Fusion-specific
// shapes are covered separately in fused_test.cpp.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "ir/CFG.h"
#include "ir/IRBuilder.h"
#include "predict/BranchPredictor.h"
#include "sim/Interpreter.h"
#include "workloads/Workloads.h"

#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace bropt;

namespace {

void expectCountsEqual(const DynamicCounts &Tree, const DynamicCounts &Flat) {
  EXPECT_EQ(Tree.TotalInsts, Flat.TotalInsts);
  EXPECT_EQ(Tree.CondBranches, Flat.CondBranches);
  EXPECT_EQ(Tree.TakenBranches, Flat.TakenBranches);
  EXPECT_EQ(Tree.UncondJumps, Flat.UncondJumps);
  EXPECT_EQ(Tree.IndirectJumps, Flat.IndirectJumps);
  EXPECT_EQ(Tree.Compares, Flat.Compares);
  EXPECT_EQ(Tree.Loads, Flat.Loads);
  EXPECT_EQ(Tree.Stores, Flat.Stores);
  EXPECT_EQ(Tree.Calls, Flat.Calls);
  EXPECT_EQ(Tree.ProfileHooks, Flat.ProfileHooks);
}

/// The three modes every test here runs: the reference, then the threaded
/// loop over the unfused stream (Adaptive with no controller attached is
/// tier 0 alone) and over the fused stream.
const Interpreter::Mode Modes[] = {Interpreter::Mode::Tree,
                                   Interpreter::Mode::Adaptive,
                                   Interpreter::Mode::Fused};

/// Runs \p M under all three (optionally with a fresh predictor each) and
/// asserts every observable field matches the tree walker's.
/// \returns the tree result.
RunResult expectIdenticalRuns(const Module &M, std::string_view Input,
                              bool WithPredictor,
                              const std::string &Context) {
  SCOPED_TRACE(Context);
  const char *ModeNames[] = {"tree", "unfused", "fused"};
  RunResult Results[3];
  for (int Index = 0; Index < 3; ++Index) {
    Interpreter Interp(M, Modes[Index]);
    Interp.setInput(Input);
    std::optional<BranchPredictor> Predictor;
    if (WithPredictor) {
      Predictor.emplace(PredictorConfig::ultraSparc());
      Interp.attachPredictor(&*Predictor);
    }
    Results[Index] = Interp.run();
  }
  const RunResult &Tree = Results[0];
  for (int Index = 1; Index < 3; ++Index) {
    SCOPED_TRACE(ModeNames[Index]);
    const RunResult &Other = Results[Index];
    EXPECT_EQ(Tree.Trapped, Other.Trapped);
    EXPECT_EQ(Tree.TrapReason, Other.TrapReason);
    EXPECT_EQ(Tree.ExitValue, Other.ExitValue);
    EXPECT_EQ(Tree.Output, Other.Output);
    expectCountsEqual(Tree.Counts, Other.Counts);
    EXPECT_EQ(Tree.Prediction.Branches, Other.Prediction.Branches);
    EXPECT_EQ(Tree.Prediction.Mispredictions,
              Other.Prediction.Mispredictions);
  }
  return Results[0];
}

TEST(DecodedDifferentialTest, AllWorkloadsAllHeuristicSets) {
  for (SwitchHeuristicSet Set :
       {SwitchHeuristicSet::SetI, SwitchHeuristicSet::SetII,
        SwitchHeuristicSet::SetIII, SwitchHeuristicSet::SetIV}) {
    CompileOptions Options;
    Options.HeuristicSet = Set;
    // Predict only under Sets I and IV to bound runtime; the predictor
    // path is engine-independent apart from branch-id assignment, which
    // Set I's jump tables, binary searches, and linear searches all
    // exercise.  Set IV (optimal trees, ext-TSP layout) is compiled
    // misprediction-aware for the paper's predictor, the configuration
    // perfbench's pgo-interp workload runs.
    bool WithPredictor = Set == SwitchHeuristicSet::SetI ||
                         Set == SwitchHeuristicSet::SetIV;
    if (Set == SwitchHeuristicSet::SetIV)
      Options.Predictor = "paper";
    for (const Workload &W : standardWorkloads()) {
      std::string Context =
          W.Name + "/set" + switchHeuristicSetName(Set);
      CompileResult Baseline = compileBaseline(W.Source, Options);
      ASSERT_TRUE(Baseline.ok()) << Baseline.Error;
      expectIdenticalRuns(*Baseline.M, W.TestInput, false,
                          Context + "/baseline");
      if (WithPredictor)
        expectIdenticalRuns(*Baseline.M, W.TestInput, true,
                            Context + "/baseline/predict");

      CompileResult Reordered =
          compileWithReordering(W.Source, W.TrainingInput, Options);
      ASSERT_TRUE(Reordered.ok()) << Reordered.Error;
      expectIdenticalRuns(*Reordered.M, W.TestInput, false,
                          Context + "/reordered");
      if (WithPredictor)
        expectIdenticalRuns(*Reordered.M, W.TestInput, true,
                            Context + "/reordered/predict");
    }
  }
}

std::string readFileOrFail(const std::string &Path) {
  std::ifstream Stream(Path, std::ios::binary);
  EXPECT_TRUE(Stream.good()) << "cannot read " << Path;
  std::ostringstream Buffer;
  Buffer << Stream.rdbuf();
  return Buffer.str();
}

TEST(DecodedDifferentialTest, ExamplePrograms) {
  const std::string Root = BROPT_SOURCE_DIR;
  const char *Sources[] = {
      "/examples/mini/wc.mc",
      "/examples/mini/tokens.mc",
  };
  // Feed each program realistic byte streams: its own source text and
  // another program's.
  std::string InputA = readFileOrFail(Root + "/examples/mini/wc.mc");
  std::string InputB = readFileOrFail(Root + "/examples/mini/tokens.mc");
  for (const char *Relative : Sources) {
    std::string Source = readFileOrFail(Root + Relative);
    CompileOptions Options;

    CompileResult Baseline = compileBaseline(Source, Options);
    ASSERT_TRUE(Baseline.ok()) << Relative << ": " << Baseline.Error;
    expectIdenticalRuns(*Baseline.M, InputA, true,
                        std::string(Relative) + "/baseline");

    CompileResult Reordered =
        compileWithReordering(Source, InputB, Options);
    ASSERT_TRUE(Reordered.ok()) << Relative << ": " << Reordered.Error;
    expectIdenticalRuns(*Reordered.M, InputA, true,
                        std::string(Relative) + "/reordered");
  }
}

TEST(DecodedDifferentialTest, CommonSuccessorInstrumentationRuns) {
  // The §10 extension adds ComboProfile hooks; run an instrumented build
  // through every stream via the driver's pass-1 on a switch-heavy
  // workload and make sure the collected profiles agree.
  const Workload *W = findWorkload("sort");
  ASSERT_NE(W, nullptr);
  CompileOptions Options;
  Options.EnableCommonSuccessorReordering = true;
  Options.HeuristicSet = SwitchHeuristicSet::SetIII;
  CompileResult Reordered =
      compileWithReordering(W->Source, W->TrainingInput, Options);
  ASSERT_TRUE(Reordered.ok()) << Reordered.Error;
  expectIdenticalRuns(*Reordered.M, W->TestInput, true,
                      "sort/common-successor");
}

TEST(DecodedDifferentialTest, ProfileHookCallbacksMatch) {
  // Hand-built module with a Profile hook in a counted loop: callback
  // sequences must be identical and hooks must stay out of TotalInsts.
  Module M;
  Function *F = M.createFunction("main", 0);
  BasicBlock *Entry = F->createBlock();
  BasicBlock *Loop = F->createBlock();
  BasicBlock *Exit = F->createBlock();
  unsigned Counter = F->newReg();
  IRBuilder Builder(Entry);
  Builder.emitMove(Counter, Operand::imm(0));
  Builder.emitJump(Loop);
  Builder.setInsertionPoint(Loop);
  Builder.emitProfile(7, Counter);
  Builder.emitBinary(BinaryOp::Add, Counter, Operand::reg(Counter),
                     Operand::imm(1));
  Builder.emitCmp(Operand::reg(Counter), Operand::imm(5));
  Builder.emitCondBr(CondCode::LT, Loop, Exit);
  Builder.setInsertionPoint(Exit);
  Builder.emitRet(Operand::reg(Counter));

  std::vector<std::pair<unsigned, int64_t>> Seen[3];
  for (int Index = 0; Index < 3; ++Index) {
    Interpreter Interp(M, Modes[Index]);
    Interp.setProfileCallback([&Seen, Index](unsigned Id, int64_t Value) {
      Seen[Index].emplace_back(Id, Value);
    });
    RunResult Result = Interp.run();
    EXPECT_FALSE(Result.Trapped) << Result.TrapReason;
    EXPECT_EQ(Result.Counts.ProfileHooks, 5u);
  }
  EXPECT_EQ(Seen[0], Seen[1]);
  EXPECT_EQ(Seen[0], Seen[2]);
  ASSERT_EQ(Seen[0].size(), 5u);
  EXPECT_EQ(Seen[0][0], (std::pair<unsigned, int64_t>{7, 0}));
  EXPECT_EQ(Seen[0][4], (std::pair<unsigned, int64_t>{7, 4}));
}

TEST(DecodedDifferentialTest, TrapDiagnosticsMatch) {
  // Block without a terminator: every stream must report the same
  // fell-off-the-end diagnostic, with all preceding work counted.
  {
    Module M;
    Function *F = M.createFunction("main", 0);
    BasicBlock *Entry = F->createBlock("open");
    IRBuilder Builder(Entry);
    unsigned R = F->newReg();
    Builder.emitMove(R, Operand::imm(1));
    RunResult Result =
        expectIdenticalRuns(M, "", false, "no-terminator");
    EXPECT_TRUE(Result.Trapped);
    EXPECT_NE(Result.TrapReason.find("fell off the end"),
              std::string::npos);
    EXPECT_EQ(Result.Counts.TotalInsts, 1u);
  }
  // Division by zero reached through control flow.
  {
    Module M;
    Function *F = M.createFunction("main", 1);
    BasicBlock *Entry = F->createBlock();
    unsigned R = F->newReg();
    IRBuilder Builder(Entry);
    Builder.emitBinary(BinaryOp::Div, R, Operand::imm(10), Operand::reg(0));
    Builder.emitRet(Operand::reg(R));
    RunResult TreeResult =
        Interpreter(M, Interpreter::Mode::Tree).run("main", {0});
    for (Interpreter::Mode Mode :
         {Interpreter::Mode::Adaptive, Interpreter::Mode::Fused}) {
      RunResult Other = Interpreter(M, Mode).run("main", {0});
      EXPECT_TRUE(TreeResult.Trapped);
      EXPECT_EQ(TreeResult.TrapReason, Other.TrapReason);
    }
  }
  // Missing entry point and argument-count mismatch.
  {
    Module M;
    Function *F = M.createFunction("main", 2);
    BasicBlock *Entry = F->createBlock();
    IRBuilder(Entry).emitRet();
    for (Interpreter::Mode Mode : Modes) {
      RunResult Missing = Interpreter(M, Mode).run("nonexistent");
      EXPECT_TRUE(Missing.Trapped);
      EXPECT_NE(Missing.TrapReason.find("not found"), std::string::npos);
      RunResult BadArgs = Interpreter(M, Mode).run("main", {1});
      EXPECT_TRUE(BadArgs.Trapped);
      EXPECT_NE(BadArgs.TrapReason.find("argument count"),
                std::string::npos);
    }
  }
}

TEST(DecodedDifferentialTest, InstructionLimitMatches) {
  Module M;
  Function *F = M.createFunction("main", 0);
  BasicBlock *Loop = F->createBlock();
  IRBuilder Builder(Loop);
  unsigned R = F->newReg();
  Builder.emitMove(R, Operand::imm(0));
  Builder.emitJump(Loop);
  for (Interpreter::Mode Mode : Modes) {
    Interpreter Interp(M, Mode);
    Interp.setInstructionLimit(999);
    RunResult Result = Interp.run();
    EXPECT_TRUE(Result.Trapped);
    EXPECT_EQ(Result.TrapReason, "instruction limit exceeded");
    EXPECT_EQ(Result.Counts.TotalInsts, 1000u);
  }
}

TEST(DecodedDifferentialTest, ModuleMutationsAreObserved) {
  // Without a prepared program the threaded loop re-decodes per run, so
  // IR mutations between runs — here a jump becoming a layout
  // fall-through — must take effect on either stream.
  Module M;
  Function *F = M.createFunction("main", 0);
  BasicBlock *A = F->createBlock();
  BasicBlock *B = F->createBlock();
  IRBuilder Builder(A);
  JumpInst *Jump = Builder.emitJump(B);
  Builder.setInsertionPoint(B);
  Builder.emitRet();

  Interpreter Fused(M), Unfused(M, Interpreter::Mode::Adaptive);
  EXPECT_EQ(Fused.run().Counts.UncondJumps, 1u);
  EXPECT_EQ(Unfused.run().Counts.UncondJumps, 1u);
  Jump->setIsFallThrough(true);
  EXPECT_EQ(Fused.run().Counts.UncondJumps, 0u);
  EXPECT_EQ(Unfused.run().Counts.UncondJumps, 0u);
}

TEST(DecodedDifferentialTest, BranchIdsMatchTreeNumbering) {
  // Predictor behaviour depends on branch ids; decode numbers them in the
  // same module order numberBranches does, which the tree walker uses.
  Module M;
  Function *F = M.createFunction("main", 1);
  BasicBlock *Entry = F->createBlock();
  BasicBlock *Mid = F->createBlock();
  BasicBlock *Exit = F->createBlock();
  IRBuilder Builder(Entry);
  Builder.emitCmp(Operand::reg(0), Operand::imm(1));
  Builder.emitCondBr(CondCode::LT, Exit, Mid);
  Builder.setInsertionPoint(Mid);
  Builder.emitCmp(Operand::reg(0), Operand::imm(2));
  Builder.emitCondBr(CondCode::LT, Exit, Exit);
  Builder.setInsertionPoint(Exit);
  Builder.emitRet(Operand::reg(0));

  DecodedModule DM = DecodedModule::decode(M);
  EXPECT_EQ(DM.numBranchIds(), 2u);
  const DecodedFunction *DF = DM.getFunction("main");
  ASSERT_NE(DF, nullptr);
  std::vector<uint32_t> Ids;
  for (const DecodedInst &Inst : DF->Insts)
    if (Inst.Op == DecodedOp::CondBr)
      Ids.push_back(Inst.Dest);
  BranchNumbering Numbering = numberBranches(M);
  std::vector<uint32_t> TreeIds;
  for (const auto &Block : *M.getFunction("main"))
    for (const auto &Inst : *Block)
      if (Inst->getKind() == InstKind::CondBr)
        TreeIds.push_back(Numbering.IdOf.at(Inst.get()));
  EXPECT_EQ(Ids, TreeIds);
}

} // namespace
