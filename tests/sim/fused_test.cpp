//===- tests/sim/fused_test.cpp - Fusion and threaded-engine tests --------===//
//
// Targeted tests for engine v2 (sim/Fuse.h + sim/Threaded.cpp): the
// decode-time fuser must produce the documented superinstruction shapes,
// the compaction pass must leave a dense reachable stream, and fused
// programs — including profile-ordered chains and measured layouts — must
// stay observationally identical to the tree-walking reference, even when
// an instruction limit cuts execution mid-macro-op.  Whole-corpus engine
// agreement is covered by decoded_test.cpp; this file pins down the
// fusion-specific machinery.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "ir/IRBuilder.h"
#include "predict/BranchPredictor.h"
#include "profile/ProfileDB.h"
#include "runtime/HotnessSampler.h"
#include "sim/Fuse.h"
#include "sim/Interpreter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>
#include <optional>

using namespace bropt;

namespace {

size_t countOps(const DecodedFunction &DF, DecodedOp Op) {
  size_t Count = 0;
  for (const DecodedInst &Inst : DF.Insts)
    Count += Inst.Op == Op;
  return Count;
}

/// Runs main() under \p Mode.  \p Prepared (optional) supplies a
/// pre-fused program; \p Limit of 0 means no explicit instruction limit.
RunResult runEngine(const Module &M, Interpreter::Mode Mode,
                    const DecodedModule *Prepared = nullptr,
                    std::string_view Input = "", bool WithPredictor = false,
                    uint64_t Limit = 0,
                    const std::vector<int64_t> &Args = {}) {
  Interpreter Interp(M, Mode);
  if (Prepared)
    Interp.setPreparedProgram(Prepared);
  Interp.setInput(Input);
  std::optional<BranchPredictor> Predictor;
  if (WithPredictor) {
    Predictor.emplace(PredictorConfig::ultraSparc());
    Interp.attachPredictor(&*Predictor);
  }
  if (Limit)
    Interp.setInstructionLimit(Limit);
  return Interp.run("main", Args);
}

void expectSameObservables(const RunResult &Tree, const RunResult &Fused) {
  EXPECT_EQ(Tree.Trapped, Fused.Trapped);
  EXPECT_EQ(Tree.TrapReason, Fused.TrapReason);
  EXPECT_EQ(Tree.ExitValue, Fused.ExitValue);
  EXPECT_EQ(Tree.Output, Fused.Output);
  EXPECT_EQ(Tree.Counts.TotalInsts, Fused.Counts.TotalInsts);
  EXPECT_EQ(Tree.Counts.CondBranches, Fused.Counts.CondBranches);
  EXPECT_EQ(Tree.Counts.TakenBranches, Fused.Counts.TakenBranches);
  EXPECT_EQ(Tree.Counts.UncondJumps, Fused.Counts.UncondJumps);
  EXPECT_EQ(Tree.Counts.IndirectJumps, Fused.Counts.IndirectJumps);
  EXPECT_EQ(Tree.Counts.Compares, Fused.Counts.Compares);
  EXPECT_EQ(Tree.Counts.Loads, Fused.Counts.Loads);
  EXPECT_EQ(Tree.Counts.Stores, Fused.Counts.Stores);
  EXPECT_EQ(Tree.Counts.Calls, Fused.Counts.Calls);
  EXPECT_EQ(Tree.Counts.ProfileHooks, Fused.Counts.ProfileHooks);
  EXPECT_EQ(Tree.Prediction.Branches, Fused.Prediction.Branches);
  EXPECT_EQ(Tree.Prediction.Mispredictions, Fused.Prediction.Mispredictions);
}

/// Counted read-modify-write loop.  The body is exactly [Load; Binary;
/// Store; Jump] so it fuses into one LoadBinStoreJump, and the loop head
/// is [Binary; Cmp; CondBr] so it fuses into a BinCmpBr.  Executes 42
/// logical instructions and returns 5.
void buildRmwLoop(Module &M) {
  M.createGlobal("g", 1);
  Function *F = M.createFunction("main", 0);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Check = F->createBlock("check");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  unsigned Counter = F->newReg();
  unsigned Value = F->newReg();
  unsigned Sum = F->newReg();
  unsigned Ret = F->newReg();
  IRBuilder Builder(Entry);
  Builder.emitMove(Counter, Operand::imm(0));
  Builder.emitJump(Check);
  Builder.setInsertionPoint(Check);
  Builder.emitBinary(BinaryOp::Add, Counter, Operand::reg(Counter),
                     Operand::imm(1));
  Builder.emitCmp(Operand::reg(Counter), Operand::imm(5));
  Builder.emitCondBr(CondCode::GT, Exit, Body);
  Builder.setInsertionPoint(Body);
  Builder.emitLoad(Value, Operand::imm(0));
  Builder.emitBinary(BinaryOp::Add, Sum, Operand::reg(Value),
                     Operand::imm(1));
  Builder.emitStore(Operand::reg(Sum), Operand::imm(0));
  Builder.emitJump(Check);
  Builder.setInsertionPoint(Exit);
  Builder.emitLoad(Ret, Operand::imm(0));
  Builder.emitRet(Operand::reg(Ret));
}

/// Three-arm compare/branch ladder on the function argument; fuses into a
/// single MultiCmp.  Returns 10 + the matched constant, or 0.
void buildLadder(Module &M) {
  Function *F = M.createFunction("main", 1);
  BasicBlock *Blocks[3];
  BasicBlock *Hits[3];
  for (int Index = 0; Index < 3; ++Index) {
    Blocks[Index] = F->createBlock();
    Hits[Index] = F->createBlock();
  }
  BasicBlock *Miss = F->createBlock();
  for (int Index = 0; Index < 3; ++Index) {
    IRBuilder Builder(Blocks[Index]);
    Builder.emitCmp(Operand::reg(0), Operand::imm(Index + 1));
    Builder.emitCondBr(CondCode::EQ, Hits[Index],
                       Index + 1 < 3 ? Blocks[Index + 1] : Miss);
    Builder.setInsertionPoint(Hits[Index]);
    Builder.emitRet(Operand::imm(10 + Index + 1));
  }
  IRBuilder(Miss).emitRet(Operand::imm(0));
}

TEST(FusedShapeTest, RmwLoopFusesToSingleBodyDispatch) {
  Module M;
  buildRmwLoop(M);
  FuseStats Stats;
  DecodedModule Fused = decodeFused(M, {}, &Stats);
  const DecodedFunction *DF = Fused.getFunction("main");
  ASSERT_NE(DF, nullptr);
  EXPECT_EQ(countOps(*DF, DecodedOp::LoadBinStoreJump), 1u);
  EXPECT_EQ(countOps(*DF, DecodedOp::BinCmpBr), 1u);
  // The absorbed slots must be compacted away, leaving a stream strictly
  // smaller than the plain decode.
  DecodedModule Plain = DecodedModule::decode(M);
  EXPECT_GT(Stats.CompactedSlots, 0u);
  EXPECT_LT(DF->Insts.size(), Plain.getFunction("main")->Insts.size());

  RunResult Tree = runEngine(M, Interpreter::Mode::Tree);
  RunResult FusedRun =
      runEngine(M, Interpreter::Mode::Fused, &Fused);
  expectSameObservables(Tree, FusedRun);
  EXPECT_EQ(Tree.ExitValue, 5);
  EXPECT_EQ(Tree.Counts.TotalInsts, 42u);
}

TEST(FusedShapeTest, StoreLoadBinForwardsTheStoredValue) {
  // The load reads the address the fused store just wrote: the handler
  // must store before loading, or the stale value leaks through.
  Module M;
  M.createGlobal("g", 1);
  Function *F = M.createFunction("main", 0);
  BasicBlock *Entry = F->createBlock();
  unsigned A = F->newReg(), B = F->newReg(), C = F->newReg();
  IRBuilder Builder(Entry);
  Builder.emitMove(A, Operand::imm(41));
  Builder.emitStore(Operand::reg(A), Operand::imm(0));
  Builder.emitLoad(B, Operand::imm(0));
  Builder.emitBinary(BinaryOp::Add, C, Operand::reg(B), Operand::reg(A));
  Builder.emitRet(Operand::reg(C));

  FuseStats Stats;
  DecodedModule Fused = decodeFused(M, {}, &Stats);
  const DecodedFunction *DF = Fused.getFunction("main");
  ASSERT_NE(DF, nullptr);
  EXPECT_EQ(countOps(*DF, DecodedOp::StoreLoadBin), 1u);
  RunResult Tree = runEngine(M, Interpreter::Mode::Tree);
  RunResult FusedRun = runEngine(M, Interpreter::Mode::Fused, &Fused);
  expectSameObservables(Tree, FusedRun);
  EXPECT_EQ(FusedRun.ExitValue, 82);
}

TEST(FusedShapeTest, PutCharLoadBinEmitsThenAdvances) {
  Module M;
  M.createGlobal("g", 1, {65});
  Function *F = M.createFunction("main", 0);
  BasicBlock *Entry = F->createBlock();
  unsigned A = F->newReg(), B = F->newReg();
  IRBuilder Builder(Entry);
  Builder.emitPutChar(Operand::imm(88));
  Builder.emitLoad(A, Operand::imm(0));
  Builder.emitBinary(BinaryOp::Add, B, Operand::reg(A), Operand::imm(1));
  Builder.emitRet(Operand::reg(B));

  FuseStats Stats;
  DecodedModule Fused = decodeFused(M, {}, &Stats);
  const DecodedFunction *DF = Fused.getFunction("main");
  ASSERT_NE(DF, nullptr);
  EXPECT_EQ(countOps(*DF, DecodedOp::PutCharLoadBin), 1u);
  RunResult Tree = runEngine(M, Interpreter::Mode::Tree);
  RunResult FusedRun = runEngine(M, Interpreter::Mode::Fused, &Fused);
  expectSameObservables(Tree, FusedRun);
  EXPECT_EQ(FusedRun.Output, "X");
  EXPECT_EQ(FusedRun.ExitValue, 66);
}

TEST(FusedShapeTest, LadderFusesToMultiCmpAndCompacts) {
  Module M;
  buildLadder(M);
  FuseStats Stats;
  DecodedModule Fused = decodeFused(M, {}, &Stats);
  const DecodedFunction *DF = Fused.getFunction("main");
  ASSERT_NE(DF, nullptr);
  // The whole ladder collapses into one MultiCmp; the suffix chains the
  // fuser also emits become unreachable and are compacted away, along
  // with every plain Cmp/CondBr.
  EXPECT_GE(Stats.FusedChains, 1u);
  EXPECT_EQ(countOps(*DF, DecodedOp::MultiCmp), 1u);
  EXPECT_EQ(countOps(*DF, DecodedOp::Cmp), 0u);
  EXPECT_EQ(countOps(*DF, DecodedOp::CondBr), 0u);
  EXPECT_GT(Stats.CompactedSlots, 0u);
  for (int64_t Arg : {0, 1, 2, 3, 4}) {
    SCOPED_TRACE(Arg);
    for (bool WithPredictor : {false, true}) {
      RunResult Tree = runEngine(M, Interpreter::Mode::Tree, nullptr, "",
                                 WithPredictor, 0, {Arg});
      RunResult FusedRun = runEngine(M, Interpreter::Mode::Fused, &Fused,
                                     "", WithPredictor, 0, {Arg});
      expectSameObservables(Tree, FusedRun);
      EXPECT_EQ(Tree.ExitValue,
                Arg >= 1 && Arg <= 3 ? 10 + Arg : 0);
    }
  }
}

TEST(FusedLimitTest, LimitMidMacroOpCountsPartially) {
  // Sweep the instruction limit across every point of both programs'
  // executions: wherever the limit lands — even mid-LoadBinStoreJump or
  // mid-MultiCmp, with and without the predictor's batched chain path —
  // the fused engine must trap at exactly the same logical instruction
  // with exactly the same counters as the tree walker.
  Module Rmw, Ladder;
  buildRmwLoop(Rmw);
  buildLadder(Ladder);
  for (uint64_t Limit = 1; Limit <= 45; ++Limit) {
    SCOPED_TRACE(Limit);
    RunResult Tree =
        runEngine(Rmw, Interpreter::Mode::Tree, nullptr, "", false, Limit);
    RunResult Fused =
        runEngine(Rmw, Interpreter::Mode::Fused, nullptr, "", false, Limit);
    expectSameObservables(Tree, Fused);
  }
  DecodedModule Fused = decodeFused(Ladder);
  for (uint64_t Limit = 1; Limit <= 8; ++Limit) {
    SCOPED_TRACE(Limit);
    for (bool WithPredictor : {false, true}) {
      RunResult Tree = runEngine(Ladder, Interpreter::Mode::Tree, nullptr,
                                 "", WithPredictor, Limit, {3});
      RunResult FusedRun = runEngine(Ladder, Interpreter::Mode::Fused,
                                     &Fused, "", WithPredictor, Limit, {3});
      expectSameObservables(Tree, FusedRun);
    }
  }
}

TEST(FusedProfileTest, ProfileOrderedChainsStayEquivalent) {
  // Mirror the Evaluator's hot path: fuse each baseline module with the
  // profile collected by pass 1, which reorders disjoint chain arms
  // hottest-first.  Execution order changes; observables must not, even
  // with a predictor attached.  At least one workload must actually
  // trigger a reorder or the path is untested.
  uint64_t TotalReordered = 0;
  for (const Workload &W : standardWorkloads()) {
    SCOPED_TRACE(W.Name);
    CompileOptions Options;
    CompileResult Baseline = compileBaseline(W.Source, Options);
    ASSERT_TRUE(Baseline.ok()) << Baseline.Error;
    CompileResult Reordered =
        compileWithReordering(W.Source, W.TrainingInput, Options);
    ASSERT_TRUE(Reordered.ok()) << Reordered.Error;
    ProfileDB Profile;
    ASSERT_TRUE(Profile.deserialize(Reordered.ProfileText));
    FuseOptions Opts;
    Opts.Profile = &Profile;
    FuseStats Stats;
    DecodedModule DM = decodeFused(*Baseline.M, Opts, &Stats);
    TotalReordered += Stats.ProfileOrderedChains;
    RunResult Tree = runEngine(*Baseline.M, Interpreter::Mode::Tree,
                               nullptr, W.TestInput, true);
    RunResult FusedRun = runEngine(*Baseline.M, Interpreter::Mode::Fused,
                                   &DM, W.TestInput, true);
    expectSameObservables(Tree, FusedRun);
  }
  EXPECT_GT(TotalReordered, 0u);
}

TEST(FusedLayoutTest, MeasuredHotnessMovesHotSuccessorIntoFallThrough) {
  // Regression for the dead hot-first layout: the compiler's block
  // repositioning already makes the static likely successor the
  // fall-through, so layout without measured bias never moves anything
  // (until PR 4, suite-wide fuse statistics read blocks_moved: 0).  When
  // BranchHotness says the *taken* side is the hot one, the layout must
  // move it into fall-through position — and stay bit-identical.
  Module M;
  Function *F = M.createFunction("main", 1);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Cold = F->createBlock("cold");
  BasicBlock *Hot = F->createBlock("hot");
  IRBuilder Builder(Entry);
  Builder.emitCmp(Operand::reg(0), Operand::imm(0));
  Builder.emitCondBr(CondCode::EQ, Hot, Cold); // taken -> Hot, last in layout
  Builder.setInsertionPoint(Cold);
  Builder.emitRet(Operand::imm(1));
  Builder.setInsertionPoint(Hot);
  Builder.emitRet(Operand::imm(2));

  // The original order is already the static guess: nothing moves.
  FuseStats StaticStats;
  decodeFused(M, {}, &StaticStats);
  EXPECT_EQ(StaticStats.BlocksMoved, 0u);
  EXPECT_EQ(StaticStats.FunctionsLaidOut, 0u);

  // The single CondBr gets branch id 0; mark it mostly taken.
  BranchHotness Measured;
  Measured.Taken.assign(1, 10);
  Measured.Total.assign(1, 10);
  FuseOptions Opts;
  Opts.Hotness = &Measured;
  FuseStats Stats;
  SwapMap Map;
  DecodedModule DM = decodeFused(M, Opts, &Stats, &Map);
  EXPECT_GT(Stats.BlocksMoved, 0u);
  EXPECT_EQ(Stats.FunctionsLaidOut, 1u);
  // The swap map must survive the move: the entry block keeps index 0 and
  // every mapped start points into the fused stream.
  ASSERT_EQ(Map.FusedIndexOf.size(), 1u);
  ASSERT_TRUE(Map.FusedIndexOf[0].count(0));
  EXPECT_EQ(Map.FusedIndexOf[0].at(0), 0u);
  for (auto [Plain, Fused] : Map.FusedIndexOf[0])
    EXPECT_LT(Fused, DM.function(0).Insts.size());

  for (int64_t Arg : {0, 1}) {
    SCOPED_TRACE(Arg);
    RunResult Tree =
        runEngine(M, Interpreter::Mode::Tree, nullptr, "", false, 0, {Arg});
    RunResult FusedRun =
        runEngine(M, Interpreter::Mode::Fused, &DM, "", false, 0, {Arg});
    expectSameObservables(Tree, FusedRun);
    EXPECT_EQ(FusedRun.ExitValue, Arg == 0 ? 2 : 1);
  }
}

TEST(FusedLayoutTest, WorkloadHotnessProducesNonzeroLayoutStats) {
  // The benchmark harness feeds decodeFused the measured bias from a
  // profiling run (collectBranchHotness); across the standard workloads
  // that must actually fire the layout, or the committed engine stats
  // regress to the all-zero state this PR fixes.
  uint64_t Moved = 0, LaidOut = 0;
  for (const Workload &W : standardWorkloads()) {
    SCOPED_TRACE(W.Name);
    CompileResult Baseline = compileBaseline(W.Source, CompileOptions());
    ASSERT_TRUE(Baseline.ok()) << Baseline.Error;
    BranchHotness Measured =
        collectBranchHotness(*Baseline.M, W.TrainingInput);
    FuseOptions Opts;
    Opts.Hotness = &Measured;
    FuseStats Stats;
    DecodedModule DM = decodeFused(*Baseline.M, Opts, &Stats);
    Moved += Stats.BlocksMoved;
    LaidOut += Stats.FunctionsLaidOut;
    RunResult Tree =
        runEngine(*Baseline.M, Interpreter::Mode::Tree, nullptr, W.TestInput);
    RunResult FusedRun =
        runEngine(*Baseline.M, Interpreter::Mode::Fused, &DM, W.TestInput);
    expectSameObservables(Tree, FusedRun);
  }
  EXPECT_GT(Moved, 0u);
  EXPECT_GT(LaidOut, 0u);
}

TEST(FusedPreparedTest, PreparedProgramIsReusableAcrossRuns) {
  // An artifact's fused slot is built once and run repeatedly,
  // including concurrently from the thread pool; a prepared program must
  // be read-only at run time and give identical results every run.
  Module M;
  buildRmwLoop(M);
  DecodedModule DM = decodeFused(M);
  Interpreter Interp(M, Interpreter::Mode::Fused);
  Interp.setPreparedProgram(&DM);
  RunResult First = Interp.run();
  RunResult Second = Interp.run();
  expectSameObservables(First, Second);
  EXPECT_EQ(First.ExitValue, 5);
}

} // namespace
