//===- tests/sim/fused_test.cpp - Fusion and threaded-engine tests --------===//
//
// Targeted tests for engine v2 (sim/Fuse.h + sim/Threaded.cpp): the
// decode-time fuser must produce the documented superinstruction shapes,
// the compaction pass must leave a dense reachable stream, and fused
// programs — including profile-ordered chains and measured layouts — must
// stay observationally identical to the tree-walking reference, even when
// an instruction limit cuts execution mid-macro-op, a trap leaves from
// inside one, or the activation hot-swaps between streams.  Whole-corpus
// engine agreement is covered by decoded_test.cpp; this file pins down the
// fusion-specific machinery.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "ir/IRBuilder.h"
#include "predict/BranchPredictor.h"
#include "predict/Zoo.h"
#include "profile/ProfileDB.h"
#include "runtime/HotnessSampler.h"
#include "runtime/SwapPoint.h"
#include "sim/Fuse.h"
#include "sim/Interpreter.h"
#include "workloads/Workloads.h"

#include <climits>
#include <gtest/gtest.h>
#include <optional>
#include <set>

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

//===----------------------------------------------------------------------===//
// Cold exits: every trap leaves the dispatch loop through one shared exit
// per kind, and a hot swap through one more.  Each exit must hand back
// exact counts and predictor state wherever it is taken from.
//===----------------------------------------------------------------------===//

/// One program's two streams: the unfused one adaptive tier 0 runs and the
/// fused one, with the block maps a hot swap translates positions by.
struct Streams {
  DecodedModule Plain;
  ProgramVersion Fused;

  explicit Streams(const Module &M) : Plain(DecodedModule::decode(M)) {
    Fused.DM = decodeFused(M, {}, nullptr, &Fused.Map);
    Fused.buildReverseMap();
  }
};

enum class Stream { Tree, Fused, Plain, Swapping };

/// Hot swaps per Swapping run at most: each one nests an activation.
constexpr unsigned MaxSwaps = 256;

/// Test-input bytes each workload runs on in the limit sweep.
constexpr size_t SweepInputBytes = 128;

/// Runs main(\p Args) with a fresh `paper` predictor on \p Which: the tree
/// walker, one of \p S's streams, or (Swapping) the unfused stream with a
/// hook that swaps the activation to the other stream at every second
/// offer, counting the swaps that leave the fused stream in
/// \p SwapsFromFused.  Offers come at each sampled branch and at each
/// activation's entry; skipping every other one keeps a swapped-in
/// activation from swapping straight back at its entry, before it has
/// counted anything.  Without \p Limit the default instruction limit
/// holds.
RunResult runPaper(const Module &M, const Streams &S, Stream Which,
                   const std::vector<int64_t> &Args = {},
                   std::string_view Input = "",
                   std::optional<uint64_t> Limit = std::nullopt,
                   unsigned *SwapsFromFused = nullptr) {
  Interpreter Interp(M, Which == Stream::Tree    ? Interpreter::Mode::Tree
                        : Which == Stream::Fused ? Interpreter::Mode::Fused
                                                 : Interpreter::Mode::Adaptive);
  Interp.setPreparedProgram(Which == Stream::Fused ? &S.Fused.DM : &S.Plain);
  std::unique_ptr<Predictor> Paper = makePredictor("paper");
  Interp.attachPredictor(Paper.get());
  Interp.setInput(Input);
  if (Limit)
    Interp.setInstructionLimit(*Limit);
  unsigned Offers = 0, Swaps = 0;
  AdaptiveHooks Hooks;
  Hooks.SampleInterval = Hooks.SampleCountdown = 1;
  Hooks.TrySwap = [&](const DecodedModule &Cur, uint32_t Func, size_t Index,
                      size_t &NewIndex) -> const DecodedModule * {
    if (++Offers % 2 || Swaps == MaxSwaps)
      return nullptr;
    if (&Cur == &S.Plain) {
      if (!translateSwapPoint(nullptr, S.Fused, Func, Index, NewIndex))
        return nullptr;
      ++Swaps;
      return &S.Fused.DM;
    }
    auto It = S.Fused.PlainIndexOf[Func].find(static_cast<uint32_t>(Index));
    if (It == S.Fused.PlainIndexOf[Func].end())
      return nullptr;
    NewIndex = It->second;
    ++Swaps;
    if (SwapsFromFused)
      ++*SwapsFromFused;
    return &S.Plain;
  };
  if (Which == Stream::Swapping)
    Interp.setAdaptiveHooks(&Hooks);
  return Interp.run("main", Args);
}

/// Runs \p M on both streams and swapping between them, each held to the
/// tree walker, which must trap with \p Reason; then trips the limit at
/// each instruction up to the trapping one on both streams.
void expectTrapEverywhere(const Module &M, const std::vector<int64_t> &Args,
                          const std::string &Reason,
                          unsigned *SwapsFromFused) {
  SCOPED_TRACE(Reason);
  Streams S(M);
  RunResult Tree = runPaper(M, S, Stream::Tree, Args);
  EXPECT_TRUE(Tree.Trapped);
  EXPECT_EQ(Tree.TrapReason, Reason);
  EXPECT_GT(Tree.Prediction.Branches, 0u) << "the trap must come mid-run";
  for (Stream Which : {Stream::Fused, Stream::Plain, Stream::Swapping}) {
    SCOPED_TRACE(static_cast<int>(Which));
    expectSameObservables(
        Tree, runPaper(M, S, Which, Args, "", std::nullopt, SwapsFromFused));
  }
  for (uint64_t Limit = 0; Limit < Tree.Counts.TotalInsts; ++Limit) {
    SCOPED_TRACE(Limit);
    RunResult Tripped = runPaper(M, S, Stream::Tree, Args, "", Limit);
    for (Stream Which : {Stream::Fused, Stream::Plain})
      expectSameObservables(Tripped, runPaper(M, S, Which, Args, "", Limit));
  }
}

/// The fused stream of \p M's main holds \p Op, and no plain op that could
/// take \p Op's trap instead.
void expectFusedInto(const Module &M, DecodedOp Op,
                     std::initializer_list<DecodedOp> Absent) {
  DecodedModule DM = decodeFused(M);
  const DecodedFunction &Main = *DM.getFunction("main");
  EXPECT_GE(countOps(Main, Op), 1u) << static_cast<int>(Op);
  for (DecodedOp Plain : Absent)
    EXPECT_EQ(countOps(Main, Plain), 0u) << static_cast<int>(Plain);
}

/// main(a, d) computes a OP d for d = d0, d0 - 2, ..., branching on each
/// quotient.  Shape BinCmpBr puts the division in front of the compare;
/// Bin2 pairs it with an add, in the pair's first or second position.
enum class DivShape { BinCmpBr, Bin2First, Bin2Second };
void buildDivLoop(Module &M, BinaryOp Op, DivShape Shape) {
  Function *F = M.createFunction("main", 2);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Out = F->createBlock("out");
  unsigned Q = F->newReg(), T = F->newReg(), Sum = F->newReg();
  IRBuilder B(Entry);
  B.emitMove(Sum, Operand::imm(0));
  B.emitJump(Loop);
  B.setInsertionPoint(Loop);
  if (Shape == DivShape::BinCmpBr) {
    B.emitBinary(Op, Q, Operand::reg(0), Operand::reg(1));
    B.emitCmp(Operand::reg(Q), Operand::imm(1000000));
    B.emitCondBr(CondCode::GT, Out, Body);
    B.setInsertionPoint(Body);
  } else {
    B.emitCmp(Operand::reg(1), Operand::imm(-100));
    B.emitCondBr(CondCode::LT, Out, Body);
    B.setInsertionPoint(Body);
    if (Shape == DivShape::Bin2First) {
      B.emitBinary(Op, Q, Operand::reg(0), Operand::reg(1));
      B.emitBinary(BinaryOp::Add, T, Operand::reg(Q), Operand::imm(1));
    } else {
      B.emitBinary(BinaryOp::Add, T, Operand::reg(1), Operand::imm(0));
      B.emitBinary(Op, Q, Operand::reg(0), Operand::reg(T));
    }
    B.emitBinary(BinaryOp::Add, Sum, Operand::reg(Sum), Operand::reg(Q));
  }
  B.emitBinary(BinaryOp::Sub, 1, Operand::reg(1), Operand::imm(2));
  B.emitJump(Loop);
  B.setInsertionPoint(Out);
  B.emitRet(Operand::reg(Sum));
}

TEST(FusedColdExitTest, ArithmeticTrapsInsideBinCmpBrAndBin2) {
  unsigned SwapsFromFused = 0;
  for (BinaryOp Op : {BinaryOp::Div, BinaryOp::Rem}) {
    const std::string Name = Op == BinaryOp::Div ? "division" : "remainder";
    for (DivShape Shape :
         {DivShape::BinCmpBr, DivShape::Bin2First, DivShape::Bin2Second}) {
      SCOPED_TRACE(static_cast<int>(Shape));
      Module M;
      buildDivLoop(M, Op, Shape);
      expectFusedInto(M,
                      Shape == DivShape::BinCmpBr ? DecodedOp::BinCmpBr
                                                  : DecodedOp::Bin2,
                      {});
      DecodedModule DM = decodeFused(M);
      for (const DecodedInst &Inst : DM.getFunction("main")->Insts)
        EXPECT_FALSE(Inst.Op == DecodedOp::Binary &&
                     static_cast<BinaryOp>(Inst.SubOp) == Op)
            << "the division must not run as a plain Binary";
      // d runs 4, 2, 0 and 3, 1, -1: the third quotient traps.
      expectTrapEverywhere(M, {7, 4}, Name + " by zero", &SwapsFromFused);
      expectTrapEverywhere(M, {INT64_MIN, 3}, Name + " overflow",
                           &SwapsFromFused);
    }
  }
  EXPECT_GT(SwapsFromFused, 0u);
}

/// Global g[4] = {1, 2, 3, 4}, for the address traps.
void addTable(Module &M) { M.createGlobal("g", 4, {1, 2, 3, 4}); }

TEST(FusedColdExitTest, LoadCmpBrLoadsOutOfRange) {
  // main(p, s) loads g[p] for p = p0, p0 + s, ... until it reads 99.
  Module M;
  addTable(M);
  Function *F = M.createFunction("main", 2);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Step = F->createBlock("step");
  BasicBlock *Out = F->createBlock("out");
  unsigned V = F->newReg();
  IRBuilder B(Entry);
  B.emitMove(V, Operand::imm(0));
  B.emitJump(Loop);
  B.setInsertionPoint(Loop);
  B.emitLoad(V, Operand::reg(0));
  B.emitCmp(Operand::reg(V), Operand::imm(99));
  B.emitCondBr(CondCode::EQ, Out, Step);
  B.setInsertionPoint(Step);
  B.emitBinary(BinaryOp::Add, 0, Operand::reg(0), Operand::reg(1));
  B.emitJump(Loop);
  B.setInsertionPoint(Out);
  B.emitRet(Operand::reg(V));
  expectFusedInto(M, DecodedOp::LoadCmpBr, {DecodedOp::Load});
  unsigned SwapsFromFused = 0;
  expectTrapEverywhere(M, {0, 1}, "load from invalid address 4",
                       &SwapsFromFused);
  expectTrapEverywhere(M, {3, -1}, "load from invalid address -1",
                       &SwapsFromFused);
  EXPECT_GT(SwapsFromFused, 0u);
}

TEST(FusedColdExitTest, LoadJumpLoadsOutOfRange) {
  // main(p, s) loads g[p] at the end of a loop body, for p = p0 + s, ...
  Module M;
  addTable(M);
  Function *F = M.createFunction("main", 2);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Out = F->createBlock("out");
  unsigned I = F->newReg(), V = F->newReg();
  IRBuilder B(Entry);
  B.emitMove(I, Operand::imm(0));
  B.emitJump(Loop);
  B.setInsertionPoint(Loop);
  B.emitCmp(Operand::reg(I), Operand::imm(10));
  B.emitCondBr(CondCode::GE, Out, Body);
  B.setInsertionPoint(Body);
  B.emitBinary(BinaryOp::Add, I, Operand::reg(I), Operand::imm(1));
  B.emitBinary(BinaryOp::Add, 0, Operand::reg(0), Operand::reg(1));
  B.emitLoad(V, Operand::reg(0));
  B.emitJump(Loop);
  B.setInsertionPoint(Out);
  B.emitRet(Operand::reg(I));
  expectFusedInto(M, DecodedOp::LoadJump, {DecodedOp::Load});
  unsigned SwapsFromFused = 0;
  expectTrapEverywhere(M, {0, 1}, "load from invalid address 4",
                       &SwapsFromFused);
  expectTrapEverywhere(M, {0, -1}, "load from invalid address -1",
                       &SwapsFromFused);
  EXPECT_GT(SwapsFromFused, 0u);
}

/// main(p, q) runs ten iterations of a straight-line body over g, with p
/// and q stepping by one; \p Body emits the body from (i, p, q).
template <typename BodyFn> void buildTableLoop(Module &M, BodyFn Body) {
  addTable(M);
  Function *F = M.createFunction("main", 2);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Work = F->createBlock("body");
  BasicBlock *Out = F->createBlock("out");
  unsigned I = F->newReg();
  IRBuilder B(Entry);
  B.emitMove(I, Operand::imm(0));
  B.emitJump(Loop);
  B.setInsertionPoint(Loop);
  B.emitCmp(Operand::reg(I), Operand::imm(10));
  B.emitCondBr(CondCode::GE, Out, Work);
  B.setInsertionPoint(Work);
  Body(*F, B, I, 0u, 1u);
  B.emitBinary(BinaryOp::Add, I, Operand::reg(I), Operand::imm(1));
  B.emitBinary(BinaryOp::Add, 0, Operand::reg(0), Operand::imm(1));
  B.emitBinary(BinaryOp::Add, 1, Operand::reg(1), Operand::imm(1));
  B.emitJump(Loop);
  B.setInsertionPoint(Out);
  B.emitRet(Operand::reg(I));
}

TEST(FusedColdExitTest, LoadBinStoreAndStoreLoadBinAddressTraps) {
  unsigned SwapsFromFused = 0;
  {
    // g[q] = g[p] + 1: with q two ahead the store leaves first, with p
    // two ahead the load.
    Module M;
    buildTableLoop(M, [](Function &F, IRBuilder &B, unsigned, unsigned P,
                         unsigned Q) {
      unsigned V = F.newReg(), W = F.newReg();
      B.emitLoad(V, Operand::reg(P));
      B.emitBinary(BinaryOp::Add, W, Operand::reg(V), Operand::imm(1));
      B.emitStore(Operand::reg(W), Operand::reg(Q));
    });
    expectFusedInto(M, DecodedOp::LoadBinStore,
                    {DecodedOp::Load, DecodedOp::Store});
    expectTrapEverywhere(M, {0, 2}, "store to invalid address 4",
                         &SwapsFromFused);
    expectTrapEverywhere(M, {2, 0}, "load from invalid address 4",
                         &SwapsFromFused);
    expectTrapEverywhere(M, {0, -1}, "store to invalid address -1",
                         &SwapsFromFused);
  }
  {
    // g[q] = i; then g[p] + i.
    Module M;
    buildTableLoop(M, [](Function &F, IRBuilder &B, unsigned I, unsigned P,
                         unsigned Q) {
      unsigned V = F.newReg(), W = F.newReg();
      B.emitStore(Operand::reg(I), Operand::reg(Q));
      B.emitLoad(V, Operand::reg(P));
      B.emitBinary(BinaryOp::Add, W, Operand::reg(V), Operand::reg(I));
    });
    expectFusedInto(M, DecodedOp::StoreLoadBin,
                    {DecodedOp::Load, DecodedOp::Store});
    expectTrapEverywhere(M, {0, 2}, "store to invalid address 4",
                         &SwapsFromFused);
    expectTrapEverywhere(M, {2, 0}, "load from invalid address 4",
                         &SwapsFromFused);
    expectTrapEverywhere(M, {-1, 0}, "load from invalid address -1",
                         &SwapsFromFused);
  }
  EXPECT_GT(SwapsFromFused, 0u);
}

TEST(FusedColdExitTest, PutCharLoadBinTrapsAfterItsOutput) {
  // putchar('a' + i), then g[p] + 1: the trapping iteration's byte is
  // already out.
  Module M;
  buildTableLoop(M, [](Function &F, IRBuilder &B, unsigned I, unsigned P,
                       unsigned) {
    unsigned C = F.newReg(), V = F.newReg(), W = F.newReg();
    B.emitBinary(BinaryOp::Add, C, Operand::reg(I), Operand::imm('a'));
    B.emitPutChar(Operand::reg(C));
    B.emitLoad(V, Operand::reg(P));
    B.emitBinary(BinaryOp::Add, W, Operand::reg(V), Operand::imm(1));
  });
  expectFusedInto(M, DecodedOp::PutCharLoadBin,
                  {DecodedOp::PutChar, DecodedOp::Load});
  unsigned SwapsFromFused = 0;
  expectTrapEverywhere(M, {1, 0}, "load from invalid address 4",
                       &SwapsFromFused);
  expectTrapEverywhere(M, {-2, 0}, "load from invalid address -2",
                       &SwapsFromFused);
  EXPECT_GT(SwapsFromFused, 0u);
  Streams S(M);
  EXPECT_EQ(runPaper(M, S, Stream::Fused, {1, 0}).Output, "abcd");
}

TEST(FusedColdExitTest, IndirectJumpIndexOutOfRange) {
  // main(s) dispatches on k through a three-entry table; the last entry
  // adds s, so k leaves the table after three rounds.
  Module M;
  Function *F = M.createFunction("main", 1);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Head = F->createBlock("head");
  BasicBlock *Disp = F->createBlock("disp");
  BasicBlock *Arms[3] = {F->createBlock("b0"), F->createBlock("b1"),
                         F->createBlock("b2")};
  BasicBlock *Out = F->createBlock("out");
  unsigned K = F->newReg();
  IRBuilder B(Entry);
  B.emitMove(K, Operand::imm(0));
  B.emitJump(Head);
  B.setInsertionPoint(Head);
  B.emitCmp(Operand::reg(K), Operand::imm(100));
  B.emitCondBr(CondCode::GT, Out, Disp);
  B.setInsertionPoint(Disp);
  B.emitIndirectJump(Operand::reg(K), {Arms[0], Arms[1], Arms[2]});
  for (int Arm = 0; Arm < 3; ++Arm) {
    B.setInsertionPoint(Arms[Arm]);
    B.emitBinary(BinaryOp::Add, K, Operand::reg(K),
                 Arm < 2 ? Operand::imm(1) : Operand::reg(0));
    B.emitJump(Head);
  }
  B.setInsertionPoint(Out);
  B.emitRet(Operand::reg(K));
  unsigned SwapsFromFused = 0;
  expectTrapEverywhere(M, {1}, "indirect jump index 3 out of range",
                       &SwapsFromFused);
  expectTrapEverywhere(M, {-5}, "indirect jump index -3 out of range",
                       &SwapsFromFused);
  EXPECT_GT(SwapsFromFused, 0u);
}

TEST(FusedColdExitTest, HotSwapsBetweenStreamsKeepEveryCount) {
  // The swap exit itself, on runs that end normally: the read-modify-write
  // loop, the ladder, wc, and a recursive walk whose activations also
  // swap at entry and around calls, each swapping at every sampled branch.
  unsigned SwapsFromFused = 0;
  auto Check = [&](const Module &M, const std::vector<int64_t> &Args,
                   std::string_view Input) {
    Streams S(M);
    RunResult Tree = runPaper(M, S, Stream::Tree, Args, Input);
    EXPECT_FALSE(Tree.Trapped) << Tree.TrapReason;
    expectSameObservables(Tree, runPaper(M, S, Stream::Swapping, Args, Input,
                                         std::nullopt, &SwapsFromFused));
  };
  Module Rmw, Ladder;
  buildRmwLoop(Rmw);
  buildLadder(Ladder);
  Check(Rmw, {}, "");
  for (int64_t Arg : {0, 1, 2, 3})
    Check(Ladder, {Arg}, "");
  const Workload *Wc = findWorkload("wc");
  ASSERT_NE(Wc, nullptr);
  CompileResult R = compileWithReordering(Wc->Source, Wc->TrainingInput, {});
  ASSERT_TRUE(R.ok()) << R.Error;
  Check(*R.M, {}, std::string_view(Wc->TestInput).substr(0, 300));
  const char *Walk = R"(
int walk(int depth) {
  int n = 0;
  int c;
  while ((c = getchar()) != -1) {
    if (c == '(') {
      n = n + walk(depth + 1);
    } else if (c == ')') {
      return n + depth;
    } else {
      n = n + 1;
    }
  }
  return n;
}
int main() {
  printint(walk(0));
  return 0;
}
)";
  R = compileWithReordering(Walk, "(a(b)c)(d)", {});
  ASSERT_TRUE(R.ok()) << R.Error;
  Check(*R.M, {}, "x(ab(c)(d(e)))f((g))h");
  EXPECT_GT(SwapsFromFused, 0u);
}
//===----------------------------------------------------------------------===//
// The limit sweep: on the 17 Set IV workloads, an instruction limit at
// every logical instruction of a short run, so the limit exit is taken at
// every logical position of every macro-op kind their fused streams run.
//===----------------------------------------------------------------------===//

/// True for the ops that end a straight-line run of slots: every control
/// transfer.  Call returns to the next slot.
bool endsBlock(DecodedOp Op) {
  switch (Op) {
  case DecodedOp::CondBr:
  case DecodedOp::Jump:
  case DecodedOp::FallThrough:
  case DecodedOp::Switch:
  case DecodedOp::IndirectJump:
  case DecodedOp::Ret:
  case DecodedOp::TrapFellOff:
  case DecodedOp::CmpBr:
  case DecodedOp::MultiCmp:
  case DecodedOp::MoveCmpBr:
  case DecodedOp::BinCmpBr:
  case DecodedOp::LoadCmpBr:
  case DecodedOp::ReadCharCmpBr:
  case DecodedOp::MoveJump:
  case DecodedOp::BinJump:
  case DecodedOp::LoadJump:
  case DecodedOp::StoreJump:
  case DecodedOp::BinStoreJump:
  case DecodedOp::LoadBinStoreJump:
  case DecodedOp::ProfileCmpBr:
  case DecodedOp::ReadCharProfileCmpBr:
    return true;
  default:
    return false;
  }
}

/// The op kinds the fused stream \p S.Fused executes on \p Input: every
/// slot of every block the run enters.  An edge-counting run of the
/// unfused stream names the blocks entered, by the targets of the edges
/// it took and the entries of the functions it called, and the swap map
/// finds each block in the fused stream.
std::set<DecodedOp> executedKinds(const Module &M, const Streams &S,
                                  std::string_view Input) {
  std::vector<EdgeSlot> Slots;
  DecodedModule::decode(M, &Slots);
  std::vector<uint64_t> Taken(Slots.size());
  Interpreter Interp(M, Interpreter::Mode::Adaptive);
  Interp.setPreparedProgram(&S.Plain);
  Interp.setEdgeCounters(Taken.data());
  Interp.setInput(Input);
  EXPECT_FALSE(Interp.run().Trapped);

  // Plain block starts entered, per function, closed over calls.
  std::vector<std::set<uint32_t>> Entered(S.Plain.size());
  Entered[S.Plain.getFunction("main")->FuncIndex].insert(0);
  for (uint32_t Func = 0; Func < S.Plain.size(); ++Func) {
    const DecodedFunction &DF = S.Plain.function(Func);
    for (const DecodedInst &Inst : DF.Insts) {
      auto Enter = [&](uint64_t Slot, uint32_t Target) {
        if (Taken[Slot])
          Entered[Func].insert(Target);
      };
      switch (Inst.Op) {
      case DecodedOp::CondBr:
        Enter(Inst.Imm, Inst.Target0);
        Enter(Inst.Imm + 1, Inst.Target1);
        break;
      case DecodedOp::Jump:
      case DecodedOp::FallThrough:
        Enter(Inst.Imm, Inst.Target0);
        break;
      case DecodedOp::Switch:
        for (uint32_t Case = 0; Case < Inst.ExtraCount; ++Case)
          Enter(Inst.Imm + Case, DF.Cases[Inst.Extra + Case].Target);
        Enter(Inst.Imm + Inst.ExtraCount, Inst.Target0);
        break;
      case DecodedOp::IndirectJump:
        for (uint32_t Entry = 0; Entry < Inst.ExtraCount; ++Entry)
          Enter(Inst.Imm + Entry, DF.JumpTables[Inst.Extra + Entry]);
        break;
      default:
        break;
      }
    }
  }
  for (bool Grew = true; Grew;) {
    Grew = false;
    for (uint32_t Func = 0; Func < S.Plain.size(); ++Func)
      for (uint32_t Start : Entered[Func])
        for (uint32_t Slot = Start;; ++Slot) {
          const DecodedInst &Inst = S.Plain.function(Func).Insts[Slot];
          if (Inst.Op == DecodedOp::Call)
            Grew |= Entered[Inst.Target0].insert(0).second;
          if (endsBlock(Inst.Op))
            break;
        }
  }

  std::set<DecodedOp> Kinds;
  for (uint32_t Func = 0; Func < S.Plain.size(); ++Func)
    for (uint32_t Start : Entered[Func]) {
      // A block swallowed by a chain runs inside its head's MultiCmp.
      auto It = S.Fused.Map.FusedIndexOf[Func].find(Start);
      if (It == S.Fused.Map.FusedIndexOf[Func].end())
        continue;
      for (uint32_t Slot = It->second;; ++Slot) {
        DecodedOp Op = S.Fused.DM.function(Func).Insts[Slot].Op;
        Kinds.insert(Op);
        if (endsBlock(Op))
          break;
      }
    }
  return Kinds;
}

TEST(FusedLimitTest, SweepTripsEveryPositionOfEveryMacroOpKind) {
  // Each workload runs on the first bytes of its test input, short enough
  // to trap at every one of the run's logical instructions in turn on the
  // tree walker, the fused stream and the unfused stream, all with
  // `paper` attached.  Every instruction of the run is the trapping one
  // for exactly one limit, so each position of each dispatch the fused
  // run executes takes the limit exit once.
  CompileOptions Options;
  Options.HeuristicSet = SwitchHeuristicSet::SetIV;
  Options.Predictor = "paper";
  std::set<DecodedOp> Covered;
  for (const Workload &W : standardWorkloads()) {
    SCOPED_TRACE(W.Name);
    CompileResult R =
        compileWithReordering(W.Source, W.TrainingInput, Options);
    ASSERT_TRUE(R.ok()) << R.Error;
    const std::string_view Input =
        std::string_view(W.TestInput).substr(0, SweepInputBytes);
    Streams S(*R.M);
    RunResult Full = runPaper(*R.M, S, Stream::Tree, {}, Input);
    ASSERT_FALSE(Full.Trapped) << Full.TrapReason;
    for (DecodedOp Op : executedKinds(*R.M, S, Input))
      Covered.insert(Op);
    for (uint64_t Limit = 0; Limit < Full.Counts.TotalInsts; ++Limit) {
      SCOPED_TRACE(Limit);
      RunResult Tree = runPaper(*R.M, S, Stream::Tree, {}, Input, Limit);
      ASSERT_TRUE(Tree.Trapped);
      expectSameObservables(Tree,
                            runPaper(*R.M, S, Stream::Fused, {}, Input, Limit));
      expectSameObservables(Tree,
                            runPaper(*R.M, S, Stream::Plain, {}, Input, Limit));
      if (HasFailure())
        return;
    }
  }
  // Every macro-op kind but LoadJump, which these runs never reach
  // (FusedColdExitTest sweeps it), and the plain ops fusion leaves in
  // place.
  const std::set<DecodedOp> Expected = {
      DecodedOp::Move,          DecodedOp::Binary,
      DecodedOp::Load,          DecodedOp::Store,
      DecodedOp::Call,          DecodedOp::ReadChar,
      DecodedOp::PutChar,       DecodedOp::PrintInt,
      DecodedOp::CondBr,        DecodedOp::FallThrough,
      DecodedOp::IndirectJump,  DecodedOp::Ret,
      DecodedOp::CmpBr,         DecodedOp::MultiCmp,
      DecodedOp::MoveCmpBr,     DecodedOp::BinCmpBr,
      DecodedOp::LoadCmpBr,     DecodedOp::ReadCharCmpBr,
      DecodedOp::MoveJump,      DecodedOp::BinJump,
      DecodedOp::StoreJump,     DecodedOp::LoadBin,
      DecodedOp::Bin2,          DecodedOp::BinStore,
      DecodedOp::BinStoreJump,  DecodedOp::Move2,
      DecodedOp::LoadBinStore,  DecodedOp::LoadBinStoreJump,
      DecodedOp::StoreLoadBin,  DecodedOp::PutCharLoadBin};
  EXPECT_EQ(Covered, Expected);
}

} // namespace
