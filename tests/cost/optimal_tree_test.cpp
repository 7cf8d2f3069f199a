//===- tests/opt/optimal_tree_test.cpp - Set IV lowering + ext-TSP layout -===//
//
// Proof obligations for the Set IV lowering (docs/LOWERING.md):
//
//  1. Optimality: buildOptimalTree's O(n^3) interval DP finds the true
//     minimum.  Checked exhaustively against bruteForceOptimalTreeCost
//     (every Catalan shape x every orientation) over all partition sizes
//     up to 6 arms, randomized weights, under both machine models'
//     taken-branch asymmetry.
//  2. Differential never-worse: every one of the 17 workload analogues,
//     compiled in every cell of the lowering matrix (Sets I-IV crossed
//     with the hot-first and ext-TSP layouts), stays observably identical
//     to the baseline, its selected shapes never model-cost more than the
//     Figure-8 chains they replaced, and its layout never loses
//     fall-through weight.  Summed over the suite, Set IV + ext-TSP costs
//     fewer model cycles than Set II + hot-first under both machine
//     models.
//  3. Layout: the ext-TSP chain merge produces the known-optimal order on
//     hand-built CFG shapes (diamond, loop-with-exit, cold-error-path)
//     and the keep-best rule makes measured layout fall-through weight
//     >= the hot-first incumbent on every profiled module.
//  4. The edge-weight profile plane round-trips through both ProfileDB
//     formats and drops records that describe a different build.
//  5. The edge collector (collectEdgeWeights) counts exactly the block
//     transfers the tree walker executes: every transfer kind on
//     hand-built IR, callees under their own names, several inputs, and
//     runs that trap; and, on the 17 workloads, the `edges` records of
//     compileWithReordering's profile reproduce a golden taken from the
//     tree walker byte for byte.
//
//===----------------------------------------------------------------------===//

#include "cost/OptimalTree.h"

#include "driver/Driver.h"
#include "driver/Report.h"
#include "exec/ExecBackend.h"
#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "opt/Passes.h"
#include "profile/EdgeProfile.h"
#include "profile/ProfileDB.h"
#include "support/Strings.h"
#include "workloads/Workloads.h"

#include "../GoldenFile.h"

#include <gtest/gtest.h>

#include <random>

using namespace bropt;

namespace {

//===----------------------------------------------------------------------===//
// 1. Exhaustive optimality of the interval DP
//===----------------------------------------------------------------------===//

/// Recomputes the cost of the tree the DP chose by walking its recorded
/// splits and orientations — proves Split/TakenLeft describe a tree whose
/// cost really is Tree.Cost, so emission (which walks the same tables)
/// emits the shape the DP priced.
double reconstructedCost(const OptimalTree &Tree,
                         const std::vector<double> &Weights,
                         const TreeCostParams &Params, size_t Lo, size_t Hi) {
  if (Lo == Hi)
    return 0.0;
  size_t K = Tree.splitOf(Lo, Hi);
  EXPECT_GE(K, Lo);
  EXPECT_LT(K, Hi);
  double WL = 0.0, WR = 0.0;
  for (size_t I = Lo; I <= K; ++I)
    WL += Weights[I];
  for (size_t I = K + 1; I <= Hi; ++I)
    WR += Weights[I];
  double Node = Params.CompareCost * (WL + WR) +
                Params.TakenExtra * (Tree.takenLeftOf(Lo, Hi) ? WL : WR);
  return Node + reconstructedCost(Tree, Weights, Params, Lo, K) +
         reconstructedCost(Tree, Weights, Params, K + 1, Hi);
}

TEST(OptimalTreeTest, ExhaustiveMatchesBruteForceUnderBothMachineModels) {
  // TakenExtra 0 (symmetric), 1 (the IPC model), 2 (the superscalar
  // model) — the asymmetry is what makes orientation matter.
  const double TakenExtras[] = {0.0, 1.0, 2.0};
  std::mt19937_64 Rng(0x5e741u);
  std::uniform_real_distribution<double> Dist(0.0, 1.0);

  for (size_t N = 1; N <= 6; ++N) {
    for (double TakenExtra : TakenExtras) {
      TreeCostParams Params;
      Params.CompareCost = 2.0;
      Params.TakenExtra = TakenExtra;
      for (unsigned Trial = 0; Trial < 24; ++Trial) {
        std::vector<double> Weights(N);
        for (double &W : Weights)
          W = Dist(Rng);
        // Sprinkle exact zeros: arms the training input never hit.
        if (Trial % 3 == 0)
          Weights[Trial % N] = 0.0;
        OptimalTree Tree = buildOptimalTree(Weights, Params);
        double Best = bruteForceOptimalTreeCost(Weights, Params);
        ASSERT_NEAR(Tree.Cost, Best, 1e-9)
            << "n=" << N << " takenExtra=" << TakenExtra
            << " trial=" << Trial;
        ASSERT_NEAR(reconstructedCost(Tree, Weights, Params, 0, N - 1),
                    Tree.Cost, 1e-9)
            << "recorded splits disagree with the claimed cost";
      }
    }
  }
}

TEST(OptimalTreeTest, SingleLeafIsFree) {
  TreeCostParams Params;
  OptimalTree Tree = buildOptimalTree({0.7}, Params);
  EXPECT_EQ(Tree.NumLeaves, 1u);
  EXPECT_DOUBLE_EQ(Tree.Cost, 0.0);
}

TEST(OptimalTreeTest, UniformWeightsBuildBalancedTree) {
  // Four equal leaves, symmetric branches: the balanced tree costs
  // 2*1 (root) + 2*0.5 + 2*0.5 = 4; every skewed shape costs 4.5.
  TreeCostParams Params;
  Params.CompareCost = 2.0;
  Params.TakenExtra = 0.0;
  OptimalTree Tree = buildOptimalTree({0.25, 0.25, 0.25, 0.25}, Params);
  EXPECT_NEAR(Tree.Cost, 4.0, 1e-9);
  EXPECT_EQ(Tree.splitOf(0, 3), 1u) << "root must split 2|2";
}

TEST(OptimalTreeTest, OrientationSendsHeavySideDownFallThrough) {
  // Two leaves, heavy left: the taken edge (which costs extra) must go to
  // the light right leaf, so cost = 2*1 + TakenExtra*0.1.
  TreeCostParams Params;
  Params.CompareCost = 2.0;
  Params.TakenExtra = 2.0;
  OptimalTree Tree = buildOptimalTree({0.9, 0.1}, Params);
  EXPECT_FALSE(Tree.takenLeftOf(0, 1));
  EXPECT_NEAR(Tree.Cost, 2.0 + 2.0 * 0.1, 1e-9);

  // Mirrored weights flip the orientation.
  OptimalTree Mirror = buildOptimalTree({0.1, 0.9}, Params);
  EXPECT_TRUE(Mirror.takenLeftOf(0, 1));
  EXPECT_NEAR(Mirror.Cost, Tree.Cost, 1e-12);
}

//===----------------------------------------------------------------------===//
// 2. Differential never-worse across the 17 workload analogues
//===----------------------------------------------------------------------===//

TEST(SetIVDifferentialTest, NeverWorseAndObservablyIdenticalOnAllWorkloads) {
  const SwitchHeuristicSet Sets[] = {
      SwitchHeuristicSet::SetI, SwitchHeuristicSet::SetII,
      SwitchHeuristicSet::SetIII, SwitchHeuristicSet::SetIV};
  unsigned TotalTrees = 0;
  unsigned TotalFunctionsLaidOut = 0;
  // Suite-wide model cycles of the paper's best heuristic configuration
  // and of the full Set IV lowering.
  uint64_t SetIICyclesIPC = 0, SetIICyclesUltra = 0;
  uint64_t SetIVCyclesIPC = 0, SetIVCyclesUltra = 0;
  for (const Workload &W : standardWorkloads()) {
    CompileResult Base = compileBaseline(W.Source, CompileOptions());
    ASSERT_TRUE(Base.ok()) << W.Name << ": " << Base.Error;
    std::string Error;
    BuildMeasurement Ref =
        measureBuild(*Base.M, W.TestInput, std::nullopt, Error);
    ASSERT_TRUE(Error.empty()) << W.Name << ": " << Error;

    for (SwitchHeuristicSet Set : Sets)
      for (bool ExtTsp : {false, true}) {
        const std::string Cell = W.Name + "/set" +
                                 switchHeuristicSetName(Set) +
                                 (ExtTsp ? "/ext-tsp" : "/hot-first");
        CompileOptions Options;
        Options.HeuristicSet = Set;
        Options.Reorder.ProfileGuidedLayout = ExtTsp;
        CompileResult Opt =
            compileWithReordering(W.Source, W.TrainingInput, Options);
        ASSERT_TRUE(Opt.ok()) << Cell << ": " << Opt.Error;

        // The by-construction guarantee: whatever shape was selected for
        // a sequence (chain, tree, or jump table), its modeled cost never
        // exceeds the Figure-8 chain's.
        EXPECT_LE(Opt.Stats.ChosenModelCost,
                  Opt.Stats.ChainModelCost + 1e-9)
            << Cell;

        // The keep-best layout rule: measured fall-through weight never
        // drops below the hot-first incumbent's.
        EXPECT_GE(Opt.Stats.Layout.FallThroughWeightAfter,
                  Opt.Stats.Layout.FallThroughWeightBefore)
            << Cell;

        // Observable identity on the held-out test input.
        BuildMeasurement Got =
            measureBuild(*Opt.M, W.TestInput, std::nullopt, Error);
        ASSERT_TRUE(Error.empty()) << Cell << ": " << Error;
        EXPECT_EQ(Ref.ExitValue, Got.ExitValue) << Cell;
        EXPECT_EQ(Ref.Output, Got.Output) << Cell;

        if (Set == SwitchHeuristicSet::SetII && !ExtTsp) {
          SetIICyclesIPC += Got.CyclesIPC;
          SetIICyclesUltra += Got.CyclesUltra;
        }
        if (Set == SwitchHeuristicSet::SetIV && ExtTsp) {
          SetIVCyclesIPC += Got.CyclesIPC;
          SetIVCyclesUltra += Got.CyclesUltra;
          TotalTrees += Opt.Stats.OptimalTrees;
          TotalFunctionsLaidOut += Opt.Stats.Layout.FunctionsLaidOut;
        }
      }
  }
  // Set IV must not be dead code on the paper's own benchmark idioms: at
  // least one workload's partition is contiguous and skewed enough for
  // the tree to beat the chain, and at least one module gets measured
  // edge weights and a layout pass.
  EXPECT_GT(TotalTrees, 0u)
      << "no workload ever selected an optimal comparison tree";
  EXPECT_GT(TotalFunctionsLaidOut, 0u)
      << "no workload module ever reached the ext-TSP layout";
  // And it must pay: the optimal trees plus ext-TSP layout never cost
  // more model cycles than the paper's Set II with hot-first layout.
  // Cycles, not instructions: a tree can execute more instructions than
  // a chain yet fewer taken branches, which both machine models charge.
  EXPECT_LE(SetIVCyclesIPC, SetIICyclesIPC);
  EXPECT_LE(SetIVCyclesUltra, SetIICyclesUltra);
}

//===----------------------------------------------------------------------===//
// 3. ext-TSP layout on hand-built CFG shapes
//===----------------------------------------------------------------------===//

/// Returns the current layout as block names, for readable assertions.
std::vector<std::string> layoutNames(const Function &F) {
  std::vector<std::string> Names;
  for (const auto &Block : F)
    Names.push_back(Block->getName());
  return Names;
}

void expectVerifies(Module &M) {
  std::string Errors;
  EXPECT_TRUE(verifyModule(M, &Errors)) << Errors << printModule(M);
}

/// entry --(hot)--> right --> join, entry --(cold)--> left --> join.
/// Built in source order entry,left,right,join; the optimal chain is
/// entry,right,join with the cold left arm moved last.
struct DiamondCFG {
  Module M;
  Function *F = nullptr;
  BasicBlock *Entry = nullptr, *Left = nullptr, *Right = nullptr,
             *Join = nullptr;
  EdgeWeightMap Weights;

  explicit DiamondCFG(bool HotFirstOrder = false) {
    F = M.createFunction("main", 0);
    Entry = F->createBlock("entry");
    if (HotFirstOrder) {
      Right = F->createBlock("right");
      Join = F->createBlock("join");
      Left = F->createBlock("left");
    } else {
      Left = F->createBlock("left");
      Right = F->createBlock("right");
      Join = F->createBlock("join");
    }
    unsigned R = F->newReg();
    IRBuilder B(Entry);
    B.emitMove(R, Operand::imm(1));
    B.emitCmp(Operand::reg(R), Operand::imm(0));
    B.emitCondBr(CondCode::EQ, Left, Right);
    B.setInsertionPoint(Left);
    B.emitJump(Join);
    B.setInsertionPoint(Right);
    B.emitJump(Join);
    B.setInsertionPoint(Join);
    B.emitRet(Operand::imm(0));

    Weights.add(Entry->getId(), Right->getId(), 90);
    Weights.add(Entry->getId(), Left->getId(), 10);
    Weights.add(Right->getId(), Join->getId(), 90);
    Weights.add(Left->getId(), Join->getId(), 10);
  }
};

TEST(ExtTspLayoutTest, DiamondMovesColdArmLast) {
  DiamondCFG D;
  EXPECT_EQ(layoutFallThroughWeight(*D.F, D.Weights), 100u)
      << "source order satisfies entry->left (10) and right->join (90)";

  LayoutStats Stats;
  EXPECT_TRUE(repositionCodeExtTsp(*D.F, D.Weights, &Stats));
  EXPECT_EQ(layoutNames(*D.F),
            (std::vector<std::string>{"entry", "right", "join", "left"}));
  EXPECT_EQ(layoutFallThroughWeight(*D.F, D.Weights), 180u);
  EXPECT_EQ(Stats.FunctionsLaidOut, 1u);
  EXPECT_EQ(Stats.ChainsMerged, 2u);
  EXPECT_EQ(Stats.BlocksMoved, 3u);
  EXPECT_EQ(Stats.KeptIncumbent, 0u);
  EXPECT_EQ(Stats.FallThroughWeightBefore, 100u);
  EXPECT_EQ(Stats.FallThroughWeightAfter, 180u);
  expectVerifies(D.M);
}

TEST(ExtTspLayoutTest, KeepsIncumbentWhenAlreadyOptimal) {
  DiamondCFG D(/*HotFirstOrder=*/true);
  EXPECT_EQ(layoutFallThroughWeight(*D.F, D.Weights), 180u);

  LayoutStats Stats;
  EXPECT_FALSE(repositionCodeExtTsp(*D.F, D.Weights, &Stats))
      << "measured order ties the incumbent, so nothing may move";
  EXPECT_EQ(layoutNames(*D.F),
            (std::vector<std::string>{"entry", "right", "join", "left"}));
  EXPECT_EQ(Stats.FunctionsLaidOut, 1u);
  EXPECT_EQ(Stats.KeptIncumbent, 1u);
  EXPECT_EQ(Stats.BlocksMoved, 0u);
  EXPECT_EQ(Stats.FallThroughWeightBefore, Stats.FallThroughWeightAfter);
}

TEST(ExtTspLayoutTest, LoopBodyJoinsHeaderChain) {
  // entry -> header; header -> body (hot) | exit (cold); body -> header.
  // Deliberately scrambled source order so the merge has work to do.
  Module M;
  Function *F = M.createFunction("main", 0);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Exit = F->createBlock("exit");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Header = F->createBlock("header");
  unsigned R = F->newReg();
  IRBuilder B(Entry);
  B.emitJump(Header);
  B.setInsertionPoint(Header);
  B.emitMove(R, Operand::imm(1));
  B.emitCmp(Operand::reg(R), Operand::imm(0));
  B.emitCondBr(CondCode::EQ, Exit, Body);
  B.setInsertionPoint(Body);
  B.emitJump(Header);
  B.setInsertionPoint(Exit);
  B.emitRet(Operand::imm(0));

  EdgeWeightMap W;
  W.add(Entry->getId(), Header->getId(), 1);
  W.add(Header->getId(), Body->getId(), 95);
  W.add(Body->getId(), Header->getId(), 95);
  W.add(Header->getId(), Exit->getId(), 1);

  EXPECT_EQ(layoutFallThroughWeight(*F, W), 95u)
      << "scrambled order only satisfies body->header";

  LayoutStats Stats;
  EXPECT_TRUE(repositionCodeExtTsp(*F, W, &Stats));
  // The back edge body->header merges first (tie with header->body, lower
  // from-id wins), then header->exit extends the chain; the entry chain
  // leads.  96 = body->header (95) + header->exit (1).
  EXPECT_EQ(layoutNames(*F),
            (std::vector<std::string>{"entry", "body", "header", "exit"}));
  EXPECT_EQ(layoutFallThroughWeight(*F, W), 96u);
  EXPECT_EQ(Stats.ChainsMerged, 2u);
  expectVerifies(M);
}

TEST(ExtTspLayoutTest, ColdErrorPathSinksToBottom) {
  // entry -> ok (hot) | err (cold); both rejoin at ret.  Source order puts
  // the error arm first, as error-checking code usually does.
  Module M;
  Function *F = M.createFunction("main", 0);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Err = F->createBlock("err");
  BasicBlock *Ok = F->createBlock("ok");
  BasicBlock *RetB = F->createBlock("ret");
  unsigned R = F->newReg();
  IRBuilder B(Entry);
  B.emitMove(R, Operand::imm(1));
  B.emitCmp(Operand::reg(R), Operand::imm(0));
  B.emitCondBr(CondCode::LT, Err, Ok);
  B.setInsertionPoint(Err);
  B.emitJump(RetB);
  B.setInsertionPoint(Ok);
  B.emitJump(RetB);
  B.setInsertionPoint(RetB);
  B.emitRet(Operand::imm(0));

  EdgeWeightMap W;
  W.add(Entry->getId(), Ok->getId(), 100);
  W.add(Entry->getId(), Err->getId(), 1);
  W.add(Ok->getId(), RetB->getId(), 100);
  W.add(Err->getId(), RetB->getId(), 1);

  LayoutStats Stats;
  EXPECT_TRUE(repositionCodeExtTsp(*F, W, &Stats));
  EXPECT_EQ(layoutNames(*F),
            (std::vector<std::string>{"entry", "ok", "ret", "err"}));
  EXPECT_EQ(layoutFallThroughWeight(*F, W), 200u);
  expectVerifies(M);

  // The whole-module wrapper reaches the same result through the
  // function-name keyed map.
  DiamondCFG Fresh;
  ModuleEdgeWeights ModW;
  ModW["main"] = Fresh.Weights;
  LayoutStats ModStats;
  EXPECT_TRUE(applyProfileGuidedLayout(Fresh.M, ModW, &ModStats));
  EXPECT_EQ(ModStats.FunctionsLaidOut, 1u);
}

//===----------------------------------------------------------------------===//
// 4. Edge-weight profile plane persistence
//===----------------------------------------------------------------------===//

TEST(EdgeProfileTest, RoundTripsThroughBothFormats) {
  DiamondCFG D;
  ModuleEdgeWeights Out;
  Out["main"] = D.Weights;

  ProfileDB DB;
  exportEdgeWeights(Out, DB);
  std::string Text = DB.serializeText();
  EXPECT_NE(Text.find("edges"), std::string::npos)
      << "edge records must be visible in the text format:\n"
      << Text;

  for (bool Binary : {false, true}) {
    ProfileDB Reloaded;
    std::string Error;
    ASSERT_TRUE(Reloaded.deserialize(
        Binary ? DB.serializeBinary() : Text, &Error))
        << Error;
    unsigned Stale = 7;
    ModuleEdgeWeights In = importEdgeWeights(Reloaded, D.M, &Stale);
    EXPECT_EQ(Stale, 0u);
    ASSERT_EQ(In.size(), 1u);
    EXPECT_EQ(In["main"].Counts, D.Weights.Counts)
        << (Binary ? "binary" : "text");
  }
}

TEST(EdgeProfileTest, ExportIsASnapshotNotAMerge) {
  DiamondCFG D;
  ProfileDB DB;
  ModuleEdgeWeights First;
  First["main"] = D.Weights;
  exportEdgeWeights(First, DB);

  // Re-export halved counts into the same DB: import must see exactly the
  // latest snapshot, not the sum of both runs.
  ModuleEdgeWeights Second;
  for (const auto &[Key, Count] : D.Weights.Counts)
    Second["main"].Counts[Key] = Count / 2;
  exportEdgeWeights(Second, DB);

  ModuleEdgeWeights In = importEdgeWeights(DB, D.M);
  ASSERT_EQ(In.size(), 1u);
  EXPECT_EQ(In["main"].Counts, Second["main"].Counts);
}

TEST(EdgeProfileTest, StaleRecordsAreDroppedWhole) {
  DiamondCFG D;
  ProfileDB DB;
  ModuleEdgeWeights Out;
  Out["main"] = D.Weights;
  exportEdgeWeights(Out, DB);

  // A different build of "main": straight-line, no diamond.  Every edge in
  // the record names blocks/successors this CFG does not have, so the
  // record profiles a different build and must be dropped whole.
  Module Other;
  Function *F = Other.createFunction("main", 0);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Done = F->createBlock("done");
  IRBuilder B(Entry);
  B.emitJump(Done);
  B.setInsertionPoint(Done);
  B.emitRet(Operand::imm(0));

  unsigned Stale = 0;
  ModuleEdgeWeights In = importEdgeWeights(DB, Other, &Stale);
  EXPECT_TRUE(In.empty());
  EXPECT_EQ(Stale, 1u);

  // A module without the function at all: also dropped, also counted.
  Module Unrelated;
  Function *G = Unrelated.createFunction("other", 0);
  IRBuilder BG(G->createBlock("entry"));
  BG.emitRet(Operand::imm(0));
  Stale = 0;
  EXPECT_TRUE(importEdgeWeights(DB, Unrelated, &Stale).empty());
  EXPECT_EQ(Stale, 1u);
}

//===----------------------------------------------------------------------===//
// 5. The edge collector
//===----------------------------------------------------------------------===//

/// Expected edges as (from, to, count) triples of blocks.
using EdgeList = std::vector<std::tuple<BasicBlock *, BasicBlock *, uint64_t>>;

/// The EdgeWeightMap::Counts that \p Edges stand for.
std::map<uint64_t, uint64_t> counts(const EdgeList &Edges) {
  EdgeWeightMap Map;
  for (const auto &[From, To, Count] : Edges)
    Map.add(From->getId(), To->getId(), Count);
  return Map.Counts;
}

/// A read loop in `main`: head reads a character and branches to done at
/// EOF, else to body.  Each test ends body with the transfer it checks;
/// backEdge() adds blocks that jump back to head.
struct ReadLoop {
  Module M;
  Function *F = nullptr;
  BasicBlock *Head = nullptr, *Body = nullptr, *Done = nullptr;
  unsigned Char = 0;
  IRBuilder B;

  ReadLoop() {
    F = M.createFunction("main", 0);
    Head = F->createBlock("head");
    Body = F->createBlock("body");
    Done = F->createBlock("done");
    Char = F->newReg();
    B.setInsertionPoint(Head);
    B.emitReadChar(Char);
    B.emitCmp(Operand::reg(Char), Operand::imm(-1));
    B.emitCondBr(CondCode::EQ, Done, Body);
    B.setInsertionPoint(Done);
    B.emitRet(Operand::imm(0));
    B.setInsertionPoint(Body);
  }

  /// A block that jumps back to head.
  BasicBlock *backEdge(const std::string &Label) {
    BasicBlock *Block = F->createBlock(Label);
    IRBuilder(Block).emitJump(Head);
    return Block;
  }

  ModuleEdgeWeights collect(std::vector<std::string> Inputs,
                            uint64_t Limit = 2'000'000'000) {
    return collectEdgeWeights(M, Inputs, Limit);
  }
};

TEST(EdgeCollectorTest, CondBrCountsBothDirectionsUnderOneKeyWhenTheyMeet) {
  // body's taken and fall-through targets coincide: two slots, one key.
  ReadLoop L;
  BasicBlock *Next = L.backEdge("next");
  L.B.emitCmp(Operand::reg(L.Char), Operand::imm('a'));
  L.B.emitCondBr(CondCode::EQ, Next, Next);

  ModuleEdgeWeights W = L.collect({"ab"});
  ASSERT_EQ(W.size(), 1u);
  EXPECT_EQ(W["main"].Counts, counts({{L.Head, L.Done, 1},
                                      {L.Head, L.Body, 2},
                                      {L.Body, Next, 2},
                                      {Next, L.Head, 2}}));
}

TEST(EdgeCollectorTest, CountsExplicitJumpsAndLayoutFallThroughs) {
  ReadLoop L;
  BasicBlock *Mid = L.backEdge("mid");
  L.B.emitJump(Mid)->setIsFallThrough(true);

  ModuleEdgeWeights W = L.collect({"xyz"});
  EXPECT_EQ(W["main"].Counts, counts({{L.Head, L.Done, 1},
                                      {L.Head, L.Body, 3},
                                      {L.Body, Mid, 3},
                                      {Mid, L.Head, 3}}));
}

TEST(EdgeCollectorTest, CountsSwitchCasesAndDefault) {
  // 'c' shares the default's target, so its slot and the default's
  // merge; the second 'a' case never fires, since the first match wins.
  ReadLoop L;
  BasicBlock *A = L.backEdge("a"), *Bee = L.backEdge("b"),
             *Other = L.backEdge("other");
  L.B.emitSwitch(Operand::reg(L.Char),
                 {{'a', A}, {'b', Bee}, {'c', Other}, {'a', Bee}}, Other);

  ModuleEdgeWeights W = L.collect({"aabxc"});
  EXPECT_EQ(W["main"].Counts, counts({{L.Head, L.Done, 1},
                                      {L.Head, L.Body, 5},
                                      {L.Body, A, 2},
                                      {L.Body, Bee, 1},
                                      {L.Body, Other, 2},
                                      {A, L.Head, 2},
                                      {Bee, L.Head, 1},
                                      {Other, L.Head, 2}}));
}

TEST(EdgeCollectorTest, CountsIndirectJumpTargets) {
  // Entries 0 and 2 share a target: 'c' (99 % 3 == 0) and 'b' (98 % 3 ==
  // 2) both reach Even through different slots.
  ReadLoop L;
  BasicBlock *Even = L.backEdge("even"), *Odd = L.backEdge("odd");
  unsigned Index = L.F->newReg();
  L.B.emitBinary(BinaryOp::Rem, Index, Operand::reg(L.Char), Operand::imm(3));
  L.B.emitIndirectJump(Operand::reg(Index), {Even, Odd, Even});

  ModuleEdgeWeights W = L.collect({"abca"});
  EXPECT_EQ(W["main"].Counts, counts({{L.Head, L.Done, 1},
                                      {L.Head, L.Body, 4},
                                      {L.Body, Odd, 2},
                                      {L.Body, Even, 2},
                                      {Odd, L.Head, 2},
                                      {Even, L.Head, 2}}));
}

TEST(EdgeCollectorTest, KeysCalleeEdgesUnderItsOwnName) {
  Module M;
  Function *Sign = M.createFunction("sign", 1);
  BasicBlock *Test = Sign->createBlock("test");
  BasicBlock *Pos = Sign->createBlock("pos");
  BasicBlock *Neg = Sign->createBlock("neg");
  IRBuilder B(Test);
  B.emitCmp(Operand::reg(0), Operand::imm(0));
  B.emitCondBr(CondCode::GT, Pos, Neg);
  B.setInsertionPoint(Pos);
  B.emitRet(Operand::imm(1));
  B.setInsertionPoint(Neg);
  B.emitRet(Operand::imm(-1));

  Function *Main = M.createFunction("main", 0);
  BasicBlock *Entry = Main->createBlock("entry");
  BasicBlock *Exit = Main->createBlock("exit");
  B.setInsertionPoint(Entry);
  B.emitCall(std::nullopt, Sign, {Operand::imm(5)});
  B.emitCall(std::nullopt, Sign, {Operand::imm(-5)});
  B.emitCall(std::nullopt, Sign, {Operand::imm(7)});
  B.emitJump(Exit);
  B.setInsertionPoint(Exit);
  B.emitRet(Operand::imm(0));

  ModuleEdgeWeights W = collectEdgeWeights(M, {""});
  ASSERT_EQ(W.size(), 2u);
  EXPECT_EQ(W["sign"].Counts, counts({{Test, Pos, 2}, {Test, Neg, 1}}));
  EXPECT_EQ(W["main"].Counts, counts({{Entry, Exit, 1}}));
}

TEST(EdgeCollectorTest, AccumulatesAcrossInputs) {
  ReadLoop L;
  BasicBlock *Next = L.backEdge("next");
  L.B.emitJump(Next);

  ModuleEdgeWeights W = L.collect({"ab", "", "c"});
  EXPECT_EQ(W["main"].Counts, counts({{L.Head, L.Done, 3},
                                      {L.Head, L.Body, 3},
                                      {L.Body, Next, 3},
                                      {Next, L.Head, 3}}));
}

TEST(EdgeCollectorTest, CountsUpToAMidRunTrap) {
  // body divides by (c - 'x'): the third character traps inside body, so
  // head -> body counts three times but body -> next only twice, and the
  // characters after the trap never run.
  ReadLoop L;
  BasicBlock *Next = L.backEdge("next");
  unsigned Diff = L.F->newReg(), Quot = L.F->newReg();
  L.B.emitBinary(BinaryOp::Sub, Diff, Operand::reg(L.Char),
                 Operand::imm('x'));
  L.B.emitBinary(BinaryOp::Div, Quot, Operand::imm(100), Operand::reg(Diff));
  L.B.emitJump(Next);

  Interpreter Reference(L.M, Interpreter::Mode::Tree);
  Reference.setInput("abxcd");
  ASSERT_EQ(Reference.run().TrapReason, "division by zero");
  ModuleEdgeWeights W = L.collect({"abxcd"});
  EXPECT_EQ(W["main"].Counts, counts({{L.Head, L.Body, 3},
                                      {L.Body, Next, 2},
                                      {Next, L.Head, 2}}));
}

TEST(EdgeCollectorTest, CountsUpToAnInstructionLimitTrip) {
  // One iteration costs four counted instructions (ReadChar, Cmp, CondBr
  // and next's Jump) plus body's free fall-through.  At limit 10 the
  // third CondBr is the eleventh instruction: it trips before its edge.
  ReadLoop L;
  BasicBlock *Next = L.backEdge("next");
  L.B.emitJump(Next)->setIsFallThrough(true);

  Interpreter Reference(L.M, Interpreter::Mode::Tree);
  Reference.setInstructionLimit(10);
  Reference.setInput("abcdef");
  ASSERT_EQ(Reference.run().TrapReason, "instruction limit exceeded");
  ModuleEdgeWeights W = L.collect({"abcdef"}, 10);
  EXPECT_EQ(W["main"].Counts, counts({{L.Head, L.Body, 2},
                                      {L.Body, Next, 2},
                                      {Next, L.Head, 2}}));
}

/// The `edges` records of each workload's Set IV profile.  The golden was
/// taken while the tree walker still measured edges, so it pins the
/// collector to the reference's counts and to the layout ext-TSP builds
/// from them.
TEST(EdgeCollectorTest, ReproducesTheTreeWalkerGoldenOnAllWorkloads) {
  CompileOptions Options;
  Options.HeuristicSet = SwitchHeuristicSet::SetIV;
  std::string Records;
  for (const Workload &W : standardWorkloads()) {
    CompileResult R =
        compileWithReordering(W.Source, W.TrainingInput, Options);
    ASSERT_TRUE(R.ok()) << W.Name << ": " << R.Error;
    Records += "workload " + W.Name + "\n";
    for (std::string_view Line : splitString(R.ProfileText, '\n'))
      if (Line.starts_with("seq edges ")) {
        Records += Line;
        Records += '\n';
      }
  }
  expectGolden(Records, goldenPath("cost", "workload_edges.txt"));
}

} // namespace
