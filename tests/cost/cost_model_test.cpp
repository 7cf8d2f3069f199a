//===- tests/cost/cost_model_test.cpp - Unified cost-layer tests ----------===//
//
// Proof obligations of the unified cost layer (cost/BranchCostModel.h):
//
//  1. The analytic misprediction rate is the quality-scaled minority
//     share, clamped into [0, 1] on both axes.
//  2. With the mispredict charge disarmed (the default), chainExtras is
//     exactly the taken-branch mass — the formula the old inline
//     arithmetic in core/Reorder.cpp charged, so Sets I-III price
//     identically to the seed.
//  3. The aware chain charge follows the reach-decrement model: condition
//     k is reached by whatever mass earlier exits did not consume.
//  4. treeParams()/jumpTableCost()/tablePreferred() reproduce the
//     constants they replaced, so the tree DP, the table plan, and the
//     0.8 method-selection margin price as before when unaware.
//  5. Double-charging regression: under Set IV with a nonzero taken-branch
//     extra, the emitted shape's modeled cost never exceeds the chain's —
//     the invariant a double-charged chain extra would break.
//  6. Misprediction-aware selection (a targeted predictor) changes only
//     the model, never observable behaviour, and keeps the same
//     never-worse guarantee.  Over the whole suite, the build aware of
//     the paper's predictor never mispredicts more under that predictor
//     than the plain build does.
//
//===----------------------------------------------------------------------===//

#include "cost/BranchCostModel.h"

#include "driver/Driver.h"
#include "predict/Zoo.h"
#include "sim/Interpreter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace bropt;

namespace {

TEST(BranchCostModelTest, MispredictRateIsQualityScaledMinorityShare) {
  BranchCostModel Model;
  EXPECT_DOUBLE_EQ(Model.mispredictRate(0.0), 0.0);
  EXPECT_DOUBLE_EQ(Model.mispredictRate(1.0), 0.0);
  EXPECT_DOUBLE_EQ(Model.mispredictRate(0.5), 0.5);
  EXPECT_DOUBLE_EQ(Model.mispredictRate(0.25), 0.25);
  EXPECT_DOUBLE_EQ(Model.mispredictRate(0.75), 0.25); // symmetric

  Model.PredictorQuality = 0.2; // TAGE-class: misses a fifth of minority
  EXPECT_DOUBLE_EQ(Model.mispredictRate(0.5), 0.1);

  Model.PredictorQuality = 4.0; // losing to aliasing: clamps at certainty
  EXPECT_DOUBLE_EQ(Model.mispredictRate(0.5), 1.0);

  // Out-of-range probabilities (rounding dust from normalization) clamp.
  Model.PredictorQuality = 1.0;
  EXPECT_DOUBLE_EQ(Model.mispredictRate(-0.1), 0.0);
  EXPECT_DOUBLE_EQ(Model.mispredictRate(1.1), 0.0);
}

TEST(BranchCostModelTest, UnawareChainExtrasIsTakenMassOnly) {
  BranchCostModel Model; // MispredictPenalty 0: prediction-unaware
  ASSERT_FALSE(Model.mispredictAware());
  EXPECT_DOUBLE_EQ(Model.chainExtras({}), 0.0);
  EXPECT_DOUBLE_EQ(Model.chainExtras({0.5, 0.3}), 0.8);

  Model.TakenBranchExtra = 2.0; // Ultra-like taken penalty
  EXPECT_DOUBLE_EQ(Model.chainExtras({0.5, 0.3}), 1.6);
}

TEST(BranchCostModelTest, AwareChainExtrasFollowsReachDecrement) {
  BranchCostModel Model;
  Model.MispredictPenalty = 4.0;
  ASSERT_TRUE(Model.mispredictAware());

  // Exits at 0.5 then 0.25 absolute mass.  The first test is reached by
  // everything and takes half: 4 * 1.0 * rate(0.5) = 2.  The second is
  // reached by the remaining half and takes half of that:
  // 4 * 0.5 * rate(0.5) = 1.  Plus the taken mass 1 * 0.75.
  EXPECT_DOUBLE_EQ(Model.chainExtras({0.5, 0.25}), 0.75 + 2.0 + 1.0);

  // A perfect predictor prices exactly like the unaware model.
  Model.PredictorQuality = 0.0;
  EXPECT_DOUBLE_EQ(Model.chainExtras({0.5, 0.25}), 0.75);

  // A fully-biased chain (one exit takes everything) never mispredicts.
  Model.PredictorQuality = 1.0;
  EXPECT_DOUBLE_EQ(Model.chainExtras({1.0}), Model.TakenBranchExtra);
}

TEST(BranchCostModelTest, TreeParamsMirrorTheModel) {
  BranchCostModel Model;
  Model.CompareCost = 3.0;
  Model.TakenBranchExtra = 2.0;
  TreeCostParams Unaware = Model.treeParams();
  EXPECT_DOUBLE_EQ(Unaware.CompareCost, 3.0);
  EXPECT_DOUBLE_EQ(Unaware.TakenExtra, 2.0);
  EXPECT_DOUBLE_EQ(Unaware.MispredictExtra, 0.0);

  Model.MispredictPenalty = 4.0;
  Model.PredictorQuality = 0.5;
  TreeCostParams Aware = Model.treeParams();
  EXPECT_DOUBLE_EQ(Aware.MispredictExtra, 2.0);
}

TEST(BranchCostModelTest, JumpTableCostReproducesTheInlineFormula) {
  BranchCostModel Model;
  // Below exits at the first bounds check (2), above at the second (4),
  // in-span pays both checks plus bias plus the indirect dispatch.
  EXPECT_DOUBLE_EQ(Model.jumpTableCost(10, 5, 85, /*NeedsBias=*/false),
                   10 * 2.0 + 5 * 4.0 + 85 * (4.0 + 2.0));
  EXPECT_DOUBLE_EQ(Model.jumpTableCost(10, 5, 85, /*NeedsBias=*/true),
                   10 * 2.0 + 5 * 4.0 + 85 * (4.0 + 1.0 + 2.0));

  Model.IndirectJumpCost = 8.0; // Ultra-like indirect jump
  EXPECT_DOUBLE_EQ(Model.jumpTableCost(0, 0, 100, /*NeedsBias=*/false),
                   100 * 12.0);
}

TEST(BranchCostModelTest, AwareJumpTableChargesTheGuardBranches) {
  BranchCostModel Model;
  Model.MispredictPenalty = 4.0;
  // 25 below / 25 above / 50 in.  First guard takes 25 of 100:
  // 4 * 100 * rate(0.25) = 100.  Second guard is reached by 75 and takes
  // 25 of them: 4 * 75 * rate(1/3) = 100.
  double Base = 25 * 2.0 + 25 * 4.0 + 50 * (4.0 + 2.0);
  EXPECT_DOUBLE_EQ(Model.jumpTableCost(25, 25, 50, /*NeedsBias=*/false),
                   Base + 100.0 + 100.0);
  // Zero traffic stays finite and uncharged.
  EXPECT_DOUBLE_EQ(Model.jumpTableCost(0, 0, 0, /*NeedsBias=*/false), 0.0);
}

TEST(BranchCostModelTest, TablePreferredDemandsTheMargin) {
  BranchCostModel Model; // JumpTableMargin 0.8
  EXPECT_TRUE(Model.tablePreferred(7.9, 10.0));
  EXPECT_FALSE(Model.tablePreferred(8.0, 10.0)); // at the margin: keep chain
  EXPECT_FALSE(Model.tablePreferred(9.0, 10.0));
}

TEST(BranchCostModelTest, LayoutPrefersOnlyStrictlyBetter) {
  EXPECT_TRUE(BranchCostModel::layoutPrefers(2.0, 1.0));
  EXPECT_FALSE(BranchCostModel::layoutPrefers(1.0, 1.0)); // tie: keep first
  EXPECT_FALSE(BranchCostModel::layoutPrefers(1.0, 2.0));
}

TEST(BranchCostModelTest, TargetingAPredictorArmsTheMispredictCharge) {
  CompileOptions Plain;
  Plain.HeuristicSet = SwitchHeuristicSet::SetIV;
  EXPECT_FALSE(effectiveReorderOptions(Plain).Cost.mispredictAware());

  CompileOptions Aware = Plain;
  Aware.Predictor = "tage";
  EXPECT_DOUBLE_EQ(effectiveReorderOptions(Aware).Cost.MispredictPenalty,
                   DefaultMispredictPenalty);

  // An explicit penalty is never overridden by the default.
  Aware.Reorder.Cost.MispredictPenalty = 1.5;
  EXPECT_DOUBLE_EQ(effectiveReorderOptions(Aware).Cost.MispredictPenalty,
                   1.5);
}

/// Satellite regression: the taken-branch extra is charged exactly once
/// (by BranchCostModel::chainExtras), so the Set IV shape competition's
/// never-worse guarantee holds under any nonzero extra.  A double-charged
/// chain would inflate ChainModelCost past what the tree competes with
/// and could flip this inequality.
TEST(BranchCostModelTest, ChosenShapeNeverCostsMoreThanTheChain) {
  for (const Workload &W : standardWorkloads()) {
    CompileOptions Options;
    Options.HeuristicSet = SwitchHeuristicSet::SetIV;
    Options.Reorder.Cost.TakenBranchExtra = 2.0; // Ultra-like, nonzero
    Options.Reorder.Cost.IndirectJumpCost = 8.0;
    CompileResult Result =
        compileWithReordering(W.Source, W.TrainingInput, Options);
    ASSERT_TRUE(Result.ok()) << W.Name << ": " << Result.Error;
    EXPECT_LE(Result.Stats.ChosenModelCost,
              Result.Stats.ChainModelCost + 1e-9)
        << W.Name;
  }
}

TEST(BranchCostModelTest, AwareSelectionKeepsObservablesAndNeverWorse) {
  uint64_t PlainMispredictions = 0, AwareMispredictions = 0;
  for (const Workload &W : standardWorkloads()) {
    CompileOptions Plain;
    Plain.HeuristicSet = SwitchHeuristicSet::SetIV;
    CompileOptions Aware = Plain;
    Aware.Predictor = "paper";

    CompileResult PlainResult =
        compileWithReordering(W.Source, W.TrainingInput, Plain);
    CompileResult AwareResult =
        compileWithReordering(W.Source, W.TrainingInput, Aware);
    ASSERT_TRUE(PlainResult.ok()) << W.Name << ": " << PlainResult.Error;
    ASSERT_TRUE(AwareResult.ok()) << W.Name << ": " << AwareResult.Error;

    // Each run gets its own cold instance of the targeted predictor, so
    // no history bleeds from one build into the other.
    auto run = [&W](const Module &M, uint64_t &Mispredictions) {
      std::unique_ptr<Predictor> Paper = makePredictor("paper");
      Interpreter Interp(M);
      Interp.attachPredictor(Paper.get());
      Interp.setInput(W.TestInput);
      RunResult Result = Interp.run();
      Mispredictions += Paper->getStats().Mispredictions;
      return Result;
    };

    // The aware model reprices shapes; it must never change what the
    // program computes.
    RunResult PlainOut = run(*PlainResult.M, PlainMispredictions);
    RunResult AwareOut = run(*AwareResult.M, AwareMispredictions);
    ASSERT_FALSE(PlainOut.Trapped) << W.Name;
    ASSERT_FALSE(AwareOut.Trapped) << W.Name;
    EXPECT_EQ(PlainOut.Output, AwareOut.Output) << W.Name;
    EXPECT_EQ(PlainOut.ExitValue, AwareOut.ExitValue) << W.Name;

    // And under its own (aware) pricing the chosen shape still never
    // loses to the chain.
    EXPECT_LE(AwareResult.Stats.ChosenModelCost,
              AwareResult.Stats.ChainModelCost + 1e-9)
        << W.Name;
  }
  // The misprediction-aware promise, measured: targeting the paper's
  // (0,2)/2048 hardware never yields a suite that mispredicts more on it
  // than the unaware Set IV build.  Runs are deterministic, so there is
  // no tolerance.
  EXPECT_LE(AwareMispredictions, PlainMispredictions);
}

} // namespace
