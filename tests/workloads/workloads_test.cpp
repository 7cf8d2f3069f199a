//===- tests/workloads/workloads_test.cpp - 17-analogue integration tests -===//

#include "workloads/Workloads.h"

#include "driver/Evaluator.h"
#include "predict/BranchPredictor.h"

#include <gtest/gtest.h>

using namespace bropt;

namespace {

TEST(WorkloadsTest, SeventeenProgramsInPaperOrder) {
  const auto &All = standardWorkloads();
  ASSERT_EQ(All.size(), 17u);
  EXPECT_EQ(All.front().Name, "awk");
  EXPECT_EQ(All.back().Name, "yacc");
  for (const Workload &W : All) {
    EXPECT_FALSE(W.Source.empty());
    EXPECT_FALSE(W.TrainingInput.empty());
    EXPECT_FALSE(W.TestInput.empty());
    EXPECT_NE(W.TrainingInput, W.TestInput)
        << W.Name << ": training and test inputs must differ";
  }
  EXPECT_TRUE(findWorkload("sort"));
  EXPECT_FALSE(findWorkload("nosuch"));
}

/// Every workload, under every heuristic set, must produce identical
/// output from the baseline and reordered builds — the repository's main
/// end-to-end differential check.
class WorkloadPipelineTest
    : public ::testing::TestWithParam<
          std::tuple<SwitchHeuristicSet, std::string>> {};

TEST_P(WorkloadPipelineTest, BaselineAndReorderedAgree) {
  auto [Set, Name] = GetParam();
  const Workload *W = findWorkload(Name);
  ASSERT_TRUE(W);
  CompileOptions Options;
  Options.HeuristicSet = Set;
  WorkloadEvaluation Eval = Evaluator().evaluateWorkload(*W, Options).Eval;
  ASSERT_TRUE(Eval.ok()) << Eval.Error;
  EXPECT_TRUE(Eval.OutputsMatch);
  EXPECT_GT(Eval.Stats.Detected, 0u)
      << Name << " should contain reorderable sequences";
}

std::vector<std::string> workloadNames() {
  std::vector<std::string> Names;
  for (const Workload &W : standardWorkloads())
    Names.push_back(W.Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadPipelineTest,
    ::testing::Combine(::testing::Values(SwitchHeuristicSet::SetI,
                                         SwitchHeuristicSet::SetII,
                                         SwitchHeuristicSet::SetIII),
                       ::testing::ValuesIn(workloadNames())),
    [](const auto &Info) {
      return std::string("Set") +
             switchHeuristicSetName(std::get<0>(Info.param)) + "_" +
             std::get<1>(Info.param);
    });

TEST(WorkloadsTest, ReorderingReducesAverageInstructions) {
  // The paper's headline (Table 4): average dynamic instruction count
  // drops under every heuristic set.  Individual programs may regress
  // slightly (hyphen did in the paper), but the mean must improve.
  for (SwitchHeuristicSet Set :
       {SwitchHeuristicSet::SetI, SwitchHeuristicSet::SetIII}) {
    CompileOptions Options;
    Options.HeuristicSet = Set;
    double TotalDelta = 0.0;
    unsigned Count = 0;
    for (const WorkloadEvaluation &Eval : Evaluator().evaluateAll(Options)) {
      ASSERT_TRUE(Eval.ok()) << Eval.Error;
      TotalDelta += WorkloadEvaluation::deltaPercent(
          Eval.Baseline.Counts.TotalInsts, Eval.Reordered.Counts.TotalInsts);
      ++Count;
    }
    EXPECT_LT(TotalDelta / Count, 0.0)
        << "expected a mean instruction reduction under heuristic set "
        << switchHeuristicSetName(Set);
  }
}

TEST(WorkloadsTest, BranchReductionOutpacesInstructionReduction) {
  // Table 4's shape: branch reductions are roughly twice the instruction
  // reductions, because every skipped condition removes a compare and a
  // branch but the loop body keeps its other work.
  CompileOptions Options;
  double InstDelta = 0.0, BranchDelta = 0.0;
  unsigned Count = 0;
  for (const WorkloadEvaluation &Eval : Evaluator().evaluateAll(Options)) {
    ASSERT_TRUE(Eval.ok()) << Eval.Error;
    InstDelta += WorkloadEvaluation::deltaPercent(
        Eval.Baseline.Counts.TotalInsts, Eval.Reordered.Counts.TotalInsts);
    BranchDelta += WorkloadEvaluation::deltaPercent(
        Eval.Baseline.Counts.CondBranches,
        Eval.Reordered.Counts.CondBranches);
    ++Count;
  }
  EXPECT_LT(BranchDelta / Count, InstDelta / Count)
      << "branch reduction should exceed instruction reduction";
}

TEST(WorkloadsTest, PredictorMeasurementsAreCollected) {
  CompileOptions Options;
  const Workload *W = findWorkload("wc");
  ASSERT_TRUE(W);
  WorkloadEvaluation Eval =
      Evaluator()
          .evaluateWorkload(*W, Options, PredictorConfig::ultraSparc())
          .Eval;
  ASSERT_TRUE(Eval.ok()) << Eval.Error;
  EXPECT_GT(Eval.Baseline.Mispredictions, 0u);
  EXPECT_GT(Eval.Reordered.Mispredictions, 0u);
  EXPECT_GT(Eval.Baseline.CyclesUltra, Eval.Baseline.CyclesIPC)
      << "the Ultra model charges more for indirect jumps/mispredictions";
}

} // namespace
