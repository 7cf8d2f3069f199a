//===- tests/driver/evaluator_test.cpp - Evaluation harness tests ---------===//

#include "driver/Evaluator.h"

#include <gtest/gtest.h>

#include <thread>

using namespace bropt;

namespace {

const char *TinySource = R"(
int total = 0;
int main() {
  int c;
  while ((c = getchar()) != -1) {
    if (c == 'a') { total = total + 2; }
    else if (c == 'b') { total = total + 1; }
    else { total = total; }
  }
  printint(total);
  return 0;
}
)";

Workload tinyWorkload() {
  Workload W;
  W.Name = "tiny";
  W.Description = "caching unit-test program";
  W.Source = TinySource;
  W.TrainingInput = "aababab aab";
  W.TestInput = "babba abba";
  return W;
}

/// Every observable a build measurement carries that no engine, schedule
/// or cache may change.
void expectSameMeasurement(const BuildMeasurement &A,
                           const BuildMeasurement &B) {
  EXPECT_EQ(A.Counts.TotalInsts, B.Counts.TotalInsts);
  EXPECT_EQ(A.Counts.CondBranches, B.Counts.CondBranches);
  EXPECT_EQ(A.Counts.TakenBranches, B.Counts.TakenBranches);
  EXPECT_EQ(A.Counts.UncondJumps, B.Counts.UncondJumps);
  EXPECT_EQ(A.Counts.IndirectJumps, B.Counts.IndirectJumps);
  EXPECT_EQ(A.Counts.Compares, B.Counts.Compares);
  EXPECT_EQ(A.Mispredictions, B.Mispredictions);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.ExitValue, B.ExitValue);
}

TEST(EvaluatorTest, CachesBaselineAndReorderedCompiles) {
  Evaluator Eval;
  Workload W = tinyWorkload();
  CompileOptions Options;

  WorkloadRecord First = Eval.evaluateWorkload(W, Options);
  ASSERT_TRUE(First.Eval.ok()) << First.Eval.Error;
  EXPECT_FALSE(First.BaselineCacheHit);
  EXPECT_FALSE(First.ReorderedCacheHit);
  EXPECT_EQ(Eval.cache().stats().Misses, 2u);
  EXPECT_EQ(Eval.cache().stats().Hits, 0u);

  WorkloadRecord Second = Eval.evaluateWorkload(W, Options);
  ASSERT_TRUE(Second.Eval.ok()) << Second.Eval.Error;
  EXPECT_TRUE(Second.BaselineCacheHit);
  EXPECT_TRUE(Second.ReorderedCacheHit);
  EXPECT_EQ(Eval.cache().stats().Hits, 2u);
  EXPECT_EQ(Eval.cache().stats().Misses, 2u);

  // Cached compiles must yield identical measurements.
  expectSameMeasurement(First.Eval.Baseline, Second.Eval.Baseline);
  expectSameMeasurement(First.Eval.Reordered, Second.Eval.Reordered);
}

TEST(EvaluatorTest, CachedRunsShareModulesButNotPredictorState) {
  Evaluator Eval;
  Workload W = tinyWorkload();
  CompileOptions Options;
  Options.Predictor = "paper";

  // The second evaluation reuses the cached baseline and reordered
  // modules — but each measureBuild spins up a fresh zoo instance, so a
  // predictor warmed by the first run can never flatter the second.
  // Identical misprediction counts are the observable proof.
  WorkloadRecord First = Eval.evaluateWorkload(W, Options);
  ASSERT_TRUE(First.Eval.ok()) << First.Eval.Error;
  WorkloadRecord Second = Eval.evaluateWorkload(W, Options);
  ASSERT_TRUE(Second.Eval.ok()) << Second.Eval.Error;
  EXPECT_TRUE(Second.BaselineCacheHit);
  EXPECT_TRUE(Second.ReorderedCacheHit);

  EXPECT_GT(First.Eval.Baseline.Mispredictions, 0u);
  EXPECT_EQ(First.Eval.Baseline.Mispredictions,
            Second.Eval.Baseline.Mispredictions);
  EXPECT_EQ(First.Eval.Reordered.Mispredictions,
            Second.Eval.Reordered.Mispredictions);

  // Targeting a different scheme is a different reordered build (the
  // cost model arms differently), not a cache hit with new numbers.
  CompileOptions Tage = Options;
  Tage.Predictor = "tage";
  WorkloadRecord Third = Eval.evaluateWorkload(W, Tage);
  ASSERT_TRUE(Third.Eval.ok()) << Third.Eval.Error;
  EXPECT_FALSE(Third.ReorderedCacheHit);
}

TEST(EvaluatorTest, OptionChangesMissTheCache) {
  Evaluator Eval;
  Workload W = tinyWorkload();

  CompileOptions SetI;
  SetI.HeuristicSet = SwitchHeuristicSet::SetI;
  CompileOptions SetIII;
  SetIII.HeuristicSet = SwitchHeuristicSet::SetIII;

  WorkloadRecord First = Eval.evaluateWorkload(W, SetI);
  ASSERT_TRUE(First.Eval.ok()) << First.Eval.Error;
  EXPECT_FALSE(First.BaselineCacheHit);
  WorkloadRecord Other = Eval.evaluateWorkload(W, SetIII);
  ASSERT_TRUE(Other.Eval.ok()) << Other.Eval.Error;
  EXPECT_FALSE(Other.BaselineCacheHit);
  EXPECT_FALSE(Other.ReorderedCacheHit);
  // Two baseline and two reordered builds.
  EXPECT_EQ(Eval.cache().stats().Misses, 4u);

  // Reorder-option changes invalidate reordered builds but reuse the
  // baseline, which does not depend on them.
  CompileOptions NoDup = SetI;
  NoDup.Reorder.DuplicateDefaultTarget = false;
  WorkloadRecord Third = Eval.evaluateWorkload(W, NoDup);
  ASSERT_TRUE(Third.Eval.ok()) << Third.Eval.Error;
  EXPECT_TRUE(Third.BaselineCacheHit);
  EXPECT_FALSE(Third.ReorderedCacheHit);
}

TEST(EvaluatorTest, DecodeCacheReusesPreparedPrograms) {
  Evaluator Eval; // default engine: fused
  Workload W = tinyWorkload();
  CompileOptions Options;

  WorkloadRecord First = Eval.evaluateWorkload(W, Options);
  ASSERT_TRUE(First.Eval.ok()) << First.Eval.Error;
  EXPECT_FALSE(First.BaselineEngineHit);
  EXPECT_FALSE(First.ReorderedEngineHit);
  EXPECT_EQ(Eval.cache().stats().EngineBuilds, 2u);

  WorkloadRecord Second = Eval.evaluateWorkload(W, Options);
  ASSERT_TRUE(Second.Eval.ok()) << Second.Eval.Error;
  EXPECT_TRUE(Second.BaselineEngineHit);
  EXPECT_TRUE(Second.ReorderedEngineHit);
  EXPECT_EQ(Eval.cache().stats().EngineBuilds, 2u);

  // Cached fused programs must yield identical measurements.
  expectSameMeasurement(First.Eval.Baseline, Second.Eval.Baseline);
  expectSameMeasurement(First.Eval.Reordered, Second.Eval.Reordered);

  // The tree walker never builds an engine — it is the unprepared
  // comparison baseline.
  EvaluatorOptions TreeMode;
  TreeMode.Mode = Interpreter::Mode::Tree;
  Evaluator Tree(TreeMode);
  WorkloadRecord Reference = Tree.evaluateWorkload(W, Options);
  ASSERT_TRUE(Reference.Eval.ok()) << Reference.Eval.Error;
  EXPECT_FALSE(Reference.BaselineEngineHit);
  EXPECT_FALSE(Reference.ReorderedEngineHit);
  EXPECT_EQ(Tree.cache().stats().EngineBuilds, 0u);
  expectSameMeasurement(First.Eval.Baseline, Reference.Eval.Baseline);
  expectSameMeasurement(First.Eval.Reordered, Reference.Eval.Reordered);
}

TEST(EvaluatorTest, ClearCacheForcesRecompilation) {
  Evaluator Eval;
  Workload W = tinyWorkload();
  CompileOptions Options;
  ASSERT_TRUE(Eval.evaluateWorkload(W, Options).Eval.ok());
  Eval.cache().clear();
  WorkloadRecord Record = Eval.evaluateWorkload(W, Options);
  EXPECT_FALSE(Record.BaselineCacheHit);
  EXPECT_FALSE(Record.ReorderedCacheHit);
  EXPECT_EQ(Eval.cache().stats().Misses, 4u);
}

TEST(EvaluatorTest, ParallelEvaluationPreservesOrderAndResults) {
  // The batched path must return records in input order with the same
  // measurements the serial path produces, regardless of thread count.
  std::vector<Workload> Batch;
  for (char Tag = 'a'; Tag < 'e'; ++Tag) {
    Workload W = tinyWorkload();
    W.Name = std::string("tiny-") + Tag;
    W.TestInput += Tag; // distinct inputs -> distinct counts
    Batch.push_back(W);
  }
  CompileOptions Options;

  EvaluatorOptions Serial;
  Serial.Threads = 1;
  Evaluator SerialEval(Serial);
  std::vector<WorkloadRecord> Expected =
      SerialEval.evaluateWorkloads(Batch, Options);

  EvaluatorOptions Parallel;
  Parallel.Threads = 4;
  Evaluator ParallelEval(Parallel);
  std::vector<WorkloadRecord> Actual =
      ParallelEval.evaluateWorkloads(Batch, Options);

  ASSERT_EQ(Expected.size(), Batch.size());
  ASSERT_EQ(Actual.size(), Batch.size());
  for (size_t Index = 0; Index < Batch.size(); ++Index) {
    EXPECT_EQ(Actual[Index].Eval.Name, Batch[Index].Name);
    ASSERT_TRUE(Actual[Index].Eval.ok()) << Actual[Index].Eval.Error;
    expectSameMeasurement(Expected[Index].Eval.Baseline,
                          Actual[Index].Eval.Baseline);
    expectSameMeasurement(Expected[Index].Eval.Reordered,
                          Actual[Index].Eval.Reordered);
  }
}

EvaluatorOptions adaptiveOptions() {
  EvaluatorOptions Opts;
  Opts.Mode = Interpreter::Mode::Adaptive;
  // Aggressive knobs so the tiny workload tiers up within one measurement.
  Opts.Runtime.HotThreshold = 64;
  Opts.Runtime.SampleInterval = 4;
  Opts.Runtime.DriftWindow = 16;
  Opts.Runtime.MinSamplesBetweenRecompiles = 32;
  return Opts;
}

TEST(EvaluatorTest, AdaptiveControllersAreCachedAndStateful) {
  Evaluator Eval(adaptiveOptions());
  Workload W = tinyWorkload();
  // Long enough to cross the (shrunk) hot threshold during measurement.
  W.TestInput.clear();
  for (int Index = 0; Index < 100; ++Index)
    W.TestInput += "aababab bab";
  CompileOptions Options;

  WorkloadRecord First = Eval.evaluateWorkload(W, Options);
  ASSERT_TRUE(First.Eval.ok()) << First.Eval.Error;
  EXPECT_FALSE(First.BaselineEngineHit);
  EXPECT_FALSE(First.ReorderedEngineHit);
  EXPECT_EQ(Eval.cache().stats().EngineBuilds, 2u);
  EXPECT_GT(First.Eval.Baseline.Runtime.SamplesTaken, 0u);
  EXPECT_GT(First.Eval.Baseline.Runtime.TierUps, 0u);
  EXPECT_GT(First.Eval.Baseline.Runtime.Swaps, 0u);

  // The second evaluation re-enters the cached controllers: no fresh
  // tier-up (the profile state carried over), but a new entry swap —
  // evolving state, which is exactly what distinguishes a controller hit
  // from a fused-program hit on an immutable program.
  WorkloadRecord Second = Eval.evaluateWorkload(W, Options);
  ASSERT_TRUE(Second.Eval.ok()) << Second.Eval.Error;
  EXPECT_TRUE(Second.BaselineEngineHit);
  EXPECT_TRUE(Second.ReorderedEngineHit);
  EXPECT_EQ(Eval.cache().stats().EngineBuilds, 2u);
  EXPECT_EQ(Second.Eval.Baseline.Runtime.TierUps,
            First.Eval.Baseline.Runtime.TierUps);
  EXPECT_GT(Second.Eval.Baseline.Runtime.Swaps,
            First.Eval.Baseline.Runtime.Swaps);

  // Tiering mid-measurement must not perturb a single observable.
  expectSameMeasurement(First.Eval.Baseline, Second.Eval.Baseline);
  expectSameMeasurement(First.Eval.Reordered, Second.Eval.Reordered);
  EvaluatorOptions TreeMode;
  TreeMode.Mode = Interpreter::Mode::Tree;
  Evaluator Tree(TreeMode);
  WorkloadRecord Reference = Tree.evaluateWorkload(W, Options);
  ASSERT_TRUE(Reference.Eval.ok()) << Reference.Eval.Error;
  expectSameMeasurement(First.Eval.Baseline, Reference.Eval.Baseline);
  expectSameMeasurement(First.Eval.Reordered, Reference.Eval.Reordered);
}

TEST(EvaluatorTest, CachedAdaptiveSweepsMatchTreeWalkerOnAllWorkloads) {
  // Every standard workload under four sweeps: plain Sets I and IV, and
  // Set I measured under the Table 5 predictor and one Table 6 point.
  // Knobs sized for these workloads: low enough that controllers tier up
  // within the passes, so later passes re-enter tiered controllers.
  struct Sweep {
    SwitchHeuristicSet Set;
    std::optional<PredictorConfig> Predictor;
  };
  const Sweep Sweeps[] = {
      {SwitchHeuristicSet::SetI, std::nullopt},
      {SwitchHeuristicSet::SetIV, std::nullopt},
      {SwitchHeuristicSet::SetI, PredictorConfig::ultraSparc()},
      {SwitchHeuristicSet::SetI, PredictorConfig{0, 2, 256}},
  };
  EvaluatorOptions Opts;
  Opts.Mode = Interpreter::Mode::Adaptive;
  Opts.Runtime.HotThreshold = 2048;
  Opts.Runtime.SampleInterval = 64;
  Evaluator Adaptive(Opts);
  std::vector<std::vector<WorkloadEvaluation>> Last;
  for (int Pass = 0; Pass < 3; ++Pass) {
    Last.clear();
    for (const Sweep &S : Sweeps) {
      CompileOptions Options;
      Options.HeuristicSet = S.Set;
      Last.push_back(Adaptive.evaluateAll(Options, S.Predictor));
    }
  }

  EvaluatorOptions TreeMode;
  TreeMode.Mode = Interpreter::Mode::Tree;
  Evaluator Tree(TreeMode);
  uint64_t TierUps = 0;
  for (size_t Index = 0; Index < std::size(Sweeps); ++Index) {
    CompileOptions Options;
    Options.HeuristicSet = Sweeps[Index].Set;
    std::vector<WorkloadEvaluation> Reference =
        Tree.evaluateAll(Options, Sweeps[Index].Predictor);
    ASSERT_EQ(Last[Index].size(), Reference.size());
    for (size_t W = 0; W < Reference.size(); ++W) {
      const WorkloadEvaluation &Got = Last[Index][W];
      SCOPED_TRACE(Got.Name + " in sweep " + std::to_string(Index));
      ASSERT_TRUE(Got.ok()) << Got.Error;
      ASSERT_TRUE(Reference[W].ok()) << Reference[W].Error;
      expectSameMeasurement(Got.Baseline, Reference[W].Baseline);
      expectSameMeasurement(Got.Reordered, Reference[W].Reordered);
      TierUps += Got.Baseline.Runtime.TierUps + Got.Reordered.Runtime.TierUps;
    }
  }
  EXPECT_GT(TierUps, 0u) << "no cached controller ever tiered up";
}

TEST(EvaluatorTest, ClearCacheDropsAdaptiveControllers) {
  // After a cache clear the evolving profile is gone: re-evaluation builds
  // fresh controllers that re-tier from scratch and — determinism check —
  // observe exactly the sample trajectory of the first cold run.
  Evaluator Eval(adaptiveOptions());
  Workload W = tinyWorkload();
  W.TestInput.clear();
  for (int Index = 0; Index < 100; ++Index)
    W.TestInput += "aababab bab";
  CompileOptions Options;

  WorkloadRecord Cold = Eval.evaluateWorkload(W, Options);
  ASSERT_TRUE(Cold.Eval.ok()) << Cold.Eval.Error;
  Eval.cache().clear();
  WorkloadRecord Fresh = Eval.evaluateWorkload(W, Options);
  ASSERT_TRUE(Fresh.Eval.ok()) << Fresh.Eval.Error;
  EXPECT_FALSE(Fresh.BaselineEngineHit);
  EXPECT_FALSE(Fresh.ReorderedEngineHit);
  EXPECT_EQ(Eval.cache().stats().EngineBuilds, 4u);
  EXPECT_EQ(Fresh.Eval.Baseline.Runtime.SamplesTaken,
            Cold.Eval.Baseline.Runtime.SamplesTaken);
  EXPECT_EQ(Fresh.Eval.Baseline.Runtime.TierUps,
            Cold.Eval.Baseline.Runtime.TierUps);
  expectSameMeasurement(Cold.Eval.Baseline, Fresh.Eval.Baseline);
}

TEST(EvaluatorTest, AdaptiveReFusionsCountDriftRebuilds) {
  // A phase-shift input makes a cached controller rebuild *after* its
  // tier-up build: the record's runtime counters must show the drift and
  // the re-fusion beyond the tier-up build.
  Evaluator Eval(adaptiveOptions());
  Workload W = tinyWorkload();
  W.TestInput.assign(800, 'a');
  W.TestInput.append(800, 'z');
  CompileOptions Options;
  WorkloadRecord Record = Eval.evaluateWorkload(W, Options);
  ASSERT_TRUE(Record.Eval.ok()) << Record.Eval.Error;
  EXPECT_GT(Record.Eval.Baseline.Runtime.DriftEvents, 0u);
  EXPECT_GE(Record.Eval.Baseline.Runtime.Recompiles, 2u);
}

TEST(EvaluatorTest, ConcurrentAdaptiveEvaluationsTakeTurnsOnOneController) {
  // Four threads evaluate one workload at once on one adaptive Evaluator,
  // so every run of a build goes through the same cached controller.  Its
  // run lock makes them take turns: each record equals the tree walker's.
  Evaluator Eval(adaptiveOptions());
  Workload W = tinyWorkload();
  W.TestInput.clear();
  for (int Index = 0; Index < 100; ++Index)
    W.TestInput += "aababab bab";
  CompileOptions Options;

  constexpr unsigned NumThreads = 4, Rounds = 3;
  std::vector<WorkloadRecord> Records(NumThreads * Rounds);
  std::vector<std::thread> Threads;
  for (unsigned Index = 0; Index < NumThreads; ++Index)
    Threads.emplace_back([&, Index] {
      for (unsigned Round = 0; Round < Rounds; ++Round)
        Records[Index * Rounds + Round] = Eval.evaluateWorkload(W, Options);
    });
  for (std::thread &T : Threads)
    T.join();

  EvaluatorOptions TreeMode;
  TreeMode.Mode = Interpreter::Mode::Tree;
  WorkloadRecord Reference = Evaluator(TreeMode).evaluateWorkload(W, Options);
  ASSERT_TRUE(Reference.Eval.ok()) << Reference.Eval.Error;
  uint64_t TierUps = 0;
  for (const WorkloadRecord &Record : Records) {
    ASSERT_TRUE(Record.Eval.ok()) << Record.Eval.Error;
    expectSameMeasurement(Record.Eval.Baseline, Reference.Eval.Baseline);
    expectSameMeasurement(Record.Eval.Reordered, Reference.Eval.Reordered);
    TierUps += Record.Eval.Baseline.Runtime.TierUps;
  }
  EXPECT_GT(TierUps, 0u) << "the shared controller never tiered up";
  // One controller per build, whichever thread got there first.
  EXPECT_EQ(Eval.cache().stats().EngineBuilds, 2u);
}

TEST(EvaluatorTest, FrontEndErrorsAreReported) {
  Evaluator Eval;
  Workload Broken = tinyWorkload();
  Broken.Source = "int main( {";
  CompileOptions Options;
  WorkloadRecord Record = Eval.evaluateWorkload(Broken, Options);
  EXPECT_FALSE(Record.Eval.ok());
  EXPECT_FALSE(Record.Eval.Error.empty());
}

} // namespace
