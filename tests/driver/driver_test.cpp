//===- tests/driver/driver_test.cpp - Two-pass pipeline tests -------------===//

#include "driver/Driver.h"

#include "driver/Evaluator.h"
#include "ir/Printer.h"
#include "predict/BranchPredictor.h"
#include "sim/Interpreter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace bropt;

namespace {

const char *SimpleSource = R"(
  int a = 0; int b = 0; int d = 0;
  int main() {
    int c;
    while ((c = getchar()) != -1) {
      if (c == 'x') a = a + 1;
      else if (c == 'y') b = b + 1;
      else d = d + 1;
    }
    printint(a); printint(b); printint(d);
    return 0;
  }
)";

TEST(DriverTest, CompilationIsDeterministic) {
  // Pass 2 relies on re-detection matching pass 1's sequence ids, which
  // requires the whole pipeline to be deterministic.
  CompileOptions Options;
  CompileResult A = compileBaseline(SimpleSource, Options);
  CompileResult B = compileBaseline(SimpleSource, Options);
  ASSERT_TRUE(A.ok() && B.ok());
  EXPECT_EQ(printModule(*A.M), printModule(*B.M));

  CompileResult RA = compileWithReordering(SimpleSource, "zzzyyx", Options);
  CompileResult RB = compileWithReordering(SimpleSource, "zzzyyx", Options);
  ASSERT_TRUE(RA.ok() && RB.ok());
  EXPECT_EQ(printModule(*RA.M), printModule(*RB.M));
  EXPECT_EQ(RA.ProfileText, RB.ProfileText);
}

TEST(DriverTest, FrontEndErrorsPropagate) {
  CompileResult Result = compileBaseline("int main( {", {});
  EXPECT_FALSE(Result.ok());
  EXPECT_FALSE(Result.Error.empty());
  EXPECT_EQ(Result.M, nullptr);

  CompileResult Reorder = compileWithReordering("int main( {", "x", {});
  EXPECT_FALSE(Reorder.ok());
}

TEST(DriverTest, TrappedTrainingRunIsReported) {
  const char *Trapping = R"(
    int main() {
      int c = getchar();
      return 1 / (c - c);   // always divides by zero
    }
  )";
  CompileResult Result = compileWithReordering(Trapping, "x", {});
  EXPECT_FALSE(Result.ok());
  EXPECT_NE(Result.Error.find("trap"), std::string::npos);
}

TEST(DriverTest, MinExecutionsGateSuppressesReordering) {
  CompileOptions Options;
  Options.Reorder.MinExecutions = 1000000; // more than training provides
  CompileResult Result =
      compileWithReordering(SimpleSource, "xyzxyz", Options);
  ASSERT_TRUE(Result.ok()) << Result.Error;
  EXPECT_EQ(Result.Stats.Reordered, 0u);
  EXPECT_EQ(Result.Stats.NeverExecuted, Result.Stats.Detected);
}

TEST(DriverTest, Pass1ExposesInstrumentedModule) {
  CompileOptions Options;
  Pass1Result Pass1 = runPass1(SimpleSource, "xxyz", Options);
  ASSERT_TRUE(Pass1.ok()) << Pass1.Error;
  ASSERT_FALSE(Pass1.Sequences.empty());
  // The instrumented module carries a Profile hook at each sequence head.
  unsigned Hooks = 0;
  for (const auto &F : *Pass1.M)
    for (const auto &Block : *F)
      for (const auto &Inst : *Block)
        if (Inst->getKind() == InstKind::Profile)
          ++Hooks;
  EXPECT_EQ(Hooks, Pass1.Sequences.size());
  // And the profile already holds the training counts.
  const RangeSequence &Front = Pass1.Sequences.front();
  const ProfileEntry *Prof = Pass1.Profile.lookupSequence(
      ProfileKind::RangeBins, Front.F->getName(), Front.signature(),
      Front.Conds.size() + Front.DefaultRanges.size(), /*Ordinal=*/0);
  ASSERT_TRUE(Prof);
  EXPECT_EQ(Prof->totalExecutions(), 5u); // 4 chars + EOF
}

TEST(DriverTest, InstrumentationOverheadExcludedFromCounts) {
  CompileOptions Options;
  Pass1Result Pass1 = runPass1(SimpleSource, "xyzz", Options);
  ASSERT_TRUE(Pass1.ok()) << Pass1.Error;
  CompileResult Baseline = compileBaseline(SimpleSource, Options);
  ASSERT_TRUE(Baseline.ok());

  Interpreter InstrInterp(*Pass1.M);
  InstrInterp.setInput("xyzz");
  RunResult Instrumented = InstrInterp.run();
  Interpreter BaseInterp(*Baseline.M);
  BaseInterp.setInput("xyzz");
  RunResult Base = BaseInterp.run();
  EXPECT_GT(Instrumented.Counts.ProfileHooks, 0u);
  // Hooks never show up in the reported instruction counts.  (The counts
  // are not identical to the baseline build's because the instrumented
  // module skips final layout, but they must be close.)
  EXPECT_LT(Instrumented.Counts.TotalInsts,
            Base.Counts.TotalInsts + Instrumented.Counts.ProfileHooks);
}

TEST(DriverTest, ReorderingDisabledLeavesBaselineBehaviour) {
  // Empty training input: the while loop's head still runs once (EOF), so
  // use MinExecutions to force a no-op transformation, then check the
  // reordered build matches the baseline exactly.  Profile-guided layout
  // is disabled too — it runs even when no sequence is reordered (the
  // measured edge weights cover the whole CFG, not just sequences).
  CompileOptions Options;
  Options.Reorder.MinExecutions = UINT64_MAX;
  Options.Reorder.ProfileGuidedLayout = false;
  CompileResult Baseline = compileBaseline(SimpleSource, Options);
  CompileResult Result = compileWithReordering(SimpleSource, "x", Options);
  ASSERT_TRUE(Baseline.ok() && Result.ok());
  EXPECT_EQ(printModule(*Baseline.M), printModule(*Result.M));
}

TEST(DriverTest, EvaluationReportsConsistentMeasurements) {
  const Workload *W = findWorkload("grep");
  ASSERT_TRUE(W);
  CompileOptions Options;
  WorkloadEvaluation Eval =
      Evaluator()
          .evaluateWorkload(*W, Options, PredictorConfig::ultraSparc())
          .Eval;
  ASSERT_TRUE(Eval.ok()) << Eval.Error;
  EXPECT_TRUE(Eval.OutputsMatch);
  EXPECT_GT(Eval.Baseline.Counts.TotalInsts, 0u);
  EXPECT_GT(Eval.Baseline.CodeSize, 0u);
  EXPECT_LT(Eval.Reordered.Counts.TotalInsts,
            Eval.Baseline.Counts.TotalInsts);
  EXPECT_GE(Eval.Baseline.CyclesUltra, Eval.Baseline.CyclesIPC);
  EXPECT_EQ(WorkloadEvaluation::deltaPercent(100, 90), -10.0);
  EXPECT_EQ(WorkloadEvaluation::deltaPercent(0, 5), 0.0);
}

TEST(DriverTest, MultipleTrainingSetsCoverMoreSequences) {
  // Paper §9: "Using multiple sets of profile data to provide better test
  // coverage would increase this percentage" (of reordered sequences).
  // One guarded classifier only runs when the first byte is 'x'; training
  // set A never triggers it, set B does.
  const char *Source = R"(
    int a = 0; int b = 0; int d = 0; int e = 0;
    int main() {
      int mode = getchar();
      int c;
      while ((c = getchar()) != -1) {
        if (mode == 'x') {
          if (c == '1') a = a + 1;
          else if (c == '2') b = b + 1;
        } else {
          if (c == '3') d = d + 1;
          else if (c == '4') e = e + 1;
        }
      }
      printint(a); printint(b); printint(d); printint(e);
      return 0;
    }
  )";
  CompileOptions Options;
  CompileResult OneSet =
      compileWithReordering(Source, "y3434123", Options);
  ASSERT_TRUE(OneSet.ok()) << OneSet.Error;
  CompileResult TwoSets = compileWithReordering(
      Source, std::vector<std::string_view>{"y3434123", "x1212334"},
      Options);
  ASSERT_TRUE(TwoSets.ok()) << TwoSets.Error;
  EXPECT_GT(TwoSets.Stats.Reordered, OneSet.Stats.Reordered);
  EXPECT_EQ(TwoSets.Stats.NeverExecuted, 0u);
  EXPECT_GT(OneSet.Stats.NeverExecuted, 0u);
}

TEST(DriverTest, ProfileMergeSumsAndValidates) {
  ProfileDB A, B;
  A.registerSequence(ProfileKind::RangeBins, 0, "main", "sig0", 2);
  A.increment(0, 0, 3);
  B.registerSequence(ProfileKind::RangeBins, 0, "main", "sig0", 2);
  B.increment(0, 1, 4);
  B.registerSequence(ProfileKind::RangeBins, 1, "main", "sig1", 3);
  B.increment(1, 2, 7);
  EXPECT_TRUE(A.merge(B).clean());
  const ProfileEntry *S0 =
      A.lookupSequence(ProfileKind::RangeBins, "main", "sig0", 2, 0);
  ASSERT_TRUE(S0);
  EXPECT_EQ(S0->BinCounts, (std::vector<uint64_t>{3, 4}));
  const ProfileEntry *S1 =
      A.lookupSequence(ProfileKind::RangeBins, "main", "sig1", 3, 1);
  ASSERT_TRUE(S1);
  EXPECT_EQ(S1->BinCounts[2], 7u);

  // Signature mismatch refuses that record but keeps the rest.
  ProfileDB C;
  C.registerSequence(ProfileKind::RangeBins, 0, "main", "DIFFERENT", 2);
  C.increment(0, 0, 100);
  ProfileMergeStats Stats = A.merge(C);
  EXPECT_FALSE(Stats.clean());
  EXPECT_EQ(Stats.Skipped, 1u);
  EXPECT_EQ(A.lookupSequence(ProfileKind::RangeBins, "main", "sig0", 2, 0)
                ->BinCounts[0], 3u);
}

TEST(DriverTest, ProfileTextMatchesPass1Serialization) {
  CompileOptions Options;
  Options.Reorder.ProfileGuidedLayout = false;
  Pass1Result Pass1 = runPass1(SimpleSource, "xyxy", Options);
  CompileResult Full = compileWithReordering(SimpleSource, "xyxy", Options);
  ASSERT_TRUE(Pass1.ok() && Full.ok());
  EXPECT_EQ(Full.ProfileText, Pass1.Profile.serializeText());

  // With the (default-on) profile-guided layout, the exported profile is a
  // superset: the pass-1 records plus the measured edge weights.
  CompileOptions WithLayout;
  CompileResult Measured =
      compileWithReordering(SimpleSource, "xyxy", WithLayout);
  ASSERT_TRUE(Measured.ok()) << Measured.Error;
  EXPECT_NE(Measured.ProfileText.find(Pass1.Profile.serializeText()
                                          .substr(std::string(
                                                      "bropt-profile v2\n")
                                                      .size())),
            std::string::npos);
  EXPECT_NE(Measured.ProfileText.find("seq edges "), std::string::npos);
}

TEST(DriverTest, CompileWithSavedProfileMatchesTwoPass) {
  // Saving the pass-1 profile and replaying it through compileWithProfile
  // must reproduce the two-pass build exactly — the contract behind
  // `broptc --profile-out` / `--profile-in`.
  CompileOptions Options;
  CompileResult Full = compileWithReordering(SimpleSource, "xyxyzz", Options);
  ASSERT_TRUE(Full.ok()) << Full.Error;
  ProfileDB Saved;
  ASSERT_TRUE(Saved.deserialize(Full.ProfileText));
  CompileResult Replayed = compileWithProfile(SimpleSource, Saved, Options);
  ASSERT_TRUE(Replayed.ok()) << Replayed.Error;
  EXPECT_EQ(printModule(*Full.M), printModule(*Replayed.M));
  EXPECT_EQ(Replayed.Stats.Reordered, Full.Stats.Reordered);
}

TEST(DriverTest, StaleProfileIsDiagnosedSkip) {
  // A profile taken from a *different* program must not transform this
  // one: every record is rejected as missing or stale, never misapplied.
  CompileOptions Options;
  CompileResult Other = compileWithReordering(
      R"(
        int n = 0;
        int main() {
          int c;
          while ((c = getchar()) != -1)
            if (c == 'q') n = n + 1; else if (c == 'r') n = n + 2;
          printint(n);
          return 0;
        }
      )",
      "qqrr", Options);
  ASSERT_TRUE(Other.ok()) << Other.Error;
  ProfileDB Stale;
  ASSERT_TRUE(Stale.deserialize(Other.ProfileText));

  CompileResult Result = compileWithProfile(SimpleSource, Stale, Options);
  ASSERT_TRUE(Result.ok()) << Result.Error;
  EXPECT_EQ(Result.Stats.Reordered, 0u);
  EXPECT_EQ(Result.Stats.ProfileProblems, Result.Stats.Detected);
  CompileResult Baseline = compileBaseline(SimpleSource, Options);
  ASSERT_TRUE(Baseline.ok());
  EXPECT_EQ(printModule(*Result.M), printModule(*Baseline.M));
}

} // namespace
