//===- tests/profile/mispredict_profile_test.cpp - Misprediction plane ----===//
//
// Proof obligations of the fifth profile plane
// (profile/MispredictProfile.h):
//
//  1. Export/import round-trips through both serialized formats: the
//     summary read back from a deserialized store equals the one read
//     from the original, for text and binary alike.
//  2. merge() sums matching records element-wise — (miss, taken,
//     executions) triples from split training runs accumulate — and
//     reports records measured under a different predictor as conflicts
//     instead of mixing incomparable counts.
//  3. Staleness is all-or-nothing per function: a different predictor
//     name, a changed branch count, or a vanished function drops the
//     record whole and is counted, never partially applied.
//  4. quality() calibrates measured misses against the minority-direction
//     baseline with the documented neutral and clamp behaviour.
//  5. The driver wires the plane end-to-end: a predictor-targeted pass 1
//     exports it into the profile that crosses the pass boundary, and an
//     unknown predictor name is a diagnosed error.
//
//===----------------------------------------------------------------------===//

#include "profile/MispredictProfile.h"

#include "driver/Driver.h"
#include "predict/Zoo.h"
#include "profile/ProfileDB.h"
#include "sim/Interpreter.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

using namespace bropt;

namespace {

const char *BranchySource = R"(
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

/// Compiles the branchy program, runs it on \p Input under a fresh
/// recording predictor named \p PredictorName, and exports the measured
/// plane into \p DB.  \returns the module the ids were measured against.
std::unique_ptr<Module> measureInto(ProfileDB &DB, const char *PredictorName,
                                    std::string_view Input,
                                    const char *Source = BranchySource) {
  CompileResult Result = compileBaseline(Source, {});
  EXPECT_TRUE(Result.ok()) << Result.Error;
  if (!Result.ok())
    return nullptr;
  std::unique_ptr<Predictor> P = makePredictor(PredictorName);
  EXPECT_NE(P, nullptr);
  P->enableBranchRecords();
  Interpreter Interp(*Result.M);
  Interp.attachPredictor(P.get());
  Interp.setInput(Input);
  RunResult Run = Interp.run();
  EXPECT_FALSE(Run.Trapped) << Run.TrapReason;
  EXPECT_GT(P->getStats().Branches, 0u);
  exportMispredictProfile(*Result.M, *P, DB);
  return std::move(Result.M);
}

bool summariesEqual(const MispredictSummary &A, const MispredictSummary &B) {
  return A.Functions == B.Functions && A.Executions == B.Executions &&
         A.Mispredictions == B.Mispredictions &&
         A.MinorityMass == B.MinorityMass;
}

TEST(MispredictProfileTest, RoundTripsThroughTextAndBinary) {
  ProfileDB DB;
  std::unique_ptr<Module> M = measureInto(DB, "paper", "xxyyzzxyxyzq");
  ASSERT_NE(M, nullptr);
  MispredictSummary Original = importMispredictProfile(DB, *M, "paper");
  ASSERT_FALSE(Original.empty());
  EXPECT_GT(Original.Executions, 0u);

  for (bool Binary : {false, true}) {
    std::string Data = Binary ? DB.serializeBinary() : DB.serializeText();
    ProfileDB Loaded;
    std::string Error;
    ASSERT_TRUE(Loaded.deserialize(Data, &Error))
        << (Binary ? "binary: " : "text: ") << Error;
    MispredictSummary Reloaded = importMispredictProfile(Loaded, *M, "paper");
    EXPECT_TRUE(summariesEqual(Original, Reloaded))
        << (Binary ? "binary" : "text");
  }
  // The plane is visible in the version-2 text format under its own kind.
  EXPECT_NE(DB.serializeText().find("mispred"), std::string::npos);
}

TEST(MispredictProfileTest, MergeSumsSplitTrainingRuns) {
  ProfileDB First, Second;
  std::unique_ptr<Module> M = measureInto(First, "paper", "xxxyyzz");
  ASSERT_NE(M, nullptr);
  ASSERT_NE(measureInto(Second, "paper", "zzzqqyx"), nullptr);
  MispredictSummary A = importMispredictProfile(First, *M, "paper");
  MispredictSummary B = importMispredictProfile(Second, *M, "paper");

  ProfileMergeStats Stats = First.merge(Second);
  EXPECT_TRUE(Stats.clean());
  EXPECT_GT(Stats.Merged, 0u);
  MispredictSummary Merged = importMispredictProfile(First, *M, "paper");
  EXPECT_EQ(Merged.Executions, A.Executions + B.Executions);
  EXPECT_EQ(Merged.Mispredictions, A.Mispredictions + B.Mispredictions);
}

TEST(MispredictProfileTest, MergeRefusesMixedPredictors) {
  // Counts measured under different predictors are incomparable; their
  // signatures differ, so the merge must report a conflict, not sum them.
  ProfileDB Paper, Gshare;
  ASSERT_NE(measureInto(Paper, "paper", "xxyyzz"), nullptr);
  ASSERT_NE(measureInto(Gshare, "gshare", "xxyyzz"), nullptr);
  ProfileMergeStats Stats = Paper.merge(Gshare);
  EXPECT_FALSE(Stats.clean());
  EXPECT_GT(Stats.Skipped, 0u);
  ASSERT_FALSE(Stats.Conflicts.empty());
}

TEST(MispredictProfileTest, WrongPredictorNameIsStale) {
  ProfileDB DB;
  std::unique_ptr<Module> M = measureInto(DB, "paper", "xyzxyz");
  ASSERT_NE(M, nullptr);
  unsigned Stale = 0;
  MispredictSummary Summary =
      importMispredictProfile(DB, *M, "tage", &Stale);
  EXPECT_TRUE(Summary.empty());
  EXPECT_GT(Stale, 0u);
}

TEST(MispredictProfileTest, ChangedBranchCountIsStale) {
  ProfileDB DB;
  ASSERT_NE(measureInto(DB, "paper", "xyzxyz"), nullptr);
  // The same function name with a different branch shape: the signature's
  // branch count no longer matches, so the whole record is dropped.
  const char *Reshaped = R"(
    int a = 0;
    int main() {
      int c;
      while ((c = getchar()) != -1)
        if (c == 'x') a = a + 1;
      printint(a);
      return 0;
    }
  )";
  CompileResult Result = compileBaseline(Reshaped, {});
  ASSERT_TRUE(Result.ok()) << Result.Error;
  unsigned Stale = 0;
  MispredictSummary Summary =
      importMispredictProfile(DB, *Result.M, "paper", &Stale);
  EXPECT_TRUE(Summary.empty());
  EXPECT_GT(Stale, 0u);
}

TEST(MispredictProfileTest, VanishedFunctionIsStale) {
  ProfileDB DB;
  std::unique_ptr<Module> M = measureInto(DB, "paper", "xyzxyz");
  ASSERT_NE(M, nullptr);
  MispredictSummary Live = importMispredictProfile(DB, *M, "paper");
  // A record for a function this module does not have counts as stale but
  // must not disturb the live records.
  DB.upsertEntry(ProfileKind::Misprediction, "helper", "paper:2",
                 /*Ordinal=*/0, /*NumBins=*/6);
  unsigned Stale = 0;
  MispredictSummary Summary =
      importMispredictProfile(DB, *M, "paper", &Stale);
  EXPECT_TRUE(summariesEqual(Live, Summary));
  EXPECT_EQ(Stale, 1u);
}

TEST(MispredictProfileTest, QualityCalibratesAgainstMinorityBaseline) {
  MispredictSummary S;
  EXPECT_DOUBLE_EQ(S.quality(), 1.0); // no data: neutral

  S.Functions = 1;
  S.Executions = 100;
  S.MinorityMass = 0; // perfectly biased program: nothing to calibrate on
  S.Mispredictions = 3;
  EXPECT_DOUBLE_EQ(S.quality(), 1.0);

  S.MinorityMass = 50;
  S.Mispredictions = 50; // exactly the saturating-counter baseline
  EXPECT_DOUBLE_EQ(S.quality(), 1.0);
  S.Mispredictions = 5; // history predictor learning the patterns
  EXPECT_DOUBLE_EQ(S.quality(), 0.1);
  S.Mispredictions = 1000; // losing to aliasing; clamps
  EXPECT_DOUBLE_EQ(S.quality(), 4.0);
}

TEST(MispredictProfileTest, DriverExportsThePlaneAcrossThePassBoundary) {
  CompileOptions Options;
  Options.HeuristicSet = SwitchHeuristicSet::SetIV;
  Options.Predictor = "paper";
  Pass1Result Pass1 = runPass1(BranchySource, "xxyyzxq", Options);
  ASSERT_TRUE(Pass1.ok()) << Pass1.Error;
  MispredictSummary Summary =
      importMispredictProfile(Pass1.Profile, *Pass1.M, "paper");
  EXPECT_FALSE(Summary.empty());
  EXPECT_GT(Summary.Executions, 0u);

  // The full two-pass pipeline carries it in the serialized profile.
  CompileResult Result =
      compileWithReordering(BranchySource, "xxyyzxq", Options);
  ASSERT_TRUE(Result.ok()) << Result.Error;
  EXPECT_NE(Result.ProfileText.find("mispred"), std::string::npos);
}

TEST(MispredictProfileTest, UnknownPredictorIsADiagnosedError) {
  CompileOptions Options;
  Options.Predictor = "oracle";
  CompileResult Result = compileWithReordering(BranchySource, "x", Options);
  EXPECT_FALSE(Result.ok());
  EXPECT_NE(Result.Error.find("unknown predictor"), std::string::npos);
}

} // namespace
