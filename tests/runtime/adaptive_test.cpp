//===- tests/runtime/adaptive_test.cpp - Adaptive-runtime tests -----------===//
//
// The adaptive controller (runtime/AdaptiveController.h) must be invisible
// to every observable: tiering up, hot-swapping mid-run, and re-optimizing
// on drift may change *when* work happens but never what the program
// computes, counts, predicts, prints, or traps on.  These tests hold the
// adaptive engine to bit-identical agreement with the tree walker across
// workloads, instruction limits and repeated runs on one controller, and
// pin down the supporting pieces — safe-point translation, drift
// detection, sampled hotness — in isolation.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "ir/IRBuilder.h"
#include "predict/BranchPredictor.h"
#include "runtime/AdaptiveController.h"
#include "runtime/DriftDetector.h"
#include "runtime/HotnessSampler.h"
#include "runtime/SwapPoint.h"
#include "sim/Fuse.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>
#include <optional>
#include <thread>

using namespace bropt;

namespace {

/// Aggressive tiering knobs: small inputs must tier up, swap, and drift
/// within one run.
RuntimeOptions aggressiveOptions() {
  RuntimeOptions Opts;
  Opts.HotThreshold = 64;
  Opts.SampleInterval = 4;
  Opts.DriftWindow = 16;
  Opts.MinSamplesBetweenRecompiles = 32;
  return Opts;
}

RunResult runTree(const Module &M, std::string_view Input,
                  bool WithPredictor = false, uint64_t Limit = 0) {
  Interpreter Interp(M, Interpreter::Mode::Tree);
  Interp.setInput(Input);
  std::optional<BranchPredictor> Predictor;
  if (WithPredictor) {
    Predictor.emplace(PredictorConfig::ultraSparc());
    Interp.attachPredictor(&*Predictor);
  }
  if (Limit)
    Interp.setInstructionLimit(Limit);
  return Interp.run();
}

RunResult runAdaptive(const Module &M, AdaptiveController &Controller,
                      std::string_view Input, bool WithPredictor = false,
                      uint64_t Limit = 0) {
  Interpreter Interp(M, Interpreter::Mode::Adaptive);
  Controller.attach(Interp);
  Interp.setInput(Input);
  std::optional<BranchPredictor> Predictor;
  if (WithPredictor) {
    Predictor.emplace(PredictorConfig::ultraSparc());
    Interp.attachPredictor(&*Predictor);
  }
  if (Limit)
    Interp.setInstructionLimit(Limit);
  return Interp.run();
}

void expectSameObservables(const RunResult &Tree, const RunResult &Other) {
  EXPECT_EQ(Tree.Trapped, Other.Trapped);
  EXPECT_EQ(Tree.TrapReason, Other.TrapReason);
  EXPECT_EQ(Tree.ExitValue, Other.ExitValue);
  EXPECT_EQ(Tree.Output, Other.Output);
  EXPECT_EQ(Tree.Counts.TotalInsts, Other.Counts.TotalInsts);
  EXPECT_EQ(Tree.Counts.CondBranches, Other.Counts.CondBranches);
  EXPECT_EQ(Tree.Counts.TakenBranches, Other.Counts.TakenBranches);
  EXPECT_EQ(Tree.Counts.UncondJumps, Other.Counts.UncondJumps);
  EXPECT_EQ(Tree.Counts.IndirectJumps, Other.Counts.IndirectJumps);
  EXPECT_EQ(Tree.Counts.Compares, Other.Counts.Compares);
  EXPECT_EQ(Tree.Counts.Loads, Other.Counts.Loads);
  EXPECT_EQ(Tree.Counts.Stores, Other.Counts.Stores);
  EXPECT_EQ(Tree.Counts.Calls, Other.Counts.Calls);
  EXPECT_EQ(Tree.Counts.ProfileHooks, Other.Counts.ProfileHooks);
  EXPECT_EQ(Tree.Prediction.Branches, Other.Prediction.Branches);
  EXPECT_EQ(Tree.Prediction.Mispredictions, Other.Prediction.Mispredictions);
}

/// Range-classifier loop: a three-arm ladder on the input byte, hot enough
/// to tier up under aggressiveOptions() for inputs of a few hundred bytes.
const char *ClassifierSource = R"(
int digits = 0;
int upper = 0;
int lower = 0;
int main() {
  int c;
  while ((c = getchar()) != -1) {
    if (c < 58) { digits = digits + 1; }
    else if (c < 91) { upper = upper + 1; }
    else if (c < 123) { lower = lower + 1; }
    else { lower = lower; }
  }
  printint(digits);
  printint(upper);
  printint(lower);
  return digits + upper * 2 + lower * 3;
}
)";

/// An input whose byte distribution flips abruptly halfway through: the
/// first half is digit-heavy, the second letter-heavy.  Long enough to
/// close many drift windows on both sides of the shift.
std::string phaseShiftInput(size_t HalfLength = 4096) {
  std::string Input;
  for (size_t Index = 0; Index < HalfLength; ++Index)
    Input += static_cast<char>('0' + Index % 10);
  for (size_t Index = 0; Index < HalfLength; ++Index)
    Input += static_cast<char>('a' + Index % 26);
  return Input;
}

Module &compileClassifier(CompileResult &Keep) {
  Keep = compileBaseline(ClassifierSource, CompileOptions());
  EXPECT_TRUE(Keep.ok()) << Keep.Error;
  return *Keep.M;
}

TEST(AdaptiveRuntimeTest, FullTieringLoopStaysBitIdentical) {
  // The headline invariant: a run that tiers up, swaps mid-activation, and
  // re-optimizes on drift matches the tree walker on every observable —
  // and all of those events must actually happen, or this test proves
  // nothing.
  CompileResult Keep;
  Module &M = compileClassifier(Keep);
  std::string Input = phaseShiftInput();
  RunResult Tree = runTree(M, Input, /*WithPredictor=*/true);

  AdaptiveController Controller(M, aggressiveOptions());
  RunResult Adaptive =
      runAdaptive(M, Controller, Input, /*WithPredictor=*/true);
  expectSameObservables(Tree, Adaptive);

  RuntimeStats Stats = Controller.stats();
  EXPECT_TRUE(Controller.tiered());
  EXPECT_GT(Stats.SamplesTaken, 0u);
  EXPECT_GT(Stats.TierUps, 0u);
  EXPECT_GT(Stats.Swaps, 0u) << "no activation ever migrated";
  EXPECT_GT(Stats.DriftEvents, 0u) << "phase shift went undetected";
  EXPECT_GE(Stats.Recompiles, 2u) << "drift never triggered a rebuild";
  EXPECT_GT(Stats.SamplesAtFirstSwap, 0u);
  EXPECT_LE(Stats.Recompiles, Controller.options().MaxRecompiles);
}

TEST(AdaptiveRuntimeTest, AgreesWithEveryEngineOnAllWorkloads) {
  // Whole-corpus agreement, mirroring decoded_test for the fourth engine.
  // A fresh controller per workload; knobs aggressive enough that at least
  // one workload tiers mid-run.
  uint64_t TotalSwaps = 0;
  for (const Workload &W : standardWorkloads()) {
    SCOPED_TRACE(W.Name);
    CompileResult Baseline = compileBaseline(W.Source, CompileOptions());
    ASSERT_TRUE(Baseline.ok()) << Baseline.Error;
    RunResult Tree = runTree(*Baseline.M, W.TestInput, true);
    AdaptiveController Controller(*Baseline.M, aggressiveOptions());
    RunResult Adaptive =
        runAdaptive(*Baseline.M, Controller, W.TestInput, true);
    expectSameObservables(Tree, Adaptive);
    TotalSwaps += Controller.stats().Swaps;
  }
  EXPECT_GT(TotalSwaps, 0u) << "no workload exercised the swap path";
}

TEST(AdaptiveRuntimeTest, ReorderedModulesAgreeToo) {
  // The adaptive runtime must also sit cleanly on top of pass-2 output,
  // where the static reorderer has already rewritten the sequences the
  // live profiler will re-detect.
  for (const Workload &W : standardWorkloads()) {
    SCOPED_TRACE(W.Name);
    CompileResult Reordered =
        compileWithReordering(W.Source, W.TrainingInput, CompileOptions());
    ASSERT_TRUE(Reordered.ok()) << Reordered.Error;
    RunResult Tree = runTree(*Reordered.M, W.TestInput, true);
    AdaptiveController Controller(*Reordered.M, aggressiveOptions());
    RunResult Adaptive =
        runAdaptive(*Reordered.M, Controller, W.TestInput, true);
    expectSameObservables(Tree, Adaptive);
  }
}

TEST(AdaptiveRuntimeTest, InstructionLimitSweepTrapsIdentically) {
  // Wherever the limit lands — before tier-up, at the swap itself, inside
  // a fused macro-op of the optimized version — the trap point and every
  // counter must match the tree walker.  A fresh controller per limit so
  // each run re-tiers from scratch.
  CompileResult Keep;
  Module &M = compileClassifier(Keep);
  std::string Input = phaseShiftInput(/*HalfLength=*/128);
  for (uint64_t Limit = 1; Limit <= 4001; Limit += 250) {
    SCOPED_TRACE(Limit);
    RunResult Tree = runTree(M, Input, false, Limit);
    AdaptiveController Controller(M, aggressiveOptions());
    RunResult Adaptive = runAdaptive(M, Controller, Input, false, Limit);
    expectSameObservables(Tree, Adaptive);
  }
}

TEST(AdaptiveRuntimeTest, ProfileStatePersistsAcrossRuns) {
  // One controller, two runs: the second starts already tiered (the
  // Evaluator's cache-hit path) and swaps at activation entry, not after
  // re-accumulating samples — and still matches the tree walker.
  CompileResult Keep;
  Module &M = compileClassifier(Keep);
  std::string Input = phaseShiftInput(/*HalfLength=*/512);
  RunResult Tree = runTree(M, Input);

  AdaptiveController Controller(M, aggressiveOptions());
  RunResult First = runAdaptive(M, Controller, Input);
  expectSameObservables(Tree, First);
  ASSERT_TRUE(Controller.tiered());
  uint64_t TierUpsAfterFirst = Controller.stats().TierUps;

  RunResult Second = runAdaptive(M, Controller, Input);
  expectSameObservables(Tree, Second);
  // Re-entry reuses the published version; the hot functions do not tier
  // up a second time.
  EXPECT_EQ(Controller.stats().TierUps, TierUpsAfterFirst);
  EXPECT_GT(Controller.stats().Swaps, 0u);
}

TEST(AdaptiveRuntimeTest, RecompileBudgetAndHysteresisBound) {
  // A long alternating-phase input generates drift events indefinitely;
  // the budget must cap the builds and hysteresis must suppress the rest
  // while behaviour stays identical.
  CompileResult Keep;
  Module &M = compileClassifier(Keep);
  std::string Input;
  for (int Phase = 0; Phase < 8; ++Phase)
    Input += phaseShiftInput(/*HalfLength=*/1024);

  RuntimeOptions Opts = aggressiveOptions();
  Opts.MaxRecompiles = 2;
  RunResult Tree = runTree(M, Input);
  AdaptiveController Controller(M, Opts);
  RunResult Adaptive = runAdaptive(M, Controller, Input);
  expectSameObservables(Tree, Adaptive);

  RuntimeStats Stats = Controller.stats();
  EXPECT_LE(Stats.Recompiles, 2u);
  EXPECT_GT(Stats.DriftEvents, Stats.Recompiles);
  EXPECT_GT(Stats.RecompilesSuppressed, 0u);
}

TEST(AdaptiveRuntimeTest, TraceReportsTieringEvents) {
  CompileResult Keep;
  Module &M = compileClassifier(Keep);
  RuntimeOptions Opts = aggressiveOptions();
  std::vector<std::string> Events;
  Opts.Trace = [&](const std::string &Event) { Events.push_back(Event); };
  AdaptiveController Controller(M, Opts);
  runAdaptive(M, Controller, phaseShiftInput());
  bool SawTierUp = false, SawSwap = false;
  for (const std::string &Event : Events) {
    SawTierUp |= Event.find("tier-up") != std::string::npos;
    SawSwap |= Event.find("swap") != std::string::npos;
  }
  EXPECT_TRUE(SawTierUp);
  EXPECT_TRUE(SawSwap);
}

TEST(AdaptiveRuntimeTest, FusedDecodesAndTierUpsShareOneModule) {
  // broptd's pair on one artifact: a fused execute builds the fused slot
  // (decodeFused with the build's profile) under the build lock while an
  // adaptive execute re-decodes the same module in runJob under the run
  // lock.  No lock is common to both, so decoding, and the sequence
  // detection inside it, must only read the module; ThreadSanitizer
  // builds report any write.
  const Workload *W = findWorkload("grep");
  ASSERT_NE(W, nullptr);
  CompileResult Keep =
      compileWithReordering(W->Source, W->TrainingInput, CompileOptions());
  ASSERT_TRUE(Keep.ok()) << Keep.Error;
  ProfileDB Profile;
  ASSERT_TRUE(Profile.deserialize(Keep.ProfileText));
  const Module &M = *Keep.M;
  const RunResult Tree = runTree(M, W->TestInput);

  RuntimeOptions Opts;
  Opts.HotThreshold = 64;
  Opts.SampleInterval = 1;
  Opts.MinSamplesBetweenRecompiles = 16;
  Opts.DriftWindow = 16;
  AdaptiveController Controller(M, Opts);

  constexpr int Decodes = 20;
  std::vector<RunResult> FusedRuns, AdaptiveRuns;
  std::thread Fuser([&] {
    FuseOptions FO;
    FO.Profile = &Profile;
    for (int I = 0; I < Decodes; ++I) {
      const DecodedModule DM = decodeFused(M, FO);
      Interpreter Interp(M, Interpreter::Mode::Fused);
      Interp.setPreparedProgram(&DM);
      Interp.setInput(W->TestInput);
      FusedRuns.push_back(Interp.run());
    }
  });
  std::thread Adaptive([&] {
    for (int I = 0; I < 4; ++I)
      AdaptiveRuns.push_back(runAdaptive(M, Controller, W->TestInput));
  });
  Fuser.join();
  Adaptive.join();

  for (const RunResult &Run : FusedRuns)
    expectSameObservables(Tree, Run);
  for (const RunResult &Run : AdaptiveRuns)
    expectSameObservables(Tree, Run);
  EXPECT_GE(Controller.stats().Recompiles, 2u)
      << "the adaptive runs never re-decoded the module";
}

//===----------------------------------------------------------------------===//
// Profile persistence: what the runtime learned replays offline
//===----------------------------------------------------------------------===//

TEST(AdaptiveProfileTest, ExportedProfileReplaysDeployedOrderings) {
  // The `--profile-out` contract: pass 2 fed the exported profile selects
  // exactly the orderings the live tier-up deployed — through both
  // serialized forms.
  CompileResult Keep;
  Module &M = compileClassifier(Keep);
  AdaptiveController Controller(M, aggressiveOptions());
  runAdaptive(M, Controller, phaseShiftInput());
  ASSERT_TRUE(Controller.tiered());

  ProfileDB Exported;
  Controller.exportProfile(Exported);
  EXPECT_GT(Exported.numSequences(), 0u);
  EXPECT_FALSE(Exported.hotness().empty());

  std::string Live = Controller.deployedOrderingSignature();
  ASSERT_FALSE(Live.empty());
  EXPECT_EQ(orderingSignaturesFromProfile(M, Exported), Live);

  ProfileDB FromText, FromBinary;
  ASSERT_TRUE(FromText.deserialize(Exported.serializeText()));
  ASSERT_TRUE(FromBinary.deserialize(Exported.serializeBinary()));
  EXPECT_EQ(orderingSignaturesFromProfile(M, FromText), Live);
  EXPECT_EQ(orderingSignaturesFromProfile(M, FromBinary), Live);
}

TEST(AdaptiveProfileTest, ImportWarmStartsAFreshController) {
  // The `--profile-in` contract: a fresh controller fed the saved profile
  // starts already tiered, on the same orderings, and stays bit-identical
  // to the tree walker.
  CompileResult Keep;
  Module &M = compileClassifier(Keep);
  std::string Input = phaseShiftInput();
  AdaptiveController First(M, aggressiveOptions());
  runAdaptive(M, First, Input);
  ASSERT_TRUE(First.tiered());
  ProfileDB Saved;
  First.exportProfile(Saved);

  AdaptiveController Second(M, aggressiveOptions());
  Second.importProfile(Saved);
  EXPECT_TRUE(Second.tiered());
  EXPECT_EQ(Second.deployedOrderingSignature(),
            First.deployedOrderingSignature());
  EXPECT_GT(Second.stats().TierUps, 0u);

  RunResult Tree = runTree(M, Input);
  RunResult Warm = runAdaptive(M, Second, Input);
  expectSameObservables(Tree, Warm);
}

TEST(AdaptiveProfileTest, StaleProfileSelectsNothingOnAnotherModule) {
  // Replaying a profile against a program it was not taken from must be a
  // diagnosed no-op: every record misses or is stale, never misapplied.
  CompileResult Keep;
  Module &M = compileClassifier(Keep);
  AdaptiveController Controller(M, aggressiveOptions());
  runAdaptive(M, Controller, phaseShiftInput());
  ASSERT_TRUE(Controller.tiered());
  ProfileDB Exported;
  Controller.exportProfile(Exported);

  CompileResult Other = compileBaseline(R"(
    int hits = 0;
    int main() {
      int c;
      while ((c = getchar()) != -1) {
        if (c == 'a') { hits = hits + 1; }
        else if (c == 'b') { hits = hits + 2; }
        else { hits = hits + 3; }
      }
      printint(hits);
      return 0;
    }
  )", CompileOptions());
  ASSERT_TRUE(Other.ok()) << Other.Error;
  EXPECT_TRUE(orderingSignaturesFromProfile(*Other.M, Exported).empty());
}

TEST(AdaptiveProfileTest, MergedExportsSumScaledCounts) {
  // Two sessions over the same module merge cleanly, with per-bin totals
  // equal to the sum of the parts (the repeatable `--profile-in` case).
  CompileResult Keep;
  Module &M = compileClassifier(Keep);
  ProfileDB A, B;
  {
    AdaptiveController Controller(M, aggressiveOptions());
    runAdaptive(M, Controller, phaseShiftInput(/*HalfLength=*/512));
    Controller.exportProfile(A);
  }
  {
    AdaptiveController Controller(M, aggressiveOptions());
    runAdaptive(M, Controller, std::string(2048, '7'));
    Controller.exportProfile(B);
  }
  ProfileDB Merged;
  ASSERT_TRUE(Merged.deserialize(A.serializeText()));
  ProfileMergeStats Stats = Merged.merge(B);
  EXPECT_TRUE(Stats.clean());
  ASSERT_EQ(Merged.numSequences(), A.numSequences());
  // Round-trip A and B so all three stores enumerate in canonical order.
  ProfileDB CanonA, CanonB;
  ASSERT_TRUE(CanonA.deserialize(A.serializeText()));
  ASSERT_TRUE(CanonB.deserialize(B.serializeText()));
  auto ItA = CanonA.begin(), ItB = CanonB.begin(), ItM = Merged.begin();
  for (; ItM != Merged.end(); ++ItA, ++ItB, ++ItM) {
    ASSERT_EQ(ItA->Signature, ItM->Signature);
    ASSERT_EQ(ItB->Signature, ItM->Signature);
    for (size_t Bin = 0; Bin < ItM->BinCounts.size(); ++Bin)
      EXPECT_EQ(ItM->BinCounts[Bin],
                ItA->BinCounts[Bin] + ItB->BinCounts[Bin]);
  }
}

TEST(HotnessSamplerTest, OutOfRangeSamplesAreCountedAsDropped) {
  // The observe() fix: samples the id space cannot attribute are counted
  // and surfaced (RuntimeStats::DroppedSamples), not silently discarded.
  HotnessSampler Sampler;
  Sampler.init(/*NumBranchIds=*/2, /*NumFunctions=*/1);
  Sampler.observe(0, 0, true);
  Sampler.observe(0, 5, true);  // unknown branch id
  Sampler.observe(9, 1, false); // unknown function index
  EXPECT_EQ(Sampler.DroppedSamples, 2u);
  // The known half of a partially-attributable sample is still recorded:
  // the known branch under an unknown function, the known function under
  // an unknown branch.
  EXPECT_EQ(Sampler.Hotness.Total[0], 1u);
  EXPECT_EQ(Sampler.Hotness.Total[1], 1u);
  EXPECT_EQ(Sampler.FuncSamples[0], 2u);
}

TEST(HotnessSamplerTest, HotnessSurvivesProfileRoundTrip) {
  CompileResult Keep;
  Module &M = compileClassifier(Keep);
  BranchHotness Hot = collectBranchHotness(M, std::string(128, '7'));
  ProfileDB DB;
  exportHotnessToProfile(M, Hot, DB);
  ProfileDB Loaded;
  ASSERT_TRUE(Loaded.deserialize(DB.serializeText()));
  BranchHotness Back;
  ASSERT_GT(importHotnessFromProfile(M, Loaded, Back), 0u);
  EXPECT_EQ(Back.Taken, Hot.Taken);
  EXPECT_EQ(Back.Total, Hot.Total);
}

TEST(HotnessSamplerTest, CollectBranchHotnessMeasuresBias) {
  // The loop-back branch of the classifier executes once per input byte
  // and exits once; with an all-digit input the first ladder arm is taken
  // every time.  Exact collection must see a heavily biased branch.
  CompileResult Keep;
  Module &M = compileClassifier(Keep);
  std::string Digits(256, '7');
  BranchHotness Hot = collectBranchHotness(M, Digits);
  ASSERT_FALSE(Hot.empty());
  uint64_t Observed = 0;
  bool AnyMostlyTaken = false;
  for (uint32_t Id = 0; Id < Hot.Total.size(); ++Id) {
    Observed += Hot.Total[Id];
    AnyMostlyTaken |= Hot.mostlyTaken(Id);
  }
  EXPECT_GT(Observed, Digits.size());
  EXPECT_TRUE(AnyMostlyTaken);

  // An instruction limit caps the measurement run.
  BranchHotness Capped = collectBranchHotness(M, Digits, /*Limit=*/64);
  uint64_t CappedObserved = 0;
  for (uint64_t Total : Capped.Total)
    CappedObserved += Total;
  EXPECT_LT(CappedObserved, Observed);
}

TEST(SwapPointTest, TranslatesBlockStartsAndRejectsSwallowedBlocks) {
  // Build the target version from a real module and check both directions
  // of the plain<->fused correspondence the controller relies on.
  CompileResult Keep;
  Module &M = compileClassifier(Keep);

  ProgramVersion To;
  To.DM = decodeFused(M, FuseOptions(), nullptr, &To.Map);
  To.buildReverseMap();
  ASSERT_EQ(To.Map.FusedIndexOf.size(), To.DM.size());

  size_t Translated = 0;
  for (uint32_t FuncIndex = 0; FuncIndex < To.Map.FusedIndexOf.size();
       ++FuncIndex) {
    for (auto [Plain, Fused] : To.Map.FusedIndexOf[FuncIndex]) {
      // Tier-0 coordinates (From == nullptr) are plain block starts.
      size_t NewIndex = ~size_t(0);
      ASSERT_TRUE(translateSwapPoint(nullptr, To, FuncIndex, Plain, NewIndex));
      EXPECT_EQ(NewIndex, Fused);
      EXPECT_LT(NewIndex, To.DM.function(FuncIndex).Insts.size());
      // And the same point round-trips through the version's own inverse.
      size_t Again = ~size_t(0);
      ASSERT_TRUE(translateSwapPoint(&To, To, FuncIndex, Fused, Again));
      EXPECT_EQ(Again, Fused);
      ++Translated;
    }
  }
  EXPECT_GT(Translated, 0u);

  // Chain fusion swallows ladder-interior blocks whole: the plain decode
  // has block starts with no image in the fused stream, and translation
  // must refuse them rather than guess.
  DecodedModule Plain = DecodedModule::decode(M);
  bool SawSwallowed = false;
  for (uint32_t FuncIndex = 0; FuncIndex < To.Map.FusedIndexOf.size();
       ++FuncIndex) {
    const auto &Starts = To.Map.FusedIndexOf[FuncIndex];
    size_t PlainSize = Plain.function(FuncIndex).Insts.size();
    for (size_t Index = 0; Index < PlainSize; ++Index) {
      if (Starts.count(static_cast<uint32_t>(Index)))
        continue;
      size_t NewIndex = 0;
      if (!translateSwapPoint(nullptr, To, FuncIndex, Index, NewIndex))
        SawSwallowed = true;
    }
  }
  EXPECT_TRUE(SawSwallowed);
}

TEST(DriftDetectorTest, FlagsDistributionShiftOnce) {
  DriftDetector Detector(/*NumBins=*/2, /*WindowSize=*/8, /*Threshold=*/0.35);
  // First window: all bin 0.  Closing it establishes the baseline but can
  // never flag (there is nothing to compare against).
  for (int Index = 0; Index < 8; ++Index)
    EXPECT_FALSE(Detector.observe(0));
  // Second window, same distribution: distance 0.
  for (int Index = 0; Index < 8; ++Index)
    EXPECT_FALSE(Detector.observe(0));
  EXPECT_DOUBLE_EQ(Detector.lastDistance(), 0.0);
  // Third window: everything moved to bin 1 — distance 1, flagged exactly
  // at the window boundary.
  for (int Index = 0; Index < 7; ++Index)
    EXPECT_FALSE(Detector.observe(1));
  EXPECT_TRUE(Detector.observe(1));
  EXPECT_DOUBLE_EQ(Detector.lastDistance(), 1.0);
  // Fourth window continues the new phase: no further flags.
  for (int Index = 0; Index < 8; ++Index)
    EXPECT_FALSE(Detector.observe(1));
}

TEST(DriftDetectorTest, SubThresholdShiftStaysQuiet) {
  DriftDetector Detector(/*NumBins=*/2, /*WindowSize=*/10, /*Threshold=*/0.35);
  for (int Index = 0; Index < 10; ++Index)
    Detector.observe(Index % 2);
  // 7/3 vs 5/5 is an L1 distance of 0.4, normalized 0.2 — under threshold.
  bool Flagged = false;
  for (int Index = 0; Index < 10; ++Index)
    Flagged |= Detector.observe(Index < 7 ? 0 : 1);
  EXPECT_FALSE(Flagged);
  EXPECT_NEAR(Detector.lastDistance(), 0.2, 1e-9);
}

} // namespace
