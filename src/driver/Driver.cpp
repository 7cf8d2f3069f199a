//===- driver/Driver.cpp - The two-pass compilation pipeline --------------===//

#include "driver/Driver.h"

#include "core/Instrumentation.h"
#include "exec/ExecBackend.h"
#include "ir/Verifier.h"
#include "lang/Lowering.h"
#include "opt/Passes.h"
#include "predict/Zoo.h"
#include "profile/MispredictProfile.h"
#include "sim/Interpreter.h"

#include <unordered_set>

using namespace bropt;

/// Set IV is a driver-level preset: the Set III shape classification (in
/// opt/SwitchLowering) plus optimal-tree lowering and method selection in
/// the reordering pass (docs/LOWERING.md).  Targeting a predictor arms the
/// cost model's mispredict charge; its quality is calibrated separately
/// from the imported Misprediction plane (compileWithProfile).
ReorderOptions bropt::effectiveReorderOptions(const CompileOptions &Options) {
  ReorderOptions Reorder = Options.Reorder;
  if (Options.HeuristicSet == SwitchHeuristicSet::SetIV) {
    Reorder.UseOptimalTree = true;
    Reorder.EnableMethodSelection = true;
  }
  if (!Options.Predictor.empty() &&
      Reorder.Cost.MispredictPenalty == 0.0)
    Reorder.Cost.MispredictPenalty = DefaultMispredictPenalty;
  return Reorder;
}

namespace {

/// Front end + switch lowering + conventional optimizations; the common
/// prefix of every build.  \returns null and fills \p Error on failure.
std::unique_ptr<Module> compileCommon(std::string_view Source,
                                      const CompileOptions &Options,
                                      SwitchLoweringStats *SwitchStats,
                                      std::string &Error) {
  std::unique_ptr<Module> M = compileSource(Source, &Error);
  if (!M)
    return nullptr;
  lowerSwitches(*M, Options.HeuristicSet, SwitchStats);
  // Conventional optimizations only: final code layout (repositioning)
  // happens after detection/reordering, because its trampoline blocks and
  // branch inversions would obscure the common-successor structure the
  // detector looks for.  This mirrors the paper: reordering runs after all
  // optimizations except delay-slot filling, and repositioning/chaining
  // are reinvoked afterwards (paper §8).
  for (auto &F : *M)
    runCleanupPipeline(*F);
  std::string VerifyErrors;
  if (!verifyModule(*M, &VerifyErrors)) {
    Error = "internal error: IR verification failed after optimization:\n" +
            VerifyErrors;
    return nullptr;
  }
  return M;
}

/// The common-successor sequences of \p M, numbered after the range
/// sequences \p Claimed and kept off their blocks: a block joins at most
/// one transformation.
std::vector<CommonSuccessorSequence>
detectUnclaimedCommonSequences(Module &M,
                               const std::vector<RangeSequence> &Claimed) {
  std::unordered_set<const BasicBlock *> ClaimedBlocks;
  for (const RangeSequence &Seq : Claimed)
    for (const RangeConditionDesc &Cond : Seq.Conds)
      for (const BasicBlock *Block : Cond.Blocks)
        ClaimedBlocks.insert(Block);
  return detectCommonSuccessorSequences(
      M, static_cast<unsigned>(Claimed.size()), ClaimedBlocks);
}

} // namespace

CompileResult bropt::compileBaseline(std::string_view Source,
                                     const CompileOptions &Options) {
  CompileResult Result;
  Result.M = compileCommon(Source, Options, &Result.SwitchStats,
                           Result.Error);
  if (Result.M)
    optimizeModule(*Result.M);
  return Result;
}

Pass1Result bropt::runPass1(std::string_view Source,
                            std::string_view TrainingInput,
                            const CompileOptions &Options) {
  return runPass1(Source, std::vector<std::string_view>{TrainingInput},
                  Options);
}

Pass1Result
bropt::runPass1(std::string_view Source,
                const std::vector<std::string_view> &TrainingInputs,
                const CompileOptions &Options) {
  Pass1Result Result;
  Result.M =
      compileCommon(Source, Options, &Result.SwitchStats, Result.Error);
  if (!Result.M)
    return Result;

  Result.Sequences = detectSequences(*Result.M);
  ProfileBinner Binner;
  instrumentSequences(Result.Sequences, Result.Profile, Binner);
  if (Options.EnableCommonSuccessorReordering) {
    Result.CommonSequences =
        detectUnclaimedCommonSequences(*Result.M, Result.Sequences);
    instrumentCommonSuccessorSequences(Result.CommonSequences,
                                       Result.Profile);
  }

  // One run per training data set; the counters simply accumulate, which
  // is equivalent to merging the per-set profiles.
  Interpreter Interp(*Result.M);
  Interp.setProfileCallback(Binner.callback(Result.Profile));
  if (Options.EnableCommonSuccessorReordering) {
    ProfileDB *Profile = &Result.Profile;
    Interp.setComboProfileCallback([Profile](unsigned Id, int64_t Mask) {
      Profile->increment(Id, static_cast<size_t>(Mask));
    });
  }
  // Targeting a predictor: the training runs double as the misprediction
  // measurement.  Instrumentation adds no conditional branches, so branch
  // ids line up with the pass-2 module the plane is imported against.
  std::unique_ptr<Predictor> Measured;
  if (!Options.Predictor.empty()) {
    Measured = makePredictor(Options.Predictor);
    if (!Measured) {
      Result.Error = "unknown predictor '" + Options.Predictor +
                     "' (see docs/PREDICT.md for the zoo)";
      return Result;
    }
    Measured->enableBranchRecords();
    Interp.attachPredictor(Measured.get());
  }
  for (std::string_view TrainingInput : TrainingInputs) {
    Interp.setInput(TrainingInput);
    RunResult Run = Interp.run();
    if (Run.Trapped) {
      Result.Error = "training run trapped: " + Run.TrapReason;
      return Result;
    }
  }
  if (Measured)
    exportMispredictProfile(*Result.M, *Measured, Result.Profile);
  return Result;
}

CompileResult bropt::compileWithReordering(std::string_view Source,
                                           std::string_view TrainingInput,
                                           const CompileOptions &Options) {
  return compileWithReordering(
      Source, std::vector<std::string_view>{TrainingInput}, Options);
}

CompileResult bropt::compileWithReordering(
    std::string_view Source,
    const std::vector<std::string_view> &TrainingInputs,
    const CompileOptions &Options) {
  CompileResult Result;

  // Pass 1: instrumented build + training runs.
  Pass1Result Pass1 = runPass1(Source, TrainingInputs, Options);
  if (!Pass1.ok()) {
    Result.Error = Pass1.Error;
    return Result;
  }
  Result.ProfileText = Pass1.Profile.serializeText();

  // The profile crosses the pass boundary in serialized form, exactly like
  // the on-disk profile file of the paper's tooling.
  ProfileDB Profile;
  std::string ProfileError;
  if (!Profile.deserialize(Result.ProfileText, &ProfileError)) {
    Result.Error =
        "internal error: profile round-trip failed: " + ProfileError;
    return Result;
  }

  CompileResult Pass2 = compileWithProfile(Source, Profile, Options);
  Pass2.ProfileText = std::move(Result.ProfileText);

  // The pass-1 profile has no edge records, so compileWithProfile kept the
  // hot-first layout.  Measure real edge traffic by running the finished
  // binary on the training inputs, lay it out ext-TSP style from those
  // weights, and export them into the profile so `--profile-out` captures
  // the full measurement (a later --profile-in compile reproduces this
  // layout without re-running the training inputs).
  applyMeasuredLayout(Pass2, TrainingInputs, Profile, Options);
  return Pass2;
}

bool bropt::applyMeasuredLayout(CompileResult &Result,
                                const std::vector<std::string_view> &Inputs,
                                ProfileDB &Profile,
                                const CompileOptions &Options) {
  if (!Result.ok() ||
      !effectiveReorderOptions(Options).ProfileGuidedLayout)
    return false;
  std::vector<std::string> Copies(Inputs.begin(), Inputs.end());
  ModuleEdgeWeights Weights = collectEdgeWeights(*Result.M, Copies);
  applyProfileGuidedLayout(*Result.M, Weights, &Result.Stats.Layout);
  exportEdgeWeights(Weights, Profile);
  Result.ProfileText = Profile.serializeText();
  std::string VerifyErrors;
  if (!verifyModule(*Result.M, &VerifyErrors)) {
    Result.Error =
        "internal error: IR verification failed after layout:\n" +
        VerifyErrors;
    Result.M.reset();
    return false;
  }
  return true;
}

CompileResult bropt::compileWithProfile(std::string_view Source,
                                        const ProfileDB &Profile,
                                        const CompileOptions &Options) {
  CompileResult Result;

  // Pass 2: fresh compilation; detection re-derives the same sequences,
  // whose (function, ordinal) keys the profile's records are matched by.
  Result.M = compileCommon(Source, Options, &Result.SwitchStats,
                           Result.Error);
  if (!Result.M)
    return Result;
  ReorderOptions Reorder = effectiveReorderOptions(Options);
  if (!Options.Predictor.empty()) {
    // Calibrate the mispredict charge against what the targeted predictor
    // actually did on the training runs.  A profile without the plane (or
    // a stale one) keeps the neutral quality 1.0 — the saturating-counter
    // baseline — so selection degrades gracefully, never wrongly.
    MispredictSummary Summary =
        importMispredictProfile(Profile, *Result.M, Options.Predictor);
    Reorder.Cost.PredictorQuality = Summary.quality();
  }
  std::vector<RangeSequence> Sequences = detectSequences(*Result.M);
  if (!Options.EnableCommonSuccessorReordering) {
    Result.Stats =
        reorderSequences(*Result.M, Sequences, Profile, Reorder);
  } else {
    // Both transformations must run before any clean-up pass: clean-up
    // erases the unreachable original blocks the descriptors point into.
    std::vector<CommonSuccessorSequence> CommonSequences =
        detectUnclaimedCommonSequences(*Result.M, Sequences);
    // Common-successor chains first: the range transformation may
    // duplicate code *into* its exit edges (Figure 10c/d), and it must
    // duplicate the already-reordered chain, not the stale one.
    Result.CommonStats = reorderCommonSuccessorSequences(
        CommonSequences, Profile, Reorder.MinExecutions);
    SequenceKeyer Keyer;
    for (const RangeSequence &Seq : Sequences)
      reorderSequence(Seq, Profile, Reorder, &Result.Stats,
                      Keyer.next(ProfileKind::RangeBins, Seq.F->getName()));
  }
  optimizeModule(*Result.M);

  // Profile-guided layout: when the profile carries measured edge weights
  // (exported by a prior compileWithReordering or `broptc --profile-out`),
  // replace the hot-first layout with the ext-TSP one.  Import validates
  // every edge against this module's CFG, so a stale profile degrades to
  // keeping the heuristic layout, never to a wrong one.
  if (Reorder.ProfileGuidedLayout) {
    ModuleEdgeWeights Weights = importEdgeWeights(Profile, *Result.M);
    if (!Weights.empty())
      applyProfileGuidedLayout(*Result.M, Weights, &Result.Stats.Layout);
  }

  std::string VerifyErrors;
  if (!verifyModule(*Result.M, &VerifyErrors)) {
    Result.Error =
        "internal error: IR verification failed after reordering:\n" +
        VerifyErrors;
    Result.M.reset();
  }
  return Result;
}
