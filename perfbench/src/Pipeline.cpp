//===- perfbench/src/Pipeline.cpp - The driver's steps, one span each -----===//

#include "Pipeline.h"

#include "core/Instrumentation.h"
#include "exec/ExecBackend.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "lang/Lowering.h"
#include "opt/Passes.h"
#include "predict/Zoo.h"
#include "profile/MispredictProfile.h"

using namespace bropt;

namespace perfbench {

namespace {

bool verified(Tracer &T, const std::string &Id, const Module &M,
              std::string &Errors) {
  Scope S(T, "ir.verify", Id);
  return verifyModule(M, &Errors);
}

/// The driver's compileCommon: front end, switch lowering, clean-up.
std::unique_ptr<Module> tracedCommon(Tracer &T, const std::string &Id,
                                     std::string_view Source,
                                     const CompileOptions &Options,
                                     CompileResult &R) {
  std::unique_ptr<Module> M;
  {
    Scope S(T, "lang.front", Id);
    M = compileSource(Source, &R.Error);
  }
  if (!M)
    return nullptr;
  {
    Scope S(T, "opt.cleanup", Id);
    lowerSwitches(*M, Options.HeuristicSet, &R.SwitchStats);
    for (auto &F : *M)
      runCleanupPipeline(*F);
  }
  std::string Errors;
  if (!verified(T, Id, *M, Errors)) {
    R.Error = "internal error: IR verification failed after optimization:\n" +
              Errors;
    return nullptr;
  }
  return M;
}

/// compileWithProfile(Source, Profile, Options): pass 2.
CompileResult tracedCompileWithProfile(Tracer &T, const std::string &Id,
                                       std::string_view Source,
                                       const ProfileDB &Profile,
                                       const CompileOptions &Options) {
  CompileResult R;
  R.M = tracedCommon(T, Id, Source, Options, R);
  if (!R.M)
    return R;
  ReorderOptions Reorder = effectiveReorderOptions(Options);
  if (!Options.Predictor.empty()) {
    Scope S(T, "profile.load", Id);
    Reorder.Cost.PredictorQuality =
        importMispredictProfile(Profile, *R.M, Options.Predictor).quality();
  }
  std::vector<RangeSequence> Sequences;
  {
    Scope S(T, "core.detect", Id);
    Sequences = detectSequences(*R.M);
  }
  {
    Scope S(T, "core.reorder", Id);
    R.Stats = reorderSequences(*R.M, Sequences, Profile, Reorder);
  }
  {
    Scope S(T, "opt.finalize", Id);
    optimizeModule(*R.M);
  }
  if (Reorder.ProfileGuidedLayout) {
    ModuleEdgeWeights Weights;
    {
      Scope S(T, "profile.load", Id);
      Weights = importEdgeWeights(Profile, *R.M);
    }
    if (!Weights.empty()) {
      Scope S(T, "opt.layout", Id);
      applyProfileGuidedLayout(*R.M, Weights, &R.Stats.Layout);
    }
  }
  std::string Errors;
  if (!verified(T, Id, *R.M, Errors)) {
    R.Error = "internal error: IR verification failed after reordering:\n" +
              Errors;
    R.M.reset();
  }
  return R;
}

} // namespace

CompileResult
tracedCompileWithReordering(Tracer &T, const std::string &Id,
                            std::string_view Source,
                            const std::vector<std::string_view> &Training,
                            const CompileOptions &Options) {
  CompileResult Failed;
  if (Options.EnableCommonSuccessorReordering) {
    Failed.Error = "perfbench: common-successor reordering is not traced";
    return Failed;
  }

  // Pass 1: instrumented build, then the training runs.
  std::unique_ptr<Module> M = tracedCommon(T, Id, Source, Options, Failed);
  if (!M)
    return Failed;
  std::vector<RangeSequence> Sequences;
  {
    Scope S(T, "core.detect", Id);
    Sequences = detectSequences(*M);
  }
  ProfileDB Pass1Profile;
  ProfileBinner Binner;
  {
    Scope S(T, "core.instrument", Id);
    instrumentSequences(Sequences, Pass1Profile, Binner);
  }
  {
    Scope S(T, "sim.train", Id);
    Interpreter Interp(*M);
    Interp.setProfileCallback(Binner.callback(Pass1Profile));
    std::unique_ptr<Predictor> Measured;
    if (!Options.Predictor.empty()) {
      Measured = makePredictor(Options.Predictor);
      if (!Measured) {
        Failed.Error = "unknown predictor '" + Options.Predictor + "'";
        return Failed;
      }
      Measured->enableBranchRecords();
      Interp.attachPredictor(Measured.get());
    }
    for (std::string_view Input : Training) {
      Interp.setInput(Input);
      RunResult Run = Interp.run();
      if (Run.Trapped) {
        Failed.Error = "training run trapped: " + Run.TrapReason;
        return Failed;
      }
    }
    if (Measured)
      exportMispredictProfile(*M, *Measured, Pass1Profile);
  }

  // The profile crosses the pass boundary in serialized form.
  std::string ProfileText;
  ProfileDB Profile;
  {
    Scope S(T, "profile.roundtrip", Id);
    ProfileText = Pass1Profile.serializeText();
    std::string Error;
    if (!Profile.deserialize(ProfileText, &Error)) {
      Failed.Error = "internal error: profile round-trip failed: " + Error;
      return Failed;
    }
  }

  // Pass 2, then the measured ext-TSP layout (applyMeasuredLayout).
  CompileResult R = tracedCompileWithProfile(T, Id, Source, Profile, Options);
  R.ProfileText = std::move(ProfileText);
  if (!R.ok() || !effectiveReorderOptions(Options).ProfileGuidedLayout)
    return R;
  ModuleEdgeWeights Weights;
  {
    Scope S(T, "sim.edge_profile", Id);
    std::vector<std::string> Copies(Training.begin(), Training.end());
    Weights = collectEdgeWeights(*R.M, Copies);
  }
  {
    Scope S(T, "opt.layout", Id);
    applyProfileGuidedLayout(*R.M, Weights, &R.Stats.Layout);
  }
  {
    Scope S(T, "profile.roundtrip", Id);
    exportEdgeWeights(Weights, Profile);
    R.ProfileText = Profile.serializeText();
  }
  std::string Errors;
  if (!verified(T, Id, *R.M, Errors)) {
    R.Error = "internal error: IR verification failed after layout:\n" +
              Errors;
    R.M.reset();
  }
  return R;
}

std::string fingerprint(const CompileResult &R) {
  return (R.M ? printModule(*R.M) : "<no module: " + R.Error + ">") +
         "\n--- profile ---\n" + R.ProfileText;
}

} // namespace perfbench
