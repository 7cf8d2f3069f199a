//===- driver/Evaluator.cpp - Parallel cached workload evaluation ---------===//

#include "driver/Evaluator.h"

#include "predict/Zoo.h"
#include "support/Strings.h"

using namespace bropt;

namespace {

/// Stable textual signature of everything a baseline compile depends on.
std::string baselineKey(const Workload &W, const CompileOptions &Options) {
  return formatString("set=%d;src=", static_cast<int>(Options.HeuristicSet)) +
         W.Source;
}

/// Stable textual signature of everything a reordered compile depends on.
/// Every BranchCostModel field and the targeted predictor are part of the
/// key: two compiles differing only in cost calibration must never share a
/// cached module.
std::string reorderedKey(const Workload &W, const CompileOptions &Options) {
  const ReorderOptions &R = Options.Reorder;
  return formatString(
             "set=%d;cs=%d;dup=%d;f4=%d;ex=%d;min=%llu;ms=%d;tree=%d;pgl=%d;"
             "cmp=%g;takenx=%g;ijmp=%g;margin=%g;mp=%g;q=%g;",
             static_cast<int>(Options.HeuristicSet),
             Options.EnableCommonSuccessorReordering ? 1 : 0,
             R.DuplicateDefaultTarget ? 1 : 0, R.OrderFormFourBranches ? 1 : 0,
             R.UseExhaustiveSelection ? 1 : 0,
             static_cast<unsigned long long>(R.MinExecutions),
             R.EnableMethodSelection ? 1 : 0, R.UseOptimalTree ? 1 : 0,
             R.ProfileGuidedLayout ? 1 : 0,
             R.Cost.CompareCost, R.Cost.TakenBranchExtra,
             R.Cost.IndirectJumpCost, R.Cost.JumpTableMargin,
             R.Cost.MispredictPenalty, R.Cost.PredictorQuality) +
         "pred=" + Options.Predictor +
         formatString(";train=%zu;", W.TrainingInput.size()) +
         W.TrainingInput + ";src=" + W.Source;
}

} // namespace

Evaluator::Evaluator(EvaluatorOptions Options,
                     std::shared_ptr<ArtifactCache> Shared)
    : Options(Options), Pool(Options.Threads),
      Cache(Shared ? std::move(Shared)
                   : std::make_shared<ArtifactCache>(256)) {}

bool Evaluator::engineFor(Artifact &A, const ProfileDB *FuseProfile,
                          Engine &E, bool &Hit, std::string &Error) {
  std::lock_guard<std::mutex> Lock(A.BuildMutex);
  switch (Options.Mode) {
  case Interpreter::Mode::Tree:
    break;
  case Interpreter::Mode::Fused:
    E.Prepared = &A.fused(FuseProfile, Hit);
    break;
  case Interpreter::Mode::Adaptive:
    E.Controller = &A.controller(Options.Runtime, Hit);
    break;
  case Interpreter::Mode::Native: {
    std::string CompileError;
    E.Native = A.native(NativeRunner::shared(), CompileError, Hit);
    if (!E.Native) {
      Error = "native compile failed: " + CompileError;
      return false;
    }
    break;
  }
  }
  return true;
}

WorkloadRecord
Evaluator::evaluateWorkload(const Workload &W,
                            const CompileOptions &CompileOpts,
                            const std::optional<PredictorConfig> &Predictor) {
  WorkloadRecord Record;
  WorkloadEvaluation &Eval = Record.Eval;
  Eval.Name = W.Name;

  std::shared_ptr<Artifact> Baseline =
      Cache->lookup(baselineKey(W, CompileOpts), Record.BaselineCacheHit);
  {
    std::lock_guard<std::mutex> Lock(Baseline->BuildMutex);
    if (!Baseline->built())
      Baseline->setBuilt(compileBaseline(W.Source, CompileOpts));
  }
  if (!Baseline->compiled().ok()) {
    Eval.Error =
        W.Name + ": baseline compile failed: " + Baseline->compiled().Error;
    return Record;
  }
  std::shared_ptr<Artifact> Reordered =
      Cache->lookup(reorderedKey(W, CompileOpts), Record.ReorderedCacheHit);
  {
    std::lock_guard<std::mutex> Lock(Reordered->BuildMutex);
    if (!Reordered->built()) {
      CompileResult Result =
          compileWithReordering(W.Source, W.TrainingInput, CompileOpts);
      std::optional<ProfileDB> Profile;
      if (!Result.ProfileText.empty() &&
          !Profile.emplace().deserialize(Result.ProfileText))
        Profile.reset();
      Reordered->setBuilt(std::move(Result), std::move(Profile));
    }
  }
  const CompileResult &ReorderedBuild = Reordered->compiled();
  if (!ReorderedBuild.ok()) {
    Eval.Error =
        W.Name + ": reordering compile failed: " + ReorderedBuild.Error;
    return Record;
  }
  Eval.Stats = ReorderedBuild.Stats;
  Eval.SwitchStats = ReorderedBuild.SwitchStats;

  // The baseline build's fused program orders its chain arms by the
  // reordered build's pass-1 profile, so even the unreordered code gets
  // profile-guided arm ordering at the engine level (sequence ids line up
  // because compilation is deterministic — the same property pass 2
  // relies on).  Each mode uses only its own engine slot: the adaptive
  // controller carries its own evolving program versions.
  Engine BaselineEngine, ReorderedEngine;
  std::string EngineError;
  if (!engineFor(*Baseline, Reordered->profile(), BaselineEngine,
                 Record.BaselineEngineHit, EngineError) ||
      !engineFor(*Reordered, nullptr, ReorderedEngine,
                 Record.ReorderedEngineHit, EngineError)) {
    Eval.Error = W.Name + ": " + EngineError;
    return Record;
  }

  // An explicit (m,n) config wins; otherwise a compile that targets a zoo
  // predictor is also *measured* under it.  One fresh instance per build:
  // cached modules are shared across evaluations, predictor state never is.
  auto measure = [&](Artifact &A, const Engine &E) {
    std::unique_lock<std::mutex> RunLock;
    if (E.Controller)
      RunLock = std::unique_lock<std::mutex>(A.RunMutex);
    const Module &M = *A.compiled().M;
    if (!Predictor && !CompileOpts.Predictor.empty()) {
      std::unique_ptr<class Predictor> Zoo =
          makePredictor(CompileOpts.Predictor);
      if (Zoo)
        return measureBuild(M, W.TestInput, Zoo.get(), Eval.Error,
                            Options.Mode, E.Prepared, E.Controller,
                            E.Native);
    }
    return measureBuild(M, W.TestInput, Predictor, Eval.Error, Options.Mode,
                        E.Prepared, E.Controller, E.Native);
  };
  Eval.Baseline = measure(*Baseline, BaselineEngine);
  if (!Eval.ok())
    return Record;
  Eval.Reordered = measure(*Reordered, ReorderedEngine);
  if (!Eval.ok())
    return Record;

  Eval.OutputsMatch = Eval.Baseline.Output == Eval.Reordered.Output &&
                      Eval.Baseline.ExitValue == Eval.Reordered.ExitValue;
  if (!Eval.OutputsMatch)
    Eval.Error = W.Name + ": baseline and reordered outputs differ";
  return Record;
}

std::vector<WorkloadRecord> Evaluator::evaluateWorkloads(
    const std::vector<Workload> &Workloads, const CompileOptions &CompileOpts,
    const std::optional<PredictorConfig> &Predictor) {
  std::vector<WorkloadRecord> Records(Workloads.size());
  std::vector<std::future<void>> Pending;
  Pending.reserve(Workloads.size());
  for (size_t Index = 0; Index < Workloads.size(); ++Index)
    Pending.push_back(Pool.submit([this, &Workloads, &Records, &CompileOpts,
                                   &Predictor, Index] {
      Records[Index] =
          evaluateWorkload(Workloads[Index], CompileOpts, Predictor);
    }));
  for (std::future<void> &Future : Pending)
    Future.get();
  return Records;
}

std::vector<WorkloadEvaluation>
Evaluator::evaluateAll(const CompileOptions &CompileOpts,
                       const std::optional<PredictorConfig> &Predictor) {
  std::vector<WorkloadRecord> Records =
      evaluateWorkloads(standardWorkloads(), CompileOpts, Predictor);
  std::vector<WorkloadEvaluation> Evals;
  Evals.reserve(Records.size());
  for (WorkloadRecord &Record : Records)
    Evals.push_back(std::move(Record.Eval));
  return Evals;
}
