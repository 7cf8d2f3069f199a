//===- driver/Evaluator.cpp - Parallel cached workload evaluation ---------===//

#include "driver/Evaluator.h"

#include "predict/Zoo.h"
#include "profile/ProfileDB.h"
#include "sim/Fuse.h"
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
             "set=%d;cs=%d;dup=%d;f4=%d;ex=%d;min=%llu;clone=%zu;ms=%d;"
             "span=%llu;tree=%d;pgl=%d;cmp=%g;takenx=%g;ijmp=%g;margin=%g;"
             "mp=%g;q=%g;",
             static_cast<int>(Options.HeuristicSet),
             Options.EnableCommonSuccessorReordering ? 1 : 0,
             R.DuplicateDefaultTarget ? 1 : 0, R.OrderFormFourBranches ? 1 : 0,
             R.UseExhaustiveSelection ? 1 : 0,
             static_cast<unsigned long long>(R.MinExecutions),
             R.MaxDefaultCloneInsts, R.EnableMethodSelection ? 1 : 0,
             static_cast<unsigned long long>(R.MaxTableSpan),
             R.UseOptimalTree ? 1 : 0, R.ProfileGuidedLayout ? 1 : 0,
             R.Cost.CompareCost, R.Cost.TakenBranchExtra,
             R.Cost.IndirectJumpCost, R.Cost.JumpTableMargin,
             R.Cost.MispredictPenalty, R.Cost.PredictorQuality) +
         "pred=" + Options.Predictor +
         formatString(";train=%zu;", W.TrainingInput.size()) +
         W.TrainingInput + ";src=" + W.Source;
}

} // namespace

Evaluator::Evaluator(EvaluatorOptions Options)
    : Options(Options), Pool(Options.Threads),
      DecodeCache(Options.DecodeCacheCapacity),
      AdaptiveCache(Options.AdaptiveCacheCapacity),
      NativeCache(Options.NativeCacheCapacity) {}

EvaluatorStats Evaluator::stats() const {
  EvaluatorStats S;
  S.BaselineHits = Counters.BaselineHits.load(std::memory_order_relaxed);
  S.BaselineMisses =
      Counters.BaselineMisses.load(std::memory_order_relaxed);
  S.ReorderedHits = Counters.ReorderedHits.load(std::memory_order_relaxed);
  S.ReorderedMisses =
      Counters.ReorderedMisses.load(std::memory_order_relaxed);
  S.DecodeHits = Counters.DecodeHits.load(std::memory_order_relaxed);
  S.DecodeMisses = Counters.DecodeMisses.load(std::memory_order_relaxed);
  S.AdaptiveHits = Counters.AdaptiveHits.load(std::memory_order_relaxed);
  S.AdaptiveMisses =
      Counters.AdaptiveMisses.load(std::memory_order_relaxed);
  S.AdaptiveReFusions =
      Counters.AdaptiveReFusions.load(std::memory_order_relaxed);
  S.NativeHits = Counters.NativeHits.load(std::memory_order_relaxed);
  S.NativeMisses = Counters.NativeMisses.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(CacheMutex);
  // Re-fusions live inside the controllers; count every optimized build
  // beyond a controller's tier-up build as a re-fusion of its evolving
  // profile.  Evicted controllers were folded into Counters already.
  for (const auto &[Key, Entry] : AdaptiveCache) {
    const RuntimeStats Runtime = Entry.Controller->stats();
    if (Runtime.Recompiles > 1)
      S.AdaptiveReFusions += Runtime.Recompiles - 1;
  }
  S.DecodeEvictions = DecodeCache.evictions();
  S.AdaptiveEvictions = AdaptiveCache.evictions();
  S.NativeEvictions = NativeCache.evictions();
  return S;
}

void Evaluator::clearCache() {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  BaselineCache.clear();
  ReorderedCache.clear();
  DecodeCache.clear();
  AdaptiveCache.clear();
  NativeCache.clear();
}

std::shared_ptr<const DecodedModule>
Evaluator::preparedFor(const std::shared_ptr<const CompileResult> &Compiled,
                       const std::string *ProfileText, bool &Hit) {
  const Module *Key = Compiled->M.get();
  {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    if (auto *Entry = DecodeCache.get(Key)) {
      Counters.DecodeHits.fetch_add(1, std::memory_order_relaxed);
      Hit = true;
      return Entry->Program;
    }
  }
  // The fused engine dogfoods the paper's own profile: arm execution
  // order inside MultiCmp superinstructions follows the pass-1 counts when
  // the caller has them (observables are unaffected either way).
  FuseOptions FO;
  ProfileDB Profile;
  if (ProfileText && !ProfileText->empty() &&
      Profile.deserialize(*ProfileText))
    FO.Profile = &Profile;
  std::shared_ptr<const DecodedModule> Program =
      std::make_shared<DecodedModule>(decodeFused(*Key, FO));
  Hit = false;
  std::lock_guard<std::mutex> Lock(CacheMutex);
  // Two threads can race to the first decode of one module; keep the
  // winner so every caller shares a single prepared program.
  if (auto *Entry = DecodeCache.get(Key))
    return Entry->Program;
  Counters.DecodeMisses.fetch_add(1, std::memory_order_relaxed);
  DecodeCache.put(Key, PreparedEntry{Compiled, Program});
  return Program;
}

std::shared_ptr<AdaptiveController>
Evaluator::controllerFor(const std::shared_ptr<const CompileResult> &Compiled,
                         bool &Hit) {
  const Module *Key = Compiled->M.get();
  {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    if (auto *Entry = AdaptiveCache.get(Key)) {
      Counters.AdaptiveHits.fetch_add(1, std::memory_order_relaxed);
      Hit = true;
      return Entry->Controller;
    }
  }
  auto Controller =
      std::make_shared<AdaptiveController>(*Key, Options.Runtime);
  Hit = false;
  std::lock_guard<std::mutex> Lock(CacheMutex);
  if (auto *Entry = AdaptiveCache.get(Key))
    return Entry->Controller;
  Counters.AdaptiveMisses.fetch_add(1, std::memory_order_relaxed);
  if (auto Evicted =
          AdaptiveCache.put(Key, AdaptiveEntry{Compiled, Controller})) {
    // Keep the evicted controller's re-fusion history in the aggregate
    // counters; stats() can no longer walk it.
    const RuntimeStats Runtime = Evicted->Controller->stats();
    if (Runtime.Recompiles > 1)
      Counters.AdaptiveReFusions.fetch_add(Runtime.Recompiles - 1,
                                           std::memory_order_relaxed);
  }
  return Controller;
}

std::shared_ptr<const NativeProgram>
Evaluator::nativeFor(const std::shared_ptr<const CompileResult> &Compiled,
                     bool &Hit, std::string &Error) {
  const Module *Key = Compiled->M.get();
  {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    if (auto *Entry = NativeCache.get(Key)) {
      Counters.NativeHits.fetch_add(1, std::memory_order_relaxed);
      Hit = true;
      return Entry->Program;
    }
  }
  std::string CompileError;
  std::shared_ptr<const NativeProgram> Program =
      NativeRunner::shared().prepare(*Compiled->M, &CompileError);
  Hit = false;
  if (!Program) {
    Error = "native compile failed: " + CompileError;
    return nullptr;
  }
  std::lock_guard<std::mutex> Lock(CacheMutex);
  if (auto *Entry = NativeCache.get(Key))
    return Entry->Program;
  Counters.NativeMisses.fetch_add(1, std::memory_order_relaxed);
  NativeCache.put(Key, NativeEntry{Compiled, Program});
  return Program;
}

std::shared_ptr<const CompileResult>
Evaluator::baselineFor(const Workload &W, const CompileOptions &CompileOpts,
                       bool &Hit) {
  std::string Key = baselineKey(W, CompileOpts);
  {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    auto It = BaselineCache.find(Key);
    if (It != BaselineCache.end()) {
      Counters.BaselineHits.fetch_add(1, std::memory_order_relaxed);
      Hit = true;
      return It->second;
    }
  }
  auto Result = std::make_shared<CompileResult>(
      compileBaseline(W.Source, CompileOpts));
  Hit = false;
  std::lock_guard<std::mutex> Lock(CacheMutex);
  Counters.BaselineMisses.fetch_add(1, std::memory_order_relaxed);
  BaselineCache.emplace(std::move(Key), Result);
  return Result;
}

std::shared_ptr<const CompileResult>
Evaluator::reorderedFor(const Workload &W, const CompileOptions &CompileOpts,
                        bool &Hit) {
  std::string Key = reorderedKey(W, CompileOpts);
  {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    auto It = ReorderedCache.find(Key);
    if (It != ReorderedCache.end()) {
      Counters.ReorderedHits.fetch_add(1, std::memory_order_relaxed);
      Hit = true;
      return It->second;
    }
  }
  auto Result = std::make_shared<CompileResult>(
      compileWithReordering(W.Source, W.TrainingInput, CompileOpts));
  Hit = false;
  std::lock_guard<std::mutex> Lock(CacheMutex);
  Counters.ReorderedMisses.fetch_add(1, std::memory_order_relaxed);
  ReorderedCache.emplace(std::move(Key), Result);
  return Result;
}

WorkloadRecord
Evaluator::evaluateWorkload(const Workload &W,
                            const CompileOptions &CompileOpts,
                            const std::optional<PredictorConfig> &Predictor) {
  WorkloadRecord Record;
  WorkloadEvaluation &Eval = Record.Eval;
  Eval.Name = W.Name;

  std::shared_ptr<const CompileResult> Baseline =
      baselineFor(W, CompileOpts, Record.BaselineCacheHit);
  if (!Baseline->ok()) {
    Eval.Error = W.Name + ": baseline compile failed: " + Baseline->Error;
    return Record;
  }
  std::shared_ptr<const CompileResult> Reordered =
      reorderedFor(W, CompileOpts, Record.ReorderedCacheHit);
  if (!Reordered->ok()) {
    Eval.Error = W.Name + ": reordering compile failed: " + Reordered->Error;
    return Record;
  }
  Eval.Stats = Reordered->Stats;
  Eval.SwitchStats = Reordered->SwitchStats;

  // Fuse each build once per module, not once per evaluation.  The
  // baseline build is fused against the reordered compile's pass-1
  // profile so even the unreordered code gets profile-guided arm ordering
  // at the engine level (sequence ids line up because compilation is
  // deterministic — the same property pass 2 relies on).
  std::shared_ptr<const DecodedModule> BaselinePrepared, ReorderedPrepared;
  if (Options.Mode == Interpreter::Mode::Fused) {
    BaselinePrepared = preparedFor(Baseline, &Reordered->ProfileText,
                                   Record.BaselineDecodeHit);
    ReorderedPrepared =
        preparedFor(Reordered, nullptr, Record.ReorderedDecodeHit);
  }
  // The adaptive engine carries its own evolving program versions inside a
  // cached controller; the immutable DecodeCache is deliberately not used
  // (it could only ever serve a stale fused stream).
  std::shared_ptr<AdaptiveController> BaselineCtl, ReorderedCtl;
  if (Options.Mode == Interpreter::Mode::Adaptive) {
    BaselineCtl = controllerFor(Baseline, Record.BaselineAdaptiveHit);
    ReorderedCtl = controllerFor(Reordered, Record.ReorderedAdaptiveHit);
  }
  // Native builds AOT-compile each module once; the cached `.so` is keyed
  // by module identity and its source hash embodies the block ordering,
  // so baseline and reordered builds always get distinct machine code.
  std::shared_ptr<const NativeProgram> BaselineNative, ReorderedNative;
  if (Options.Mode == Interpreter::Mode::Native) {
    std::string NativeError;
    BaselineNative =
        nativeFor(Baseline, Record.BaselineNativeHit, NativeError);
    if (!BaselineNative) {
      Eval.Error = W.Name + ": " + NativeError;
      return Record;
    }
    ReorderedNative =
        nativeFor(Reordered, Record.ReorderedNativeHit, NativeError);
    if (!ReorderedNative) {
      Eval.Error = W.Name + ": " + NativeError;
      return Record;
    }
  }

  // An explicit (m,n) config wins; otherwise a compile that targets a zoo
  // predictor is also *measured* under it.  One fresh instance per build:
  // cached modules are shared across evaluations, predictor state never is.
  auto measure = [&](const Module &M, const DecodedModule *Prepared,
                     AdaptiveController *Controller,
                     const NativeProgram *Native) {
    if (!Predictor && !CompileOpts.Predictor.empty()) {
      std::unique_ptr<class Predictor> Zoo =
          makePredictor(CompileOpts.Predictor);
      if (Zoo)
        return measureBuild(M, W.TestInput, Zoo.get(), Eval.Error,
                            Options.Mode, Prepared, Controller, Native);
    }
    return measureBuild(M, W.TestInput, Predictor, Eval.Error,
                        Options.Mode, Prepared, Controller, Native);
  };
  Eval.Baseline = measure(*Baseline->M, BaselinePrepared.get(),
                          BaselineCtl.get(), BaselineNative.get());
  if (!Eval.ok())
    return Record;
  Eval.Reordered = measure(*Reordered->M, ReorderedPrepared.get(),
                           ReorderedCtl.get(), ReorderedNative.get());
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
