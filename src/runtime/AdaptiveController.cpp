//===- runtime/AdaptiveController.cpp - Online tiering controller ---------===//

#include "runtime/AdaptiveController.h"

#include "codegen/CEmitter.h"
#include "core/Reorder.h"
#include "ir/CFG.h"
#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "profile/MispredictProfile.h"

#include <algorithm>
#include <chrono>

using namespace bropt;

/// Normalized histogram distance in [0, 1] above which a drift window
/// counts as drift.
static constexpr double DriftThreshold = 0.35;

static RuntimeOptions sanitized(RuntimeOptions O) {
  if (!O.SampleInterval)
    O.SampleInterval = 1;
  if (!O.DriftWindow)
    O.DriftWindow = 1;
  if (!O.MaxRecompiles)
    O.MaxRecompiles = 1;
  if (!O.MaxNativeCompiles)
    O.MaxNativeCompiles = 1;
  if (!O.NativeRecheckMin)
    O.NativeRecheckMin = 1;
  O.NativeRecheckMax = std::max(O.NativeRecheckMax, O.NativeRecheckMin);
  return O;
}

AdaptiveController::AdaptiveController(const Module &Mod,
                                       RuntimeOptions Options)
    : M(Mod), Opts(sanitized(std::move(Options))),
      TierReorder(Opts.Reorder), Tier0(DecodedModule::decode(Mod)) {
  NativeControl.TimeoutSeconds = Opts.NativeCompileTimeout;
  Hooks.SampleInterval = Opts.SampleInterval;
  Hooks.SampleCountdown = Opts.SampleInterval;
  Hooks.OnSample = [this](uint32_t FuncIndex, uint32_t BranchId, bool Taken,
                          int64_t Value) {
    onSample(FuncIndex, BranchId, Taken, Value);
  };
  Hooks.TrySwap = [this](const DecodedModule &Cur, uint32_t FuncIndex,
                         size_t Index, size_t &NewIndex) {
    return trySwap(Cur, FuncIndex, Index, NewIndex);
  };

  Sampler.init(Tier0.numBranchIds(), Tier0.size());
  FuncTiered.assign(Tier0.size(), false);

  Detected = detectSequences(Mod);

  // The branch ids samples arrive with.
  const std::unordered_map<const Instruction *, uint32_t> BranchIdOf =
      numberBranches(Mod).IdOf;

  Sequences.reserve(Detected.size());
  for (size_t I = 0; I < Detected.size(); ++I) {
    const RangeSequence &Seq = Detected[I];
    // Register *every* condition branch of the sequence, not just the
    // head's: all conditions test the same variable (Theorem 1's
    // precondition), so a sample at any arm classifies into the same bin
    // partition.  This matters in the fused tier, where the chain fuser's
    // MultiCmp head may be a later condition than the detected head (the
    // head compare can be swallowed by a pre-op fusion instead) — and
    // where a fixed sample interval can phase-lock onto one op in a
    // periodic loop, starving any single registration point.
    bool AnyBranch = false;
    for (const RangeConditionDesc &Cond : Seq.Conds) {
      for (const BasicBlock *Block : Cond.Blocks) {
        const Instruction *Term = Block->getTerminator();
        auto IdIt = Term ? BranchIdOf.find(Term) : BranchIdOf.end();
        if (IdIt == BranchIdOf.end())
          continue;
        HeadToSeq.emplace(IdIt->second, Sequences.size());
        AnyBranch = true;
      }
    }
    if (!AnyBranch)
      continue; // no conditional branch we can sample at

    SequenceState State;
    State.DetectedIndex = I;
    State.Bins.reserve(Seq.Conds.size() + Seq.DefaultRanges.size());
    for (const RangeConditionDesc &Cond : Seq.Conds)
      State.Bins.push_back(Cond.R);
    for (const Range &R : Seq.DefaultRanges)
      State.Bins.push_back(R);
    State.Counts.assign(State.Bins.size(), 0);
    State.Drift =
        DriftDetector(State.Bins.size(), Opts.DriftWindow, DriftThreshold);
    Sequences.push_back(std::move(State));
  }
}

void AdaptiveController::attach(Interpreter &I) {
  I.setMode(Interpreter::Mode::Adaptive);
  I.setPreparedProgram(&Tier0);
  I.setAdaptiveHooks(&Hooks);
}

RuntimeStats AdaptiveController::stats() const {
  RuntimeStats S = ExecStats;
  S.DroppedSamples = Sampler.DroppedSamples;
  return S;
}

std::string AdaptiveController::deployedOrderingSignature() const {
  const ProgramVersion *Deployed = latest();
  return Deployed ? Deployed->OrderSig : std::string();
}

AdaptiveController::JobInput AdaptiveController::snapshot() const {
  JobInput Job;
  Job.Hotness = Sampler.Hotness;
  Job.SeqCounts.reserve(Sequences.size());
  for (const SequenceState &State : Sequences)
    Job.SeqCounts.push_back(State.Counts);
  return Job;
}

void AdaptiveController::exportProfile(ProfileDB &DB) const {
  // Once tiered, export the snapshot that built the deployed version so a
  // replay reproduces its orderings; the live counters may have drifted
  // since the build.  Before any deploy, export the live counters.
  const JobInput Live = DeployedJob ? JobInput() : snapshot();
  const JobInput &From = DeployedJob ? *DeployedJob : Live;
  const std::vector<std::vector<uint64_t>> &SeqCounts = From.SeqCounts;

  // Sampled counts scale up to estimated executions.  Uniform scaling
  // preserves every normalized probability bit-for-bit (IEEE division is
  // correctly rounded and (k*c)/(k*t) has the same real value as c/t), so
  // pass 2 on the exported profile makes the same decisions the job did.
  const uint64_t Scale = Opts.SampleInterval;

  std::unordered_map<size_t, size_t> StateOf;
  for (size_t I = 0; I < Sequences.size(); ++I)
    StateOf.emplace(Sequences[I].DetectedIndex, I);

  // Register *every* detected sequence, zero-count ones included, so
  // consumer-side ordinals line up (the keyer rule in ProfileDB.h).
  for (size_t D = 0; D < Detected.size(); ++D) {
    const RangeSequence &Seq = Detected[D];
    ProfileEntry &E = DB.registerSequence(
        ProfileKind::RangeBins, Seq.Id, Seq.F->getName(), Seq.signature(),
        Seq.Conds.size() + Seq.DefaultRanges.size());
    auto It = StateOf.find(D);
    if (It == StateOf.end())
      continue; // no sampleable branch; the record stays all-zero
    const std::vector<uint64_t> &Counts = SeqCounts[It->second];
    for (size_t Bin = 0; Bin < Counts.size() && Bin < E.BinCounts.size();
         ++Bin)
      E.BinCounts[Bin] += Counts[Bin] * Scale;
  }

  exportHotnessToProfile(M, From.Hotness, DB, Scale);
}

void AdaptiveController::importProfile(const ProfileDB &DB) {
  const uint64_t Scale = Opts.SampleInterval;

  // A saved Misprediction plane for the targeted predictor calibrates the
  // tier-2 rebuild's cost model, mirroring compileWithProfile.  A profile
  // without the plane keeps the neutral quality.
  if (!Opts.Predictor.empty()) {
    MispredictSummary Summary =
        importMispredictProfile(DB, M, Opts.Predictor);
    if (!Summary.empty())
      TierReorder.Cost.PredictorQuality = Summary.quality();
  }

  std::unordered_map<size_t, size_t> StateOf;
  for (size_t I = 0; I < Sequences.size(); ++I)
    StateOf.emplace(Sequences[I].DetectedIndex, I);

  // Seed the per-sequence bin counters.  The keyer must advance over every
  // detected sequence — including ones with no sampleable branch — to stay
  // aligned with the ordinals the exporter assigned.
  SequenceKeyer Keyer;
  for (size_t D = 0; D < Detected.size(); ++D) {
    const RangeSequence &Seq = Detected[D];
    const unsigned Ordinal =
        Keyer.next(ProfileKind::RangeBins, Seq.F->getName());
    auto It = StateOf.find(D);
    if (It == StateOf.end())
      continue;
    ProfileLookupStatus Status = ProfileLookupStatus::Missing;
    const ProfileEntry *E = DB.lookupSequence(
        ProfileKind::RangeBins, Seq.F->getName(), Seq.signature(),
        Seq.Conds.size() + Seq.DefaultRanges.size(), Ordinal, &Status);
    if (!E) {
      if (Status != ProfileLookupStatus::Missing && Opts.Trace)
        trace("import: skip sequence " + std::to_string(Seq.Id) + " (" +
              profileLookupStatusName(Status) + ")");
      continue;
    }
    SequenceState &State = Sequences[It->second];
    for (size_t Bin = 0;
         Bin < State.Counts.size() && Bin < E->BinCounts.size(); ++Bin)
      State.Counts[Bin] += E->BinCounts[Bin] / Scale;
  }

  // Seed the branch hotness, scaled back down to sample units.
  BranchHotness H;
  if (importHotnessFromProfile(M, DB, H)) {
    for (size_t Id = 0;
         Id < H.Total.size() && Id < Sampler.Hotness.Total.size(); ++Id) {
      Sampler.Hotness.Taken[Id] += H.Taken[Id] / Scale;
      Sampler.Hotness.Total[Id] += H.Total[Id] / Scale;
    }
  }

  // Attribute the imported branch totals to functions and tier up any
  // function the saved profile already shows past the threshold, so the
  // first run starts optimized instead of re-learning.
  bool TieredUp = false;
  const std::vector<uint32_t> FirstId = numberBranches(M).FirstId;
  size_t FuncIndex = 0;
  for (const auto &F : M) {
    uint64_t FuncTotal = 0;
    for (size_t Id = FirstId[FuncIndex];
         Id < FirstId[FuncIndex + 1] && Id < H.Total.size(); ++Id)
      FuncTotal += H.Total[Id] / Scale;
    if (FuncIndex < Sampler.FuncSamples.size() && FuncTotal) {
      Sampler.FuncSamples[FuncIndex] += FuncTotal;
      if (!FuncTiered[FuncIndex] &&
          Sampler.FuncSamples[FuncIndex] * Opts.SampleInterval >=
              Opts.HotThreshold) {
        FuncTiered[FuncIndex] = true;
        ++ExecStats.TierUps;
        TieredUp = true;
        if (Opts.Trace)
          trace("tier-up: function " + F->getName() + " from imported profile");
      }
    }
    ++FuncIndex;
  }
  if (TieredUp && !tiered())
    maybeReoptimize("profile-import");
}

void AdaptiveController::onSample(uint32_t FuncIndex, uint32_t BranchId,
                                  bool Taken, int64_t Value) {
  ++ExecStats.SamplesTaken;
  const uint64_t FuncCount = Sampler.observe(FuncIndex, BranchId, Taken);

  auto SeqIt = HeadToSeq.find(BranchId);
  if (SeqIt != HeadToSeq.end()) {
    SequenceState &State = Sequences[SeqIt->second];
    // The ranges are nonoverlapping and the defaults cover the rest of the
    // value space, so exactly one bin matches — the same classification
    // the offline instrumenter performs per head execution.
    for (size_t Bin = 0; Bin < State.Bins.size(); ++Bin) {
      if (!State.Bins[Bin].contains(Value))
        continue;
      ++State.Counts[Bin];
      if (State.Drift.observe(Bin)) {
        ++ExecStats.DriftEvents;
        LastDriftSample = ExecStats.SamplesTaken;
        if (Opts.Trace)
          trace("drift: sequence " +
                std::to_string(Detected[State.DetectedIndex].Id) +
                " distance " + std::to_string(State.Drift.lastDistance()));
        // The native body bakes the old ordering into machine code; drop
        // back to the fused tier before rebuilding it.
        if (ActiveNative)
          deoptimizeNative("drift");
        // Re-optimizing only makes sense once a version is deployed;
        // before tier-up the profile is still converging.
        if (tiered())
          maybeReoptimize("drift");
      }
      break;
    }
  }

  if (FuncIndex < FuncTiered.size() && !FuncTiered[FuncIndex] &&
      FuncCount * Opts.SampleInterval >= Opts.HotThreshold) {
    FuncTiered[FuncIndex] = true;
    ++ExecStats.TierUps;
    if (Opts.Trace)
      trace("tier-up: function " + Tier0.function(FuncIndex).Name + " after " +
            std::to_string(FuncCount) + " samples");
    // The build is module-wide; later functions crossing the threshold
    // ride on the already-published version.
    if (!tiered())
      maybeReoptimize("tier-up");
  }

  // Tier-2 gate.  Cheap per-sample checks run first; the stability gate
  // (a full DriftWindow since the last drift) and the build hysteresis are
  // silent — suppression counters only track real decisions, not every
  // sample inside a cool-down window.
  if (Opts.NativeTier && !NativeFailed && !ActiveNative && tiered() &&
      FuncIndex < FuncTiered.size() &&
      FuncCount * Opts.SampleInterval >= Opts.NativeThreshold &&
      ExecStats.SamplesTaken - LastDriftSample >= Opts.DriftWindow &&
      (!ExecStats.NativeCompiles ||
       ExecStats.SamplesTaken - LastNativeBuildSample >=
           Opts.MinSamplesBetweenNativeBuilds))
    maybePromoteNative("native-tier-up");
}

void AdaptiveController::maybeReoptimize(const char *Reason) {
  if (ExecStats.Recompiles >= Opts.MaxRecompiles) {
    ++ExecStats.RecompilesSuppressed;
    if (Opts.Trace)
      trace(std::string("suppress(") + Reason + "): recompile budget spent");
    return;
  }
  const bool FirstBuild = !tiered();
  if (!FirstBuild && ExecStats.SamplesTaken - LastJobSample <
                         Opts.MinSamplesBetweenRecompiles) {
    ++ExecStats.RecompilesSuppressed;
    if (Opts.Trace)
      trace(std::string("suppress(") + Reason + "): hysteresis window open");
    return;
  }

  LastJobSample = ExecStats.SamplesTaken;
  JobInput Job = snapshot();
  Job.Reason = Reason;
  runJob(std::move(Job));
}

void AdaptiveController::runJob(JobInput Job) {
  const auto Start = std::chrono::steady_clock::now();

  // Turn the sampled bins into a live profile and, per sequence, rerun the
  // paper's ordering selection to fingerprint the decision it implies.
  // Every detected sequence is registered — the fuser's keyed lookup
  // assigns ordinals over all of them, so gaps would shift the keys.
  ProfileDB Live;
  for (const RangeSequence &Seq : Detected)
    Live.registerSequence(ProfileKind::RangeBins, Seq.Id, Seq.F->getName(),
                          Seq.signature(),
                          Seq.Conds.size() + Seq.DefaultRanges.size());

  std::string Sig;
  bool AnyCounts = false;
  for (size_t I = 0; I < Sequences.size(); ++I) {
    const RangeSequence &Seq = Detected[Sequences[I].DetectedIndex];
    const std::vector<uint64_t> &Counts = Job.SeqCounts[I];
    uint64_t Total = 0;
    for (uint64_t C : Counts)
      Total += C;
    if (!Total)
      continue; // never sampled; buildRangeInfos needs a nonzero total
    AnyCounts = true;
    for (size_t Bin = 0; Bin < Counts.size(); ++Bin)
      if (Counts[Bin])
        Live.increment(Seq.Id, Bin, Counts[Bin]);

    ProfileEntry Prof;
    Prof.FunctionName = Seq.F->getName();
    Prof.Signature = Seq.signature();
    Prof.BinCounts = Counts;
    OrderingDecision Decision = selectOrdering(buildRangeInfos(Seq, Prof));
    Sig += std::to_string(Seq.Id);
    Sig += ':';
    Sig += orderingSignature(Decision);
    Sig += ';';
  }

  // Hysteresis: an unchanged ordering decision means the deployed version
  // already implements what this profile asks for — skip the build, which
  // costs no budget.
  const ProgramVersion *Deployed = latest();
  if (Deployed && Sig == Deployed->OrderSig) {
    ++ExecStats.RecompilesSuppressed;
    if (Opts.Trace)
      trace(std::string("suppress(") + Job.Reason + "): ordering unchanged");
    return;
  }

  FuseOptions FO;
  FO.Profile = AnyCounts ? &Live : nullptr;
  FO.Hotness = Job.Hotness.empty() ? nullptr : &Job.Hotness;

  auto V = std::make_unique<ProgramVersion>();
  V->DM = decodeFused(M, FO, nullptr, &V->Map);
  V->buildReverseMap();
  V->OrderSig = std::move(Sig);

  ++ExecStats.Recompiles;
  ExecStats.RecompileSeconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  if (Opts.Trace)
    trace(std::string("recompile(") + Job.Reason + "): version " +
          std::to_string(ExecStats.Recompiles) + " published");
  DeployedJob = std::make_unique<JobInput>(std::move(Job));
  ByDM.emplace(&V->DM, V.get());
  Versions.push_back(std::move(V));
}

const DecodedModule *AdaptiveController::trySwap(const DecodedModule &Cur,
                                                 uint32_t FuncIndex,
                                                 size_t Index,
                                                 size_t &NewIndex) {
  const ProgramVersion *Target = latest();
  if (!Target || &Target->DM == &Cur)
    return nullptr; // nothing newer to swap onto

  const ProgramVersion *CurVersion = nullptr;
  if (&Cur != &Tier0) {
    auto It = ByDM.find(&Cur);
    if (It != ByDM.end())
      CurVersion = It->second;
    // An unknown program shares tier-0 coordinates: plain decoding is
    // deterministic, so its block starts line up with Tier0's.
  }

  if (!translateSwapPoint(CurVersion, *Target, FuncIndex, Index, NewIndex)) {
    ++ExecStats.DeferredSwaps;
    return nullptr; // no image at this safe point; try again at the next
  }

  ++ExecStats.Swaps;
  if (!ExecStats.SamplesAtFirstSwap)
    ExecStats.SamplesAtFirstSwap = ExecStats.SamplesTaken;
  if (Opts.Trace)
    trace("swap: function " + Tier0.function(FuncIndex).Name + " at index " +
          std::to_string(Index) + " -> " + std::to_string(NewIndex));
  return &Target->DM;
}

std::shared_ptr<const NativeProgram> AdaptiveController::beginRun() {
  if (!ActiveNative)
    return nullptr;

  // Native code neither samples nor counts, so drift is invisible while
  // in tier 2.  Periodically run one whole activation interpreted as a
  // recheck; each clean recheck doubles the interval (exponential
  // backoff), so a stable phase converges to ~1/NativeRecheckMax
  // interpreted activations while a drifting one is caught within
  // NativeRecheckMin of the deopt that reset the interval.
  if (++RunsSinceRecheck >= RecheckInterval) {
    RunsSinceRecheck = 0;
    RecheckInterval = std::min(RecheckInterval * 2, Opts.NativeRecheckMax);
    ++ExecStats.NativeRecheckRuns;
    if (Opts.Trace)
      trace("native: recheck run (next after " +
            std::to_string(RecheckInterval) + ")");
    return nullptr;
  }
  ++ExecStats.NativeRuns;
  return ActiveNative;
}

void AdaptiveController::maybePromoteNative(const char *Reason) {
  const std::string Sig = deployedOrderingSignature();

  // Re-entering a phase whose body was already built: reactivate from the
  // per-signature cache.  Free — no compile, no budget.
  std::shared_ptr<const NativeProgram> Body;
  if (auto Cached = NativeBySig.find(Sig); Cached != NativeBySig.end()) {
    Body = Cached->second;
    if (Opts.Trace)
      trace(std::string("native: re-promoted cached body (") + Reason + ")");
  } else {
    Body = compileNative(Reason);
    if (!Body)
      return;
    NativeBySig.emplace(Sig, Body);
  }
  ActiveNative = std::move(Body);
  RecheckInterval = Opts.NativeRecheckMin;
  RunsSinceRecheck = 0;
  ++ExecStats.NativeTierUps;
}

std::shared_ptr<const NativeProgram>
AdaptiveController::compileNative(const char *Reason) {
  if (ExecStats.NativeCompiles >= Opts.MaxNativeCompiles) {
    ++ExecStats.NativeCompilesSuppressed;
    NativeFailed = true; // stop re-evaluating every sample
    if (Opts.Trace)
      trace(std::string("native: suppress(") + Reason +
            "): compile budget spent; staying fused");
    return nullptr;
  }

  ++ExecStats.NativeCompiles;
  LastNativeBuildSample = ExecStats.SamplesTaken;
  if (Opts.Trace)
    trace(std::string("native: compile launched (") + Reason + ")");
  const std::string Source = emitNativeSource();

  // The compile blocks this sample, like the fused build: promotion timing
  // stays deterministic, and no deopt or new fused version can land while
  // it runs.  NativeControl bounds the stall and lets cancelNativeCompile()
  // end it from another thread.
  NativeRunner &Runner = Opts.Runner ? *Opts.Runner : NativeRunner::shared();
  const auto Start = std::chrono::steady_clock::now();
  std::string Error;
  std::shared_ptr<const NativeProgram> Program =
      Runner.prepareSource(Source, &Error, &NativeControl);
  const double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  ExecStats.NativeCompileSeconds += Seconds;
  if (Program) {
    if (Opts.Trace)
      trace("native: promoted entry 'main' (" + std::to_string(Seconds) +
            "s compile)");
    return Program;
  }

  // A timeout, a cancel or a failing compiler: the compiler is not
  // trustworthy here, so settle in the fused tier for good.
  NativeFailed = true;
  if (NativeControl.Cancel.load(std::memory_order_acquire)) {
    ++ExecStats.NativeCompilesCancelled;
    if (Opts.Trace)
      trace("native: compile cancelled (" + Error + ")");
  } else {
    ++ExecStats.NativeCompilesFailed;
    if (Opts.Trace)
      trace("native: compile failed: " + Error);
  }
  return nullptr;
}

void AdaptiveController::deoptimizeNative(const char *Why) {
  ActiveNative.reset();
  RecheckInterval = Opts.NativeRecheckMin;
  RunsSinceRecheck = 0;
  ++ExecStats.NativeDeopts;
  if (Opts.Trace)
    trace(std::string("native: deopt (") + Why + "); back to fused tier");
}

std::string AdaptiveController::emitNativeSource() {
  CEmitterOptions CO;
  CO.OnlyReachable = true;

  // The interpreter's fused tier reorders at decode time and leaves M
  // untouched, so the native body re-applies the ordering to IR: clone M
  // via a print/parse round trip, then run the paper's pass 2 on the
  // clone with the deployed profile snapshot.  exportProfile serializes
  // exactly the snapshot that built the deployed fused version, so the
  // clone's layout realizes deployedOrderingSignature() — the key this
  // build is cached and activated under.
  std::string ParseError;
  std::unique_ptr<Module> Clone = parseModuleText(printModule(M), &ParseError);
  if (!Clone) {
    if (Opts.Trace)
      trace("native: module clone failed (" + ParseError +
            "); emitting the unreordered layout");
    return emitC(M, CO);
  }

  ProfileDB Snapshot;
  exportProfile(Snapshot);
  std::vector<RangeSequence> CloneSeqs = detectSequences(*Clone);
  // TierReorder carries the caller's shape-selection options — including
  // an armed, calibrated cost model when the compile targets a predictor —
  // so the native body selects the same shapes the offline pass 2 would.
  reorderSequences(*Clone, CloneSeqs, Snapshot, TierReorder);
  return emitC(*Clone, CO);
}

std::string bropt::orderingSignaturesFromProfile(const Module &Mod,
                                                 const ProfileDB &DB) {
  std::vector<RangeSequence> Seqs = detectSequences(Mod);
  SequenceKeyer Keyer;
  std::string Sig;
  for (const RangeSequence &Seq : Seqs) {
    const unsigned Ordinal =
        Keyer.next(ProfileKind::RangeBins, Seq.F->getName());
    const ProfileEntry *E = DB.lookupSequence(
        ProfileKind::RangeBins, Seq.F->getName(), Seq.signature(),
        Seq.Conds.size() + Seq.DefaultRanges.size(), Ordinal);
    if (!E || !E->totalExecutions())
      continue; // never executed, or stale — runJob skipped it too
    OrderingDecision Decision = selectOrdering(buildRangeInfos(Seq, *E));
    Sig += std::to_string(Seq.Id);
    Sig += ':';
    Sig += orderingSignature(Decision);
    Sig += ';';
  }
  return Sig;
}
