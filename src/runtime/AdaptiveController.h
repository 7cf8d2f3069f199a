//===- runtime/AdaptiveController.h - Online tiering controller -*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adaptive execution controller: replaces the paper's offline two-pass
/// scheme (profile run, then recompile) with an online loop over the same
/// machinery.  Execution starts in tier 0 — the unfused stream on the
/// threaded loop, with AdaptiveHooks sampling every Nth conditional
/// branch.  Samples feed three consumers:
///
///  - a HotnessSampler (per-branch bias for the hot-first layout, and
///    per-function sample counts for the tier-up decision),
///  - per-sequence range-bin counters: the sampled compare value is
///    classified into the same explicit-then-default bins the offline
///    instrumenter uses, giving a live partial profile that feeds the
///    paper's Figure 8 ordering selection unchanged,
///  - a DriftDetector per sequence, which flags phase shifts in the value
///    distribution after a version is deployed.
///
/// When a function's estimated branch executions cross HotThreshold the
/// controller runs ordering selection plus the decode-time fuser on the
/// live profile, inline at the triggering sample, and publishes the
/// result as a ProgramVersion.  The engines' TrySwap hook then migrates
/// live activations onto it at block-boundary safe points.  Re-optimization
/// on drift is limited by a recompile budget and two hysteresis rules
/// (minimum samples between recompiles; unchanged ordering-decision
/// signature suppresses the rebuild).
///
/// Sampling and swapping never touch observable behaviour: DynamicCounts,
/// predictor feeds, output, exit values, traps, and instruction-limit
/// behaviour stay bit-identical to a from-scratch run of any engine.
///
/// Every build, the tier-2 host compile included, runs on the thread
/// driving the run, so all controller state belongs to that thread.  The
/// one entry safe from any other thread is cancelNativeCompile().
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_RUNTIME_ADAPTIVECONTROLLER_H
#define BROPT_RUNTIME_ADAPTIVECONTROLLER_H

#include "codegen/NativeRunner.h"
#include "core/Reorder.h"
#include "core/SequenceDetection.h"
#include "profile/ProfileDB.h"
#include "runtime/DriftDetector.h"
#include "runtime/HotnessSampler.h"
#include "runtime/SwapPoint.h"
#include "sim/Interpreter.h"

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace bropt {

/// Tiering knobs.  The defaults suit long-running workloads; tests and the
/// fuzz oracle shrink the thresholds to exercise tiering on small inputs.
struct RuntimeOptions {
  /// Estimated conditional-branch executions (samples * interval) a single
  /// function must accumulate before the module tiers up.
  uint64_t HotThreshold = 50'000;
  /// Conditional branches between samples; 1 samples every branch.
  uint32_t SampleInterval = 64;
  /// Samples per sequence in one drift-detection window.  A window whose
  /// normalized histogram distance from the deployed one exceeds 0.35
  /// counts as drift.
  uint32_t DriftWindow = 256;
  /// Total optimized builds (tier-up included) one controller may run.
  unsigned MaxRecompiles = 8;
  /// Hysteresis: samples that must pass after a build before drift may
  /// trigger the next one.
  uint64_t MinSamplesBetweenRecompiles = 2048;
  /// Optional tiering-event log sink, called on the thread driving the
  /// run.
  std::function<void(const std::string &)> Trace;

  // --- Tier-2 (native) knobs; ignored unless NativeTier is set ---

  /// Compile functions that stay hot past NativeThreshold down to real
  /// machine code (CEmitter + NativeRunner) and run whole activations
  /// natively.  Requires the fused tier to have deployed first: the native
  /// body is built from the same ordering decisions, so the tier ladder is
  /// unfused -> fused -> native.  This is the only tier-2 switch:
  /// executeModule() runs Mode::Adaptive through beginRun() and the
  /// controller answers null while it is off.
  bool NativeTier = false;
  /// Estimated conditional-branch executions a function must accumulate
  /// before it is considered for the native tier.
  uint64_t NativeThreshold = 500'000;
  /// Hysteresis: samples that must pass after one native build before the
  /// next may start (the first build is exempt).
  uint64_t MinSamplesBetweenNativeBuilds = 4096;
  /// Total native builds one controller may launch; once spent the
  /// controller settles permanently in the fused tier.  Re-activating a
  /// previously built body costs nothing and is never counted.
  unsigned MaxNativeCompiles = 4;
  /// While native, every Nth activation runs interpreted so sampling can
  /// still observe drift.  The recheck interval starts at NativeRecheckMin
  /// and doubles after each clean recheck up to NativeRecheckMax
  /// (exponential backoff: steady state pays ~1/Max in interpreter runs);
  /// a de-optimization resets it to the minimum.
  uint32_t NativeRecheckMin = 8;
  uint32_t NativeRecheckMax = 128;
  /// Wall-clock cap on one host-compiler invocation; 0 means no cap.  The
  /// compile blocks the run that triggers it, so this bounds that stall.
  /// On expiry the compiler's process group is killed and the controller
  /// falls back to the fused tier for good.
  double NativeCompileTimeout = 0;
  /// Compiles go through this runner; null uses NativeRunner::shared().
  /// Tests point it at a private runner to fault-inject a hung compiler
  /// without wedging the process-wide cache.
  NativeRunner *Runner = nullptr;
  /// Shape-selection options the tier-2 native rebuild applies (pass 2 on
  /// the live profile snapshot).  Callers compiling misprediction-aware
  /// pass the same armed cost model here so the tier ladder selects the
  /// same shapes the offline compile would (docs/PREDICT.md).
  ReorderOptions Reorder;
  /// Zoo name of the targeted predictor; non-empty lets importProfile
  /// calibrate Reorder.Cost's quality from a saved Misprediction plane.
  std::string Predictor;
};

/// Counters describing what the controller did.  Read via stats() between
/// runs.
struct RuntimeStats {
  uint64_t SamplesTaken = 0;     ///< OnSample invocations
  uint64_t TierUps = 0;          ///< functions that crossed HotThreshold
  uint64_t Swaps = 0;            ///< activations migrated at a safe point
  uint64_t DeferredSwaps = 0;    ///< safe points with no image in the target
  uint64_t DriftEvents = 0;      ///< drift windows above the threshold
  uint64_t Recompiles = 0;       ///< optimized builds published
  uint64_t RecompilesSuppressed = 0; ///< skipped: budget/hysteresis/same sig
  double RecompileSeconds = 0.0; ///< wall time spent in optimization jobs
  uint64_t SamplesAtFirstSwap = 0; ///< SamplesTaken when the first swap ran
  uint64_t DroppedSamples = 0;   ///< samples with out-of-range ids

  // --- Tier-2 (native) counters ---
  uint64_t NativeTierUps = 0;    ///< native bodies activated (builds + cached)
  uint64_t NativeRuns = 0;       ///< whole activations executed natively
  uint64_t NativeRecheckRuns = 0; ///< activations run interpreted for drift
  uint64_t NativeDeopts = 0;     ///< drift de-optimizations back to fused
  uint64_t NativeCompiles = 0;   ///< native builds started
  uint64_t NativeCompilesSuppressed = 0; ///< skipped: budget spent
  uint64_t NativeCompilesFailed = 0;     ///< compiler or loader errors
  uint64_t NativeCompilesCancelled = 0;  ///< cancelled or timed out
  double NativeCompileSeconds = 0.0; ///< wall time in the host compiler

  RuntimeStats &operator+=(const RuntimeStats &O) {
    SamplesTaken += O.SamplesTaken;
    TierUps += O.TierUps;
    Swaps += O.Swaps;
    DeferredSwaps += O.DeferredSwaps;
    DriftEvents += O.DriftEvents;
    Recompiles += O.Recompiles;
    RecompilesSuppressed += O.RecompilesSuppressed;
    RecompileSeconds += O.RecompileSeconds;
    if (!SamplesAtFirstSwap)
      SamplesAtFirstSwap = O.SamplesAtFirstSwap;
    DroppedSamples += O.DroppedSamples;
    NativeTierUps += O.NativeTierUps;
    NativeRuns += O.NativeRuns;
    NativeRecheckRuns += O.NativeRecheckRuns;
    NativeDeopts += O.NativeDeopts;
    NativeCompiles += O.NativeCompiles;
    NativeCompilesSuppressed += O.NativeCompilesSuppressed;
    NativeCompilesFailed += O.NativeCompilesFailed;
    NativeCompilesCancelled += O.NativeCompilesCancelled;
    NativeCompileSeconds += O.NativeCompileSeconds;
    return *this;
  }
};

/// One controller adapts one module.  Attach it to any number of
/// Interpreters over the module (one at a time — the controller is not
/// reentrant); profile state persists across runs, which is what lets the
/// second run of a workload start in the fused tier immediately.
class AdaptiveController {
public:
  explicit AdaptiveController(const Module &M, RuntimeOptions Options = {});

  AdaptiveController(const AdaptiveController &) = delete;
  AdaptiveController &operator=(const AdaptiveController &) = delete;

  /// Points \p I at the tier-0 program and installs the hooks.  The
  /// controller must outlive every run of \p I.
  void attach(Interpreter &I);

  /// The plain tier-0 program.
  const DecodedModule &tier0() const { return Tier0; }

  /// Cancels the tier-2 compile in flight, or the next one if none is:
  /// the host compiler's process group is killed, the run that started
  /// the compile carries on in the fused tier, and the controller stays
  /// there for good.  Safe from any thread while a run is in flight: it
  /// only sets an atomic flag and takes no lock.  broptd's shutdown calls
  /// it once its drain deadline passes, so a hung `$BROPT_CC` cannot
  /// wedge the daemon.
  void cancelNativeCompile() {
    NativeControl.Cancel.store(true, std::memory_order_release);
  }

  /// Tier-2 gate, called by the exec backend at the top of each
  /// activation.  \returns the native body to run this activation
  /// natively, or null to run interpreted (not in the native tier yet, or
  /// this activation is a drift recheck).
  std::shared_ptr<const NativeProgram> beginRun();

  /// True while a native body is installed as the active tier.
  bool nativeTiered() const { return ActiveNative != nullptr; }

  /// True once an optimized version has been published.
  bool tiered() const { return !Versions.empty(); }

  /// Snapshot of the tiering counters.
  RuntimeStats stats() const;

  const RuntimeOptions &options() const { return Opts; }

  /// Writes what the controller learned into \p DB (which must not
  /// already hold records for this module): every detected sequence's
  /// range-bin counts and the per-branch hotness, both scaled by
  /// SampleInterval into estimated executions.  Once a version has been
  /// deployed this exports the snapshot that *built* it, so replaying the
  /// profile through pass 2 reproduces the deployed orderings exactly —
  /// not the post-deployment counters, which may already have drifted.
  /// Call between runs.
  void exportProfile(ProfileDB &DB) const;

  /// Warm-starts the controller from a saved profile: sequence counters
  /// and branch hotness are seeded (scaled back down by SampleInterval),
  /// and a function already past HotThreshold tiers up immediately, so
  /// the first run starts in the optimized tier.  Stale records are
  /// skipped.  Call before the first run.
  void importProfile(const ProfileDB &DB);

  /// Ordering-decision fingerprint of the deployed version (the `Sig`
  /// runJob computes), or the empty string before any tier-up.
  std::string deployedOrderingSignature() const;

private:
  /// Live per-sequence profiling state.
  struct SequenceState {
    size_t DetectedIndex = 0;      ///< into Detected
    std::vector<Range> Bins;       ///< explicit ranges, then defaults
    std::vector<uint64_t> Counts;  ///< one sampled count per bin
    DriftDetector Drift;
  };

  /// Snapshot handed to an optimization job.
  struct JobInput {
    BranchHotness Hotness;
    std::vector<std::vector<uint64_t>> SeqCounts;
    const char *Reason = "";
  };
  /// The live counters, as a job would see them.
  JobInput snapshot() const;

  void onSample(uint32_t FuncIndex, uint32_t BranchId, bool Taken,
                int64_t Value);
  const DecodedModule *trySwap(const DecodedModule &Cur, uint32_t FuncIndex,
                               size_t Index, size_t &NewIndex);
  /// Budget + hysteresis gate; runs one optimization job.
  void maybeReoptimize(const char *Reason);
  void runJob(JobInput Job);
  /// The version runs swap onto: the last one published, or null.
  const ProgramVersion *latest() const {
    return Versions.empty() ? nullptr : Versions.back().get();
  }
  /// Tier-2: reactivates a cached body or compiles one, here and now.
  void maybePromoteNative(const char *Reason);
  /// Runs the host compiler on the current hot layout; null when it
  /// failed or was cancelled, which latches the fused tier.
  std::shared_ptr<const NativeProgram> compileNative(const char *Reason);
  /// Drops the active native body back to the fused tier.
  void deoptimizeNative(const char *Why);
  /// Emits the C for the current hot layout: clones the module, reorders
  /// the clone's sequences with the deployed profile snapshot, and emits
  /// the entry's call closure.
  std::string emitNativeSource();
  void trace(const std::string &Message) const {
    if (Opts.Trace)
      Opts.Trace(Message);
  }

  const Module &M;
  const RuntimeOptions Opts;
  /// Opts.Reorder plus any quality calibration importProfile derived from
  /// a saved Misprediction plane; what the tier-2 rebuild selects with.
  ReorderOptions TierReorder;
  DecodedModule Tier0;
  AdaptiveHooks Hooks;

  std::vector<RangeSequence> Detected;
  std::vector<SequenceState> Sequences;
  /// Branch id of any condition in a sequence -> index into Sequences.
  /// Every condition tests the same variable, so any arm's sampled value
  /// classifies into the sequence's bins.
  std::unordered_map<uint32_t, size_t> HeadToSeq;
  HotnessSampler Sampler;
  std::vector<bool> FuncTiered;

  RuntimeStats ExecStats;
  uint64_t LastJobSample = 0; ///< SamplesTaken when the last job was gated
  /// Snapshot that built the currently deployed version; what
  /// exportProfile() serializes once tiered.
  std::unique_ptr<JobInput> DeployedJob;
  std::vector<std::unique_ptr<ProgramVersion>> Versions;
  std::unordered_map<const DecodedModule *, const ProgramVersion *> ByDM;

  // --- Tier-2 (native) state ---
  std::shared_ptr<const NativeProgram> ActiveNative; ///< null below tier 2
  /// Built bodies by the ordering signature they realize; re-entering a
  /// previously seen phase re-activates from here without a compile (and
  /// without touching the MaxNativeCompiles budget).
  std::unordered_map<std::string, std::shared_ptr<const NativeProgram>>
      NativeBySig;
  bool NativeFailed = false; ///< permanent fused fallback (fail/timeout/budget)
  uint64_t LastNativeBuildSample = 0;
  uint64_t LastDriftSample = 0; ///< SamplesTaken at the last drift event
  uint32_t RecheckInterval = 0; ///< current backoff; set on activation
  uint32_t RunsSinceRecheck = 0;
  /// Bounds every compile by NativeCompileTimeout and carries
  /// cancelNativeCompile() into it.  A timeout sets its flag too, and
  /// nothing clears it.
  NativeCompileControl NativeControl;
};

/// Re-derives, from a saved profile, the ordering-decision fingerprint a
/// controller over \p M would deploy: detect sequences, look each one's
/// record up by (function, ordinal) with signature validation, and run
/// Figure 8 selection on the recorded counts.  Because the exported counts
/// are a uniform scaling of the sampled ones, the normalized probabilities
/// — and hence every selection decision — are bit-identical to the live
/// job's; equality with deployedOrderingSignature() is what the replay
/// test and the profile-persistence fuzz oracle assert.
std::string orderingSignaturesFromProfile(const Module &M,
                                          const ProfileDB &DB);

} // namespace bropt

#endif // BROPT_RUNTIME_ADAPTIVECONTROLLER_H
