//===- fuzz/Oracle.h - Pipeline-wide differential-testing oracle -*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one Mini-C program through the full two-pass pipeline (compile ->
/// instrument -> profile -> reorder -> clean up) and checks six invariants:
///
///  1. Behavior: the reordered and baseline modules produce identical
///     output, exit value, and trap behavior on every held-out input.
///  2. Engines: the tree walker, the threaded loop over the unfused stream
///     (adaptive tier 0 alone) and over the fused stream, and the adaptive
///     (online-tiering) runtime agree on every artifact of every run,
///     dynamic counters included, and so do the statistics of the fresh
///     predictor each of those runs attaches (`paper` on the baseline
///     module, `tage` on the reordered one).  The AOT-native engine and
///     the adaptive runtime with its native tier (tier-2 JIT) join on the
///     observables half of the bar — trap, exit value, output — since
///     native code collects no dynamic counters.
///  3. Verification: the IR verifier passes after every individual pass
///     of the oracle's own compiles (observed through the pass-observer
///     hook, which is per thread).
///  4. Cost: for every sequence the transformation reordered, the selected
///     ordering's expected cost under the measured profile (Equations 1-4)
///     is no worse than the original ordering's.
///  5. Profile persistence: when the adaptive runtime tiers up, its
///     exported ProfileDB — round-tripped through both on-disk formats —
///     replayed through the offline pass-2 pipeline must select exactly
///     the orderings the live tier-up deployed, and the recompiled module
///     must behave identically on every held-out input.
///  6. Lowering optimality: the same program recompiled under Set IV
///     (optimal comparison trees + ext-TSP layout, docs/LOWERING.md) must
///     stay observably identical to the baseline on every held-out input,
///     and its emitted shapes must never model-cost more than the Figure-8
///     chains they replaced (ReorderStats::ChosenModelCost <=
///     ChainModelCost — the by-construction never-worse guarantee).  The
///     misprediction-aware Set IV build (selection repriced for the
///     paper's predictor, docs/PREDICT.md) is held to the same bar, plus
///     exact cross-tier agreement on the aware module itself.
///
/// Fault injection deliberately corrupts the pipeline so tests can prove
/// the oracle and the minimizer actually detect and shrink failures.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_FUZZ_ORACLE_H
#define BROPT_FUZZ_ORACLE_H

#include "driver/Driver.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bropt {

/// Test-only pipeline corruptions.
enum class FaultKind : uint8_t {
  None,
  /// After reordering, invert the predicate of the first conditional
  /// branch in a reordered block without swapping its successors — a
  /// classic transformation bug the behavior oracle must catch.
  CorruptReorderedBlock,
  /// After reordering, claim a lower cost than Equation 1 yields by
  /// perturbing nothing but reporting; modeled as inverting the cost
  /// comparison so the cost oracle's plumbing is testable.
  PretendCostRegression,
  /// Invert the Set IV never-worse comparison (ChosenModelCost <=
  /// ChainModelCost) so the lowering-optimality oracle's plumbing is
  /// testable the same way.
  PretendLoweringRegression,
  /// Point the adaptive runtime's tier-2 host compiler at a command that
  /// never returns.  Not a corruption: the expectation inverts — a clean
  /// oracle run with at least one recorded compile cancellation proves
  /// the tier-2 deadline machinery tears down a wedged $BROPT_CC and
  /// falls back to the fused tier without observable divergence.
  HangNativeCompile,
  /// With CheckServiceEngine: before each replayed request, open extra
  /// connections to the in-process broptd and kill them mid-request —
  /// half-written frames, and completed requests whose response write
  /// finds the peer gone.  Another inverted expectation: the run must
  /// stay clean (the daemon's shared artifact cache and profile shards
  /// are never corrupted by a vanishing client) with at least one
  /// dropped connection recorded by the server.
  DropConnection,
};

/// Which invariant a violation report refers to.
enum class ViolationKind : uint8_t {
  None,
  /// The front end rejected the program.  Counted separately: for
  /// generated programs this is a generator bug, not a pipeline bug, and
  /// the minimizer predicate must never confuse it with a real failure.
  CompileError,
  BehaviorMismatch, ///< invariant 1
  EngineMismatch,   ///< invariant 2
  VerifierFailure,  ///< invariant 3
  CostRegression,   ///< invariant 4
  ProfileReplayMismatch, ///< invariant 5
  LoweringSuboptimal,    ///< invariant 6
};

const char *violationKindName(ViolationKind Kind);

/// Oracle configuration: the pipeline options under test plus the fault to
/// inject (if any).
struct OracleOptions {
  CompileOptions Compile;
  FaultKind Fault = FaultKind::None;
  /// Per-run cap; generated programs execute far fewer instructions, so
  /// hitting this cap is itself suspicious and reported as a mismatch
  /// when only one side hits it.
  uint64_t InstructionLimit = 50'000'000;
  /// Also run both modules through the fused threaded-dispatch engine
  /// (sim/Fuse.h) and hold it to the same exact-agreement bar as the
  /// unfused stream.  On by default; the flag exists so a fusion bug can
  /// be bisected away from pipeline bugs.
  bool CheckFusedEngine = true;
  /// Also run both modules through the adaptive runtime
  /// (runtime/AdaptiveController.h) with aggressive tiering knobs —
  /// synchronous optimization, tiny hot threshold, short drift windows —
  /// so tier-up, mid-run hot-swap, and drift re-optimization all happen
  /// *inside* the differential run, and hold it to the same
  /// exact-agreement bar.  One controller per module persists across the
  /// held-out inputs, so later inputs re-enter an already-tiered
  /// controller (the Evaluator's cache-hit path).
  bool CheckAdaptiveEngine = true;
  /// Tiering knobs for CheckAdaptiveEngine; small enough that generated
  /// programs tier up within their held-out runs.
  uint64_t AdaptiveHotThreshold = 256;
  uint32_t AdaptiveSampleInterval = 16;
  uint32_t AdaptiveDriftWindow = 32;
  /// Also AOT-compile both modules to native code (codegen/CEmitter.h +
  /// codegen/NativeRunner.h) and require bit-identical observables —
  /// trap/exit/output — against the tree walker on every held-out input.
  /// Native runs collect no dynamic counters, so they are held to the
  /// observables half of the engine bar.  A generated program the emitter
  /// turns into C the host compiler rejects is itself an emitter bug and
  /// is reported as an engine mismatch.  Silently skipped when no host
  /// compiler is available (NativeRunner::available()).
  bool CheckNativeEngine = true;
  /// Also run both modules through the full tier ladder (Mode::Adaptive
  /// on controllers built with NativeTier on): persistent controllers and a
  /// native threshold low enough that held-out runs promote to tier-2,
  /// held to the observables bar against the tree walker (native bodies
  /// collect no counters).  Under FaultKind::HangNativeCompile the
  /// controllers get a private NativeRunner whose compiler hangs plus a
  /// short compile deadline, so the run exercises cancellation instead
  /// of promotion.  Silently skipped (except under that fault, which
  /// needs no working compiler) when NativeRunner is unavailable.
  bool CheckAdaptiveNativeEngine = true;
  /// Invariant 5: after the held-out runs, if the baseline module's
  /// adaptive controller tiered up, export its learned profile, round-trip
  /// it through the text and binary formats, and require (a) pass-2
  /// selection over the reloaded profile to pick exactly the orderings the
  /// live tier-up deployed and (b) an AOT recompile from the profile to
  /// behave identically on every held-out input.  Needs
  /// CheckAdaptiveEngine.
  bool CheckProfileReplay = true;
  /// Invariant 6: recompile under Set IV and hold the optimal-tree +
  /// ext-TSP build to (a) observable identity with the baseline on every
  /// held-out input and (b) the never-worse model-cost guarantee.  Also
  /// recompiles misprediction-aware (Predictor "paper"): the repriced
  /// selection must keep (a) and (b) under its own pricing, and the
  /// tree/unfused/fused tiers must agree exactly on the aware module.
  bool CheckLoweringOptimal = true;
  /// Also replay the program through an in-process broptd
  /// (service/Service.h): submit the same source + training inputs as a
  /// daemon Compile, then Execute every held-out input over the wire and
  /// hold the responses to bit-identical agreement — trap, exit value,
  /// output, and dynamic counters — with the direct executeModule runs
  /// the engine oracle already made.  The daemon instance is shared
  /// across the whole campaign, so its artifact cache and profile shards
  /// accumulate state from every prior program — exactly the surface a
  /// corruption would poison.  Off by default (spins up a socket);
  /// bropt-fuzz --serve turns it on.
  bool CheckServiceEngine = false;
};

/// Outcome of one oracle run.
struct OracleReport {
  ViolationKind Kind = ViolationKind::None;
  /// Human-readable explanation with enough detail to debug: which input,
  /// which sequence, which pass.
  std::string Detail;
  /// Tier-2 compiles the native-tier adaptive controllers cancelled (deadline
  /// or teardown), summed over both modules.  Populated on clean runs;
  /// FaultKind::HangNativeCompile expects ok() && this >= 1.
  uint64_t NativeCompileCancellations = 0;
  /// CheckServiceEngine only: connections the shared daemon saw die
  /// mid-request over this run.  FaultKind::DropConnection expects
  /// ok() && this >= 1 — the drops happened and corrupted nothing.
  uint64_t DroppedConnections = 0;

  bool ok() const { return Kind == ViolationKind::None; }
};

/// Runs the full oracle over \p Source.  \p TrainingInputs feed the pass-1
/// profile; \p HeldOutInputs are what the behavior and engine oracles
/// compare on.  Installs a pass observer on the calling thread for the
/// duration, so only the compiles run on that thread are verified after
/// every pass; the in-process daemon's workers (CheckServiceEngine)
/// compile unobserved (see setPassObserver).
OracleReport runOracle(std::string_view Source,
                       const std::vector<std::string> &TrainingInputs,
                       const std::vector<std::string> &HeldOutInputs,
                       const OracleOptions &Opts);

} // namespace bropt

#endif // BROPT_FUZZ_ORACLE_H
