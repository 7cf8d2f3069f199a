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
///  2. Engines: one table of engine rows.  Each module under test — the
///     baseline, the reordered module and the misprediction-aware Set IV
///     build — lists the engines that run it: the threaded loop over the
///     unfused stream (adaptive tier 0 alone) and over the fused stream,
///     the adaptive (online-tiering) runtime, AOT-native code and the full
///     tier ladder (the adaptive runtime with its tier-2 JIT).  Every row's
///     run of a held-out input is compared with the tree walker's run of
///     the same module.  The interpreter rows are held to the exact bar:
///     every DynamicCounts field and the statistics of the fresh predictor
///     each run attaches (`paper` on the baseline and aware modules, `tage`
///     on the reordered one).  The native and tier-ladder rows are held to
///     observables only — trap, exit value, output — since native code
///     collects no dynamic counters; they are opt-in (OracleChecks).
///  3. Verification: the IR verifier passes after every individual pass
///     of the oracle's own compiles (observed through the pass-observer
///     hook, which is per thread).
///  4. Cost: for every sequence the transformation reordered, the selected
///     ordering's expected cost under the measured profile (Equations 1-4)
///     is no worse than the original ordering's.
///  5. Profile persistence: when the baseline module's adaptive controller
///     tiers up, its exported ProfileDB — round-tripped through both
///     on-disk formats — replayed through the offline pass-2 pipeline must
///     select exactly the orderings the live tier-up deployed, and the
///     recompiled module must behave identically on every held-out input.
///  6. Lowering optimality: the same program recompiled under Set IV
///     (optimal comparison trees + ext-TSP layout, docs/LOWERING.md) must
///     stay observably identical to the baseline on every held-out input,
///     and its emitted shapes must never model-cost more than the Figure-8
///     chains they replaced (ReorderStats::ChosenModelCost <=
///     ChainModelCost — the by-construction never-worse guarantee).  The
///     misprediction-aware Set IV build (selection repriced for the
///     paper's predictor, docs/PREDICT.md) is held to the same bar, and
///     its engine rows join invariant 2's table.
///
/// The behavior comparisons of invariants 1, 5 and 6 run through the same
/// table: after every engine row of an input, each module's tree-walker
/// run is compared with the baseline's.
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
  /// Turn the tier-ladder row on and point its tier-2 host compiler at a
  /// command that never returns.  Not a corruption: the expectation
  /// inverts — a clean oracle run with at least one recorded compile
  /// cancellation proves the tier-2 deadline machinery tears down a
  /// wedged $BROPT_CC and falls back to the fused tier without observable
  /// divergence.
  HangNativeCompile,
  /// Turn the service rows on and, before each replayed request, open extra
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

/// The `bropt-fuzz --fault` spelling of \p Kind ("none" for None).
const char *faultKindName(FaultKind Kind);

/// The opt-in rows and invariants of an oracle run, on top of the ones
/// every run checks (the interpreter rows of invariant 2 and invariants 1,
/// 3, 4 and 5).  A campaign hands the same set to every program.
struct OracleChecks {
  /// The native row: AOT-compile the baseline and reordered modules
  /// (codegen/CEmitter.h + codegen/NativeRunner.h) and hold their runs to
  /// the observables bar.  A generated program the emitter turns into C the
  /// host compiler rejects is itself an emitter bug and is reported as an
  /// engine mismatch.  Silently skipped when no host compiler is available
  /// (NativeRunner::available()).
  bool Native = false;
  /// The tier-ladder row: run both modules through Mode::Adaptive on
  /// controllers built with NativeTier on, persistent across the held-out
  /// set, with a native threshold low enough that held-out runs promote
  /// to tier 2; held to the observables bar.  Silently skipped when
  /// NativeRunner is unavailable.  FaultKind::HangNativeCompile turns the
  /// row on whatever this says, and needs no working compiler.
  bool AdaptiveNative = false;
  /// Invariant 6: recompile under Set IV and hold the optimal-tree +
  /// ext-TSP build to (a) observable identity with the baseline on every
  /// held-out input and (b) the never-worse model-cost guarantee.  Also
  /// recompiles misprediction-aware (Predictor "paper"): the repriced
  /// selection must keep (a) and (b) under its own pricing, and the aware
  /// module's unfused and fused rows join invariant 2's table.
  bool LoweringOptimal = true;
  /// The service rows: replay the program through an in-process broptd
  /// (service/Service.h) — submit the same source + training inputs as a
  /// daemon Compile, then Execute every held-out input over the wire and
  /// hold the responses to the observables plus the two dynamic counters
  /// the protocol carries, against reference modules compiled under the
  /// daemon's own option mapping.  The daemon instance is shared across
  /// the whole campaign, so its artifact cache and profile shards
  /// accumulate state from every prior program — exactly the surface a
  /// corruption would poison.  FaultKind::DropConnection turns the rows on
  /// whatever this says.
  bool Service = false;
};

/// Oracle configuration: the pipeline options under test, the fault to
/// inject (if any) and the opt-in checks.
struct OracleOptions {
  CompileOptions Compile;
  FaultKind Fault = FaultKind::None;
  /// Per-run cap.  Generated programs execute far fewer instructions (the
  /// largest of 28,310 runs — campaigns 1-9, 200 programs each, baseline
  /// and reordered, every training and held-out input — executed 50,285),
  /// so hitting this cap is itself suspicious and reported as a mismatch
  /// when only one side hits it.  A module a fault or a bug sends into an
  /// endless loop runs every engine row to the cap, which is what makes
  /// the cap the cost of a faulty run.
  uint64_t InstructionLimit = 1'000'000;
  /// Tiering knobs for the adaptive and tier-ladder rows — synchronous
  /// optimization, a small hot threshold and short drift windows, so
  /// tier-up, mid-run hot-swap, and drift re-optimization all happen
  /// *inside* the differential run.  One controller per module persists
  /// across the held-out inputs, so later inputs re-enter an
  /// already-tiered controller (the Evaluator's cache-hit path).
  uint64_t AdaptiveHotThreshold = 256;
  uint32_t AdaptiveSampleInterval = 16;
  uint32_t AdaptiveDriftWindow = 32;
  OracleChecks Checks;
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
  /// Service rows only: connections the shared daemon saw die
  /// mid-request over this run.  FaultKind::DropConnection expects
  /// ok() && this >= 1 — the drops happened and corrupted nothing.
  uint64_t DroppedConnections = 0;

  bool ok() const { return Kind == ViolationKind::None; }
};

/// Runs the full oracle over \p Source.  \p TrainingInputs feed the pass-1
/// profile; \p HeldOutInputs are what the behavior and engine oracles
/// compare on.  Installs a pass observer on the calling thread for the
/// duration, so only the compiles run on that thread are verified after
/// every pass; the in-process daemon's workers (OracleChecks::Service)
/// compile unobserved (see setPassObserver).
OracleReport runOracle(std::string_view Source,
                       const std::vector<std::string> &TrainingInputs,
                       const std::vector<std::string> &HeldOutInputs,
                       const OracleOptions &Opts);

} // namespace bropt

#endif // BROPT_FUZZ_ORACLE_H
