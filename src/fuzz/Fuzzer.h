//===- fuzz/Fuzzer.h - Randomized differential-testing campaigns -*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives fuzzing campaigns: generate a program from a seed, pick a
/// pipeline configuration from the same seed (cycling heuristic sets,
/// method selection, exhaustive ordering search, common-successor
/// reordering, default-target duplication, Form-4 branch ordering), run
/// the oracle (fuzz/Oracle.h), and on a violation minimize the program and
/// write a reproducer to the corpus directory.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_FUZZ_FUZZER_H
#define BROPT_FUZZ_FUZZER_H

#include "fuzz/Oracle.h"

#include <cstdint>
#include <string>
#include <vector>

namespace bropt {

/// Campaign configuration.
struct FuzzOptions {
  /// Base seed; program i uses a stream derived from (Seed, i).
  uint64_t Seed = 1;
  /// Number of programs to run (ignored when Seconds > 0).
  unsigned Programs = 200;
  /// Wall-clock budget; 0 means run exactly Programs programs.
  unsigned Seconds = 0;
  /// Directory reproducers are written to; empty disables writing.
  std::string CorpusDir;
  /// Fault to inject into every oracle run (self-test modes).
  FaultKind Fault = FaultKind::None;
  /// Cap on delta-debugging rounds per violation.
  unsigned MinimizeRounds = 16;
  /// The opt-in rows and invariants every program's oracle run checks.
  OracleChecks Checks;
  /// Print per-violation detail to stderr as the campaign runs.
  bool Verbose = false;
};

/// One campaign violation, minimized.
struct FuzzViolation {
  uint64_t ProgramSeed = 0;
  /// Position of the program in its campaign: ProgramSeed is
  /// Rng::mix(FuzzOptions::Seed, Index).
  unsigned Index = 0;
  ViolationKind Kind = ViolationKind::None;
  std::string Detail;
  /// Minimized reproducer source.
  std::string Source;
  size_t Statements = 0;
  /// Path the reproducer was written to ("" if corpus writing is off).
  std::string Path;
};

/// Campaign results.
struct FuzzCampaignResult {
  unsigned ProgramsRun = 0;
  /// Programs the front end rejected — generator bugs, tracked separately
  /// from pipeline violations and expected to be zero.
  unsigned CompileErrors = 0;
  /// Tier-2 compile cancellations summed over every clean oracle run.
  /// FaultKind::HangNativeCompile inverts the campaign expectation: zero
  /// violations AND at least one cancellation, proving the compile
  /// deadline tears down a wedged host compiler without observable harm.
  uint64_t NativeCompileCancellations = 0;
  /// Connections the shared daemon saw die mid-request, summed over every
  /// clean oracle run (service rows only).  FaultKind::
  /// DropConnection inverts the campaign expectation the same way: zero
  /// violations AND at least one drop, proving a vanishing client never
  /// corrupts the daemon's shared caches or profile shards.
  uint64_t DroppedConnections = 0;
  std::vector<FuzzViolation> Violations;
};

/// Derives the pipeline configuration program \p ProgramSeed runs under.
/// Exposed so a reproducer's recorded seed rebuilds the exact options.
OracleOptions optionsForSeed(uint64_t ProgramSeed, FaultKind Fault);

/// Runs a campaign.
FuzzCampaignResult runFuzzCampaign(const FuzzOptions &Opts);

/// Renders a reproducer file: the minimized source preceded by a comment
/// header recording the seed, configuration, and violation, and the
/// bropt-fuzz command that re-runs the program under \p Campaign's seed,
/// fault and checks, so the case replays from the file alone.
std::string renderReproducer(const FuzzViolation &Violation,
                             const FuzzOptions &Campaign);

} // namespace bropt

#endif // BROPT_FUZZ_FUZZER_H
