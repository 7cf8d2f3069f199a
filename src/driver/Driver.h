//===- driver/Driver.h - The two-pass compilation pipeline ------*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the compilation process of paper Figure 2:
///
///   pass 1: front end -> conventional optimizations + switch lowering ->
///           detect reorderable sequences -> instrument -> run on the
///           training input -> profile data
///   pass 2: recompile identically -> re-detect (ids match because
///           compilation is deterministic) -> select orderings from the
///           profile -> restructure -> clean up and finalize layout
///
/// compileBaseline() runs the same pipeline with reordering disabled; the
/// Evaluator (driver/Evaluator.h) diffs the two on identical test inputs.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_DRIVER_DRIVER_H
#define BROPT_DRIVER_DRIVER_H

#include "core/CommonSuccessor.h"
#include "core/Reorder.h"
#include "core/SequenceDetection.h"
#include "opt/SwitchLowering.h"
#include "profile/ProfileDB.h"

#include <memory>
#include <string>
#include <string_view>

namespace bropt {

/// Pipeline configuration.
struct CompileOptions {
  SwitchHeuristicSet HeuristicSet = SwitchHeuristicSet::SetI;
  ReorderOptions Reorder;
  /// §10 extension: also profile and reorder common-successor branch
  /// sequences (Figure 14).
  bool EnableCommonSuccessorReordering = false;
  /// Misprediction-aware selection (docs/PREDICT.md): the zoo name of the
  /// predictor the compile targets (`broptc --predictor`).  Non-empty:
  /// pass 1 additionally measures per-branch mispredictions under this
  /// predictor into the ProfileKind::Misprediction plane, and pass 2
  /// calibrates Reorder.Cost from the imported plane so shape selection
  /// (chain vs tree vs table) minimizes expected cycles including the
  /// mispredict charge.  Empty (default): the cost model stays
  /// prediction-unaware and every decision is bit-identical to before.
  std::string Predictor;
};

/// Cycles one mispredicted branch costs in the shape-selection model when
/// a predictor is targeted — MachineModel::sparcUltraLike's penalty, the
/// machine the paper measured prediction on.
inline constexpr double DefaultMispredictPenalty = 4.0;

/// Everything the evaluation wants to know about one compilation.
struct CompileResult {
  std::unique_ptr<Module> M;
  /// Empty on success; front-end or pipeline diagnostics otherwise.
  std::string Error;
  SwitchLoweringStats SwitchStats;
  /// Sequence statistics (zeroed for baseline compiles).
  ReorderStats Stats;
  /// §10 common-successor statistics (zeroed unless enabled).
  CommonSuccessorStats CommonStats;
  /// Serialized profile collected by pass 1 (empty for baseline).
  std::string ProfileText;
  /// Per reordered sequence (branches before, after) lives in Stats.

  bool ok() const { return Error.empty(); }
};

/// The reorder options pass 2 actually runs with: \p Options.Reorder plus
/// the Set IV preset (optimal trees + method selection) and, when a
/// predictor is targeted, the armed mispredict charge.  Exposed so callers
/// that rebuild outside the driver — the adaptive runtime's tier-2, the
/// benches — select shapes under the same model.
ReorderOptions effectiveReorderOptions(const CompileOptions &Options);

/// Compiles without the reordering transformation: front end, switch
/// lowering under \p Options.HeuristicSet, conventional optimizations,
/// final layout.  This is the paper's "Original" measurement build.
CompileResult compileBaseline(std::string_view Source,
                              const CompileOptions &Options);

/// Pass 1 only: returns the instrumented module and, after running it on
/// \p TrainingInput, the profile.  Exposed for tests; most callers use
/// compileWithReordering.
struct Pass1Result {
  std::unique_ptr<Module> M;
  std::string Error;
  std::vector<RangeSequence> Sequences;
  std::vector<CommonSuccessorSequence> CommonSequences;
  ProfileDB Profile;
  SwitchLoweringStats SwitchStats;
  bool ok() const { return Error.empty(); }
};
Pass1Result runPass1(std::string_view Source, std::string_view TrainingInput,
                     const CompileOptions &Options);

/// Pass 1 over several training data sets: the instrumented binary runs
/// once per input and the counters accumulate.  The paper (§9) points out
/// that multiple training sets raise the fraction of detected sequences
/// that actually get reordered.
Pass1Result runPass1(std::string_view Source,
                     const std::vector<std::string_view> &TrainingInputs,
                     const CompileOptions &Options);

/// The full two-pass pipeline: profile on \p TrainingInput, then recompile
/// with reordering applied.
CompileResult compileWithReordering(std::string_view Source,
                                    std::string_view TrainingInput,
                                    const CompileOptions &Options);

/// Two-pass pipeline over several training data sets.
CompileResult
compileWithReordering(std::string_view Source,
                      const std::vector<std::string_view> &TrainingInputs,
                      const CompileOptions &Options);

/// Pass 2 only: recompiles \p Source and selects orderings from an
/// existing profile — loaded from disk (`broptc --profile-in`), merged
/// from several training runs, or exported by the adaptive runtime.
/// Records are matched by (function, ordinal) with signature validation,
/// so a profile saved against different source degrades to diagnosed
/// skips, never to wrong orderings.
CompileResult compileWithProfile(std::string_view Source,
                                 const ProfileDB &Profile,
                                 const CompileOptions &Options);

/// Profile-guided layout from a fresh measurement: measures \p Result's
/// edge weights on \p Inputs (exec/ExecBackend.h: collectEdgeWeights),
/// applies the ext-TSP layout from them (opt/Passes.h), exports the
/// weights into \p Profile, and refreshes Result.ProfileText — so a saved
/// profile reproduces the layout offline via compileWithProfile.  No-op
/// (returns false) when Result already failed or layout is disabled in
/// \p Options.  compileWithReordering calls this itself; broptc calls it
/// after a --train compile.
bool applyMeasuredLayout(CompileResult &Result,
                         const std::vector<std::string_view> &Inputs,
                         ProfileDB &Profile, const CompileOptions &Options);

} // namespace bropt

#endif // BROPT_DRIVER_DRIVER_H
