//===- driver/Report.h - Per-build measurements -----------------*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures one build of a workload on its test input and holds every
/// quantity the paper's tables report: dynamic instructions and branches
/// (Table 4), mispredictions under a configured predictor (Tables 5-6),
/// model cycles under both machine models (Table 7's relative times), and
/// static size / sequence statistics (Table 8, Figures 11-13).  The
/// Evaluator (driver/Evaluator.h) pairs a baseline and a reordered
/// measurement into a WorkloadEvaluation.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_DRIVER_REPORT_H
#define BROPT_DRIVER_REPORT_H

#include "driver/Driver.h"
#include "exec/ExecBackend.h"
#include "predict/BranchPredictor.h"
#include "runtime/AdaptiveController.h"
#include "sim/Interpreter.h"

#include <optional>

namespace bropt {

/// Measurements for one build of one workload.
struct BuildMeasurement {
  DynamicCounts Counts;
  uint64_t Mispredictions = 0;
  uint64_t CyclesIPC = 0;   ///< SPARC IPC/20-like machine model
  uint64_t CyclesUltra = 0; ///< SPARC Ultra-like (expensive ijmp)
  size_t CodeSize = 0;
  std::string Output;
  int64_t ExitValue = 0;
  /// Tiering counters when the run went through an AdaptiveController
  /// (cumulative over the controller's lifetime, snapshotted after the
  /// run); all zero otherwise.
  RuntimeStats Runtime;
};

/// Baseline vs. reordered comparison for one workload.
struct WorkloadEvaluation {
  std::string Name;
  std::string Error; ///< empty on success
  BuildMeasurement Baseline;
  BuildMeasurement Reordered;
  ReorderStats Stats;
  SwitchLoweringStats SwitchStats;
  bool OutputsMatch = false;

  bool ok() const { return Error.empty(); }

  /// Percentage change from baseline to reordered; negative is better.
  static double deltaPercent(uint64_t Before, uint64_t After);
};

/// Interprets one build of \p M on \p TestInput under \p Mode and collects
/// every per-build quantity the tables report.  On a trap, \p Error is
/// filled and the measurement is partial.  Thread-safe for concurrent
/// callers sharing one (immutable) module.  \p Engine names the engine
/// the run goes through, usually an artifact's slot (Artifact::engine):
/// its Prepared, Adaptive or Native; measureBuild sets its Input and
/// AttachedPredictor.  Without one the exec backend decodes or compiles
/// on the fly.  An Adaptive controller must have been built over \p M,
/// runs through it must not overlap, and its profile state persists
/// across measureBuild calls — a second run of the same workload starts
/// in the fused tier.  Native runs report zero DynamicCounts,
/// mispredictions, and model cycles — only the observables (Output,
/// ExitValue) and wall clock are meaningful.  Dispatch goes through
/// exec/ExecBackend.h, so every engine consumer shares one code path.
BuildMeasurement
measureBuild(const Module &M, std::string_view TestInput,
             const std::optional<PredictorConfig> &Predictor,
             std::string &Error,
             Interpreter::Mode Mode = Interpreter::Mode::Fused,
             ExecRequest Engine = {});

/// As above, but measures under any zoo member (predict/Zoo.h) instead of
/// constructing an (m,n) predictor from a config.  \p AttachedPredictor may
/// be null (no prediction measured); when set, the caller owns it and
/// should pass a freshly reset instance — mispredictions are read off its
/// cumulative stats after the run.
BuildMeasurement
measureBuild(const Module &M, std::string_view TestInput,
             Predictor *AttachedPredictor, std::string &Error,
             Interpreter::Mode Mode = Interpreter::Mode::Fused,
             ExecRequest Engine = {});

} // namespace bropt

#endif // BROPT_DRIVER_REPORT_H
