//===- driver/Evaluator.h - Parallel cached workload evaluation -*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workload evaluation harness: it compiles each workload's baseline
/// and reordered builds and measures both through measureBuild
/// (driver/Report.h).  The paper-tables golden and broptd's Evaluate
/// requests run on it.  Two properties make it cheap to call in sweeps:
///
///  * workloads are compiled and interpreted concurrently on a ThreadPool
///    (one task per workload; compiled modules are immutable during
///    measurement, so concurrent interpretation is safe);
///  * builds live in an ArtifactCache (driver/Artifact.h).  Baseline
///    builds depend only on (source, heuristic set) and reordered builds
///    on (source, training input, full options), so the predictor sweeps
///    of Tables 5/6, which re-evaluate identical builds under many
///    predictor configurations, compile and prepare each build once.
///
/// DynamicCounts and PredictorStats never depend on wall clock or thread
/// schedule: interpretation is deterministic, so the records produced here
/// are the same whatever the thread count (see docs/SIM.md).
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_DRIVER_EVALUATOR_H
#define BROPT_DRIVER_EVALUATOR_H

#include "driver/Artifact.h"
#include "driver/Report.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <memory>

namespace bropt {

/// Harness configuration.
struct EvaluatorOptions {
  /// Worker threads; 0 means one per hardware thread.
  unsigned Threads = 0;
  /// Execution engine for every interpreter run.
  Interpreter::Mode Mode = Interpreter::Mode::Fused;
  /// Controller knobs for Mode::Adaptive (Runtime.NativeTier turns tier 2
  /// on); ignored by the other engines.
  RuntimeOptions Runtime;
};

/// A WorkloadEvaluation plus where its builds came from.
struct WorkloadRecord {
  WorkloadEvaluation Eval;
  /// The build's artifact was already in the cache.
  bool BaselineCacheHit = false;
  bool ReorderedCacheHit = false;
  /// The engine the mode runs (fused program, controller or native
  /// program) was already built on the artifact.  Never set in tree mode.
  /// A reused controller carries its profile state into this evaluation.
  bool BaselineEngineHit = false;
  bool ReorderedEngineHit = false;
};

/// Compiles and evaluates workloads concurrently over an artifact cache.
/// One Evaluator is meant to live across sweeps so the cache spans them.
/// evaluateWorkload() is safe from concurrent callers in every mode —
/// broptd serves Evaluate requests from its worker pool this way — and
/// adaptive runs of one build take turns on its controller.
class Evaluator {
public:
  /// Keeps builds in \p Cache, or, when null, in a private cache of 256
  /// artifacts: enough for the paper-tables sweep (204 builds) to compile
  /// each build once, while a long-running process stays bounded.
  explicit Evaluator(EvaluatorOptions Options = {},
                     std::shared_ptr<ArtifactCache> Cache = nullptr);

  const EvaluatorOptions &options() const { return Options; }
  ArtifactCache &cache() { return *Cache; }

  /// Evaluates one workload, reusing cached builds when possible.
  WorkloadRecord
  evaluateWorkload(const Workload &W, const CompileOptions &Options,
                   const std::optional<PredictorConfig> &Predictor =
                       std::nullopt);

  /// Evaluates \p Workloads concurrently, preserving input order.
  std::vector<WorkloadRecord> evaluateWorkloads(
      const std::vector<Workload> &Workloads, const CompileOptions &Options,
      const std::optional<PredictorConfig> &Predictor = std::nullopt);

  /// Every standard workload, concurrently, without the cache-hit
  /// records.
  std::vector<WorkloadEvaluation> evaluateAll(
      const CompileOptions &Options,
      const std::optional<PredictorConfig> &Predictor = std::nullopt);

private:
  EvaluatorOptions Options;
  ThreadPool Pool;
  std::shared_ptr<ArtifactCache> Cache;
};

} // namespace bropt

#endif // BROPT_DRIVER_EVALUATOR_H
