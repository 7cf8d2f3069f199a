//===- bench/BenchUtil.h - Shared helpers for the table benches -*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Formatting helpers shared by the bench binaries that regenerate the
/// paper's tables.  Each bench prints rows in the same layout as the
/// corresponding paper table so shapes can be compared side by side.
///
/// All benches evaluate through one process-wide Evaluator: workloads run
/// concurrently on the fused threaded-dispatch engine, and both compiled
/// modules and their fused programs are cached, so sweeps that
/// revisit a heuristic set (Tables 5/6, the ablations) stop recompiling
/// and re-decoding identical inputs.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_BENCH_BENCHUTIL_H
#define BROPT_BENCH_BENCHUTIL_H

#include "driver/Evaluator.h"
#include "driver/Report.h"
#include "predict/BranchPredictor.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace bropt {
namespace bench {

/// Formats a percentage like the paper: "-7.91%" / "+3.42%".
inline std::string pct(double Value) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "%+.2f%%", Value);
  return Buffer;
}

/// Δ% from \p Before to \p After.
inline double delta(uint64_t Before, uint64_t After) {
  return WorkloadEvaluation::deltaPercent(Before, After);
}

/// Prints a horizontal rule of \p Width dashes.
inline void rule(unsigned Width) {
  for (unsigned Index = 0; Index < Width; ++Index)
    std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

/// The process-wide evaluation harness.  Living for the whole bench run
/// lets the compile cache span every sweep the bench performs.
inline Evaluator &sharedEvaluator() {
  static Evaluator Eval;
  return Eval;
}

/// Aborts the bench with a diagnostic unless every evaluation succeeded
/// and at least one workload was evaluated (averages divide by the count).
inline void
checkEvaluations(const std::vector<WorkloadEvaluation> &Evals) {
  if (Evals.empty()) {
    std::fprintf(stderr, "bench error: no workloads were evaluated\n");
    std::exit(1);
  }
  for (const WorkloadEvaluation &Eval : Evals)
    if (!Eval.ok()) {
      std::fprintf(stderr, "bench error: %s\n", Eval.Error.c_str());
      std::exit(1);
    }
}

/// Evaluates all workloads under \p Set, aborting the bench on errors.
inline std::vector<WorkloadEvaluation>
evaluateSet(SwitchHeuristicSet Set,
            const std::optional<PredictorConfig> &Predictor = std::nullopt,
            ReorderOptions Reorder = {}) {
  CompileOptions Options;
  Options.HeuristicSet = Set;
  Options.Reorder = Reorder;
  std::vector<WorkloadEvaluation> Evals =
      sharedEvaluator().evaluateAll(Options, Predictor);
  checkEvaluations(Evals);
  return Evals;
}

} // namespace bench
} // namespace bropt

#endif // BROPT_BENCH_BENCHUTIL_H
