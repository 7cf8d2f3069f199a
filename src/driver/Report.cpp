//===- driver/Report.cpp - Per-build measurements -------------------------===//

#include "driver/Report.h"

#include "cost/MachineModel.h"

using namespace bropt;

double WorkloadEvaluation::deltaPercent(uint64_t Before, uint64_t After) {
  if (Before == 0)
    return 0.0;
  return 100.0 *
         (static_cast<double>(After) - static_cast<double>(Before)) /
         static_cast<double>(Before);
}

BuildMeasurement
bropt::measureBuild(const Module &M, std::string_view TestInput,
                    Predictor *AttachedPredictor, std::string &Error,
                    Interpreter::Mode Mode, ExecRequest Engine) {
  BuildMeasurement Result;
  Result.CodeSize = M.codeSize();

  Engine.Input = TestInput;
  Engine.AttachedPredictor = AttachedPredictor;
  RunResult Run = executeModule(M, Mode, Engine);
  if (Engine.Adaptive)
    Result.Runtime = Engine.Adaptive->stats();
  if (Run.Trapped) {
    Error = "test run trapped: " + Run.TrapReason;
    return Result;
  }
  Result.Counts = Run.Counts;
  Result.Output = std::move(Run.Output);
  Result.ExitValue = Run.ExitValue;
  if (AttachedPredictor)
    Result.Mispredictions = AttachedPredictor->getStats().Mispredictions;
  Result.CyclesIPC = computeCycles(MachineModel::sparcIPCLike(), Run.Counts,
                                   Result.Mispredictions);
  Result.CyclesUltra = computeCycles(MachineModel::sparcUltraLike(),
                                     Run.Counts, Result.Mispredictions);
  return Result;
}

BuildMeasurement
bropt::measureBuild(const Module &M, std::string_view TestInput,
                    const std::optional<PredictorConfig>
                        &PredictorConfiguration,
                    std::string &Error, Interpreter::Mode Mode,
                    ExecRequest Engine) {
  // One fresh predictor per measurement: state and statistics must never
  // leak between builds (the isolation contract the predictor tests pin).
  std::optional<BranchPredictor> Predictor;
  if (PredictorConfiguration)
    Predictor.emplace(*PredictorConfiguration);
  return measureBuild(M, TestInput, Predictor ? &*Predictor : nullptr,
                      Error, Mode, Engine);
}
