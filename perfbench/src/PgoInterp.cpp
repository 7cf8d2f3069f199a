//===- perfbench/src/PgoInterp.cpp - The pgo-interp workload --------------===//
//
// `broptc --set IV --predictor paper --train T --input X --run`, for each of
// the seventeen programs in turn, single-threaded: the two-pass compile with
// the measured ext-TSP layout, then the fused engine with the paper's
// (0,2)/2048 predictor attached.  Profiling and the fused engine do nearly
// all the work; codegen, runtime and service stay idle.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Pipeline.h"

#include "codegen/CEmitter.h"
#include "codegen/NativeRunner.h"
#include "exec/ExecBackend.h"
#include "predict/Zoo.h"
#include "sim/Fuse.h"

#include <optional>

using namespace bropt;

namespace perfbench {

namespace {

/// Training inputs are 4x and test inputs 10x the stock sizes: long enough
/// that every per-program timing is milliseconds, not microseconds, short
/// enough that the tree-walker references fit set-up five times a run.
constexpr double TrainScale = 4;
constexpr double TestScale = 10;

struct PgoSetup {
  std::vector<Program> Programs;
  /// Tree walker on each baseline build, on the program's test input.
  std::vector<RunResult> Refs;
};

PgoSetup makePgoSetup(uint64_t Seed, Tracer &T) {
  PgoSetup S;
  {
    Scope Sp(T, "workloads.inputs", "all");
    S.Programs = makePrograms(Seed, TrainScale, TestScale);
  }
  Scope Sp(T, "sim.reference", "all");
  std::vector<std::vector<std::string_view>> Tests;
  for (const Program &P : S.Programs)
    Tests.push_back({P.Test});
  for (std::vector<RunResult> &Ref : referenceRuns(S.Programs, Tests))
    S.Refs.push_back(std::move(Ref.front()));
  return S;
}

/// Per-program samples, one per repetition.
struct PhaseTimes {
  std::vector<double> Compile, Run;
};

/// compile_s and run_s (sums over programs of each program's minimum over
/// repetitions), latency_p50_ms and compile_p50_ms (the median program's
/// minimum compile + run and compile alone) and capacity_rps (programs per
/// second, compile included, one at a time).  Per-repetition sums go to
/// \p Details beside them.
void reportPhaseTimes(std::map<std::string, double> &E2E, JsonObject &Details,
                      const std::vector<PhaseTimes> &Times) {
  double Compile = 0, Run = 0;
  std::vector<double> CompileEach, LatencyEach, CompileReps, RunReps;
  for (const PhaseTimes &P : Times) {
    Compile += minOf(P.Compile);
    Run += minOf(P.Run);
    CompileEach.push_back(minOf(P.Compile));
    LatencyEach.push_back(minOf(P.Compile) + minOf(P.Run));
    for (size_t Rep = 0; Rep < P.Compile.size(); ++Rep) {
      if (CompileReps.size() <= Rep) {
        CompileReps.push_back(0);
        RunReps.push_back(0);
      }
      CompileReps[Rep] += P.Compile[Rep];
      RunReps[Rep] += P.Run[Rep];
    }
  }
  E2E["compile_s"] = Compile;
  E2E["run_s"] = Run;
  E2E["latency_p50_ms"] = median(LatencyEach) * 1e3;
  E2E["compile_p50_ms"] = median(CompileEach) * 1e3;
  E2E["capacity_rps"] =
      Compile + Run > 0 ? static_cast<double>(Times.size()) / (Compile + Run)
                        : 0.0;
  Details.samples("compile_s_per_rep", CompileReps);
  Details.samples("run_s_per_rep", RunReps);
}

/// The codegen per-layer numbers for the final modules: emitC, then a cold
/// NativeRunner::prepare on a fresh runner, and one native run each,
/// checked against the reference.  This measures the native path the
/// modules would take; the host compiler stays out of the end-to-end
/// timings.
void reportCodegen(const PgoSetup &S,
                   const std::vector<std::unique_ptr<Module>> &Modules,
                   Tracer &T, Report &R) {
  NativeRunner Runner;
  double Emit = 0, Prepare = 0, Exec = 0, CBytes = 0;
  uint64_t Prepared = 0;
  for (size_t Index = 0; Index < Modules.size(); ++Index) {
    if (!Modules[Index])
      continue;
    const Module &M = *Modules[Index];
    const std::string &Name = S.Programs[Index].Name;
    std::string Error;
    Clock::time_point T0 = Clock::now();
    {
      Scope Sp(T, "codegen.emit", Name);
      CBytes += static_cast<double>(emitC(M).size());
    }
    Clock::time_point T1 = Clock::now();
    std::shared_ptr<const NativeProgram> Native;
    {
      Scope Sp(T, "codegen.prepare", Name);
      Native = Runner.prepare(M, &Error);
    }
    Clock::time_point T2 = Clock::now();
    ++Prepared;
    if (!Native) {
      R.op(false);
      R.fail(Name + ": native compile failed: " + Error);
      continue;
    }
    ExecRequest Req;
    Req.Input = S.Programs[Index].Test;
    Req.Native = Native.get();
    RunResult Run;
    {
      Scope Sp(T, "codegen.exec", Name);
      Run = executeModule(M, Interpreter::Mode::Native, Req);
    }
    R.op(sameObservables(Run, S.Refs[Index]));
    Emit += secondsBetween(T0, T1);
    Prepare += secondsBetween(T1, T2);
    Exec += secondsSince(T2);
  }
  // A fresh runner has nothing cached, so every prepare must compile.
  NativeRunnerStats Stats = Runner.stats();
  if (Stats.Compiles != Prepared || Stats.CacheHits != 0)
    R.fail("cold native prepares made " + std::to_string(Stats.Compiles) +
           " host compiles and " + std::to_string(Stats.CacheHits) +
           " cache hits; expected " + std::to_string(Prepared) + " and 0");
  R.PerLayer["codegen.emit_s"] = Emit;
  R.PerLayer["codegen.cc_s"] = Prepare - Emit;
  R.PerLayer["codegen.exec_s"] = Exec;
  R.PerLayer["codegen.c_bytes"] = CBytes;
  R.PerLayer["codegen.compiles"] = static_cast<double>(Stats.Compiles);
  R.PerLayer["codegen.cache_hits"] = static_cast<double>(Stats.CacheHits);
}

/// What a program's run must repeat exactly in every repetition.
struct Counts {
  uint64_t Insts = 0, Branches = 0, Misses = 0, StaticInsts = 0;
  bool operator==(const Counts &) const = default;
};

} // namespace

void runPgoInterp(const Options &O, Tracer &T, Report &R) {
  std::map<std::string, double> TracedE2E;
  PgoSetup S = repeatedSetup(O, T, R, TracedE2E,
                             [&] { return makePgoSetup(O.Seed, T); });
  const CompileOptions CO = paperOptions();
  const size_t N = S.Programs.size();

  std::vector<PhaseTimes> Plain(N), WithSpans(N);
  std::vector<std::string> Fingerprints(N);
  std::vector<std::optional<Counts>> Expected(N);
  std::vector<std::unique_ptr<Module>> Final(N);
  std::vector<std::map<std::string, double>> TracedReps;
  // Per-layer counts, summed over programs in each traced repetition.
  ReorderStats Sums;
  uint64_t ProfileBytes = 0, FusedChains = 0;

  Clock::time_point Start = Clock::now();
  for (unsigned Rep = 0;; ++Rep) {
    if (Rep >= minReps(O) && secondsSince(Start) >= O.Seconds)
      break;
    bool Tracing = O.Trace && Rep % 2 == 1;
    T.setEnabled(Tracing);
    size_t FirstSpan = T.size();
    if (Tracing) {
      Sums = ReorderStats();
      ProfileBytes = FusedChains = 0;
    }
    for (size_t Index = 0; Index < N; ++Index) {
      const Program &P = S.Programs[Index];
      std::vector<std::string_view> Training{P.Train};
      std::unique_ptr<Predictor> Paper = makePredictor("paper");
      ExecRequest Req;
      Req.Input = P.Test;
      Req.AttachedPredictor = Paper.get();
      RunResult Run;
      FuseStats Fuse;

      Clock::time_point T0 = Clock::now();
      CompileResult C =
          Tracing ? tracedCompileWithReordering(T, P.Name, P.Source, Training, CO)
                  : compileWithReordering(P.Source, Training, CO);
      Clock::time_point T1 = Clock::now();
      if (C.ok() && Tracing) {
        std::optional<DecodedModule> Fused;
        {
          Scope Sp(T, "sim.fuse", P.Name);
          Fused.emplace(decodeFused(*C.M, FuseOptions(), &Fuse));
        }
        Req.Prepared = &*Fused;
        Scope Sp(T, "sim.exec", P.Name);
        Run = executeModule(*C.M, Interpreter::Mode::Fused, Req);
      } else if (C.ok()) {
        Run = executeModule(*C.M, Interpreter::Mode::Fused, Req);
      }
      Clock::time_point T2 = Clock::now();
      PhaseTimes &Times = (Tracing ? WithSpans : Plain)[Index];
      Times.Compile.push_back(secondsBetween(T0, T1));
      Times.Run.push_back(secondsBetween(T1, T2));

      // Guards, outside the timed regions.
      bool Ok = C.ok() && sameObservables(Run, S.Refs[Index]);
      R.op(Ok);
      if (!C.ok()) {
        R.fail(P.Name + ": compile failed: " + C.Error);
        continue;
      }
      std::string Print = fingerprint(C);
      if (Fingerprints[Index].empty())
        Fingerprints[Index] = std::move(Print);
      else if (Print != Fingerprints[Index])
        R.fail(P.Name + (Tracing ? ": traced pipeline differs from "
                                   "compileWithReordering"
                                 : ": compile is not deterministic"));
      Counts Got{Run.Counts.TotalInsts, Run.Counts.CondBranches,
                 Paper->getStats().Mispredictions, C.M->codeSize()};
      if (!Expected[Index])
        Expected[Index] = Got;
      else if (!(Got == *Expected[Index]))
        R.fail(P.Name + ": dynamic or static counts changed between "
                        "repetitions");
      if (Tracing) {
        Sums.Detected += C.Stats.Detected;
        Sums.Reordered += C.Stats.Reordered;
        Sums.OptimalTrees += C.Stats.OptimalTrees;
        Sums.ChainModelCost += C.Stats.ChainModelCost;
        Sums.ChosenModelCost += C.Stats.ChosenModelCost;
        Sums.Layout.accumulate(C.Stats.Layout);
        ProfileBytes += C.ProfileText.size();
        FusedChains += Fuse.FusedChains;
      }
      Final[Index] = std::move(C.M);
    }
    if (Tracing)
      TracedReps.push_back(T.selfSeconds(FirstSpan));
  }
  T.setEnabled(false);

  Counts Total;
  for (const std::optional<Counts> &C : Expected)
    if (C) {
      Total.Insts += C->Insts;
      Total.Branches += C->Branches;
      Total.Misses += C->Misses;
      Total.StaticInsts += C->StaticInsts;
    }
  reportPhaseTimes(R.EndToEnd, R.Details, Plain);
  R.EndToEnd["dyn_insts"] = static_cast<double>(Total.Insts);
  R.EndToEnd["dyn_branches"] = static_cast<double>(Total.Branches);
  R.EndToEnd["mispredictions"] = static_cast<double>(Total.Misses);
  R.EndToEnd["static_insts"] = static_cast<double>(Total.StaticInsts);
  finishReport(R);
  if (!O.Trace)
    return;

  JsonObject Ignored;
  reportPhaseTimes(TracedE2E, Ignored, WithSpans);
  for (const char *Same : {"dyn_insts", "dyn_branches", "mispredictions",
                           "static_insts", "ok_ratio", "peak_rss_mb"})
    TracedE2E[Same] = R.EndToEnd[Same];
  reportTraceOverhead(R, R.EndToEnd, TracedE2E);
  reportSpanMinima(R, TracedReps);
  R.PerLayer["opt.fall_through_weight"] =
      static_cast<double>(Sums.Layout.FallThroughWeightAfter);
  R.PerLayer["core.sequences_detected"] = Sums.Detected;
  R.PerLayer["core.sequences_reordered"] = Sums.Reordered;
  R.PerLayer["cost.optimal_trees"] = Sums.OptimalTrees;
  R.PerLayer["cost.chain_model_cost"] = Sums.ChainModelCost;
  R.PerLayer["cost.chosen_model_cost"] = Sums.ChosenModelCost;
  R.PerLayer["profile.bytes"] = static_cast<double>(ProfileBytes);
  R.PerLayer["predict.miss_rate"] =
      Total.Branches ? static_cast<double>(Total.Misses) / Total.Branches
                     : 0.0;
  R.PerLayer["sim.fused_chains"] = static_cast<double>(FusedChains);
  double ExecSeconds = R.PerLayer["sim.exec_s"];
  R.PerLayer["sim.minsts_per_s"] =
      ExecSeconds > 0 ? static_cast<double>(Total.Insts) / ExecSeconds / 1e6
                      : 0.0;
  T.setEnabled(true);
  reportCodegen(S, Final, T, R);
  T.setEnabled(false);
}

} // namespace perfbench
