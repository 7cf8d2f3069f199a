//===- bench/bench_json.cpp - Machine-readable bench-suite output ---------===//
//
// Runs the sweeps behind the table benches (heuristic sets I-III, the
// Table 5 predictor, and the Table 6 predictor sweep) across the engine
// matrix — fused (threaded dispatch + superinstructions), tier0 (the
// adaptive engine held on the unfused stream it starts from), and
// adaptive (online tiering, docs/RUNTIME.md), each under the serial and
// the threaded harness — and emits two JSON documents:
//
//  * BENCH_tables.json (--out): per-workload dynamic counts and timings
//    from the fused/threaded configuration, regenerated locally, not
//    committed;
//  * BENCH_engine.json (--engine-out): the engine perf trajectory —
//    warmup + median-of-N wall times per configuration, dynamic
//    instruction rates, fused-over-tier0 speedups, adaptive tiering
//    counters and overhead-vs-oracle ratio, a dedicated phase-shift
//    benchmark (adaptive vs never-tiering tier 0), and fuse and cache
//    statistics.  This file IS committed so speedups persist across PRs.
//
// A lowering matrix (heuristic sets I-IV crossed with the hot-first and
// ext-TSP layouts) reports modeled cycles, optimal-tree counts, and
// layout fall-through weights per cell, enforces the two deterministic
// never-worse guarantees (chosen model cost <= chain model cost;
// fall-through weight after >= before), and — when a host compiler is
// available — gates Set IV + ext-TSP against Set II + hot-first on
// native wall clock (docs/LOWERING.md).
//
// After the interpreter matrix, the native AOT configuration runs
// separately (its first repetition pays the host-compiler invocations):
// every sweep re-executes as compiled machine code, observables are
// checked against the fused engine, and — where perf_event access
// permits — the ordered and unordered shared objects run under hardware
// branch/branch-miss counters, grounding the paper's claim on real
// silicon.  Both land in BENCH_engine.json's "native" section.
//
// The tier-2 configuration then replays the sweeps through the full
// online ladder (unfused -> fused -> native): warmup passes run
// until the promotion front stops moving, timed repetitions measure the
// all-native steady state against both the adaptive interpreter and the
// offline AOT ceiling, and a dedicated phase-shift bench alternates
// input phases as whole activations to prove drift deopts, re-promotes
// from the signature cache, and stays inside the compile budget — with
// hardware branch counters contrasting the native and fused tiers.
// Everything lands in BENCH_engine.json's "adaptive_native" section.
//
// Every configuration replays identical logical work: dynamic counts are
// engine-invariant, so the wall-clock ratios are pure dispatch/fusion
// wins.  --verify-engines re-runs sweeps on the tree-walking reference
// and aborts on any observable divergence (counts, mispredictions,
// output bytes, exit values); "smoke" checks a representative subset,
// "all" every sweep, "off" none.
//
// Usage: bench_json [--out FILE] [--engine-out FILE] [--threads N]
//                   [--reps N] [--warmup N] [--smoke]
//                   [--verify-engines all|smoke|off] [--no-compare]
//                   [--fail-if-slower]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "codegen/NativeRunner.h"
#include "driver/Driver.h"
#include "exec/ExecBackend.h"
#include "predict/Zoo.h"
#include "profile/ProfileDB.h"
#include "runtime/AdaptiveController.h"
#include "runtime/HotnessSampler.h"
#include "sim/Fuse.h"
#include "support/PerfCounters.h"

#include <cstring>
#include <fstream>
#include <limits>
#include <memory>

using namespace bropt;
using namespace bropt::bench;

namespace {

/// One sweep = one (heuristic set, predictor) evaluation of all workloads.
struct SweepSpec {
  std::string Label;
  SwitchHeuristicSet Set;
  std::optional<PredictorConfig> Predictor;
};

std::vector<SweepSpec> suiteSweeps() {
  std::vector<SweepSpec> Sweeps;
  Sweeps.push_back({"table4/setI", SwitchHeuristicSet::SetI, std::nullopt});
  Sweeps.push_back({"table4/setII", SwitchHeuristicSet::SetII, std::nullopt});
  Sweeps.push_back(
      {"table4/setIII", SwitchHeuristicSet::SetIII, std::nullopt});
  Sweeps.push_back({"table4/setIV", SwitchHeuristicSet::SetIV, std::nullopt});
  Sweeps.push_back({"table5/ultrasparc", SwitchHeuristicSet::SetI,
                    PredictorConfig::ultraSparc()});
  for (unsigned Entries : {32u, 64u, 128u, 256u, 512u, 1024u, 2048u})
    for (unsigned Width = 1; Width <= 2; ++Width) {
      PredictorConfig Config;
      Config.HistoryBits = 0;
      Config.CounterBits = Width;
      Config.NumEntries = Entries;
      char Label[64];
      std::snprintf(Label, sizeof(Label), "table6/(0,%u)x%u", Width,
                    Entries);
      Sweeps.push_back({Label, SwitchHeuristicSet::SetI, Config});
    }
  return Sweeps;
}

/// The CI/verification subset: one plain sweep, the Table 5 predictor,
/// and one Table 6 point, so both predictor-free and predictor-attached
/// dispatch paths are exercised.
bool isSmokeSweep(const std::string &Label) {
  return Label == "table4/setI" || Label == "table4/setIV" ||
         Label == "table5/ultrasparc" || Label == "table6/(0,2)x256";
}

std::vector<SweepSpec> filterSmoke(const std::vector<SweepSpec> &Sweeps) {
  std::vector<SweepSpec> Subset;
  for (const SweepSpec &Sweep : Sweeps)
    if (isSmokeSweep(Sweep.Label))
      Subset.push_back(Sweep);
  return Subset;
}

struct SuiteResult {
  double WallSeconds = 0.0;
  /// Records per sweep, in the given sweep order.
  std::vector<std::vector<WorkloadRecord>> Sweeps;
};

SuiteResult runSuite(Evaluator &Eval, const std::vector<SweepSpec> &Sweeps) {
  SuiteResult Result;
  auto Start = std::chrono::steady_clock::now();
  for (const SweepSpec &Sweep : Sweeps) {
    CompileOptions CompileOpts;
    CompileOpts.HeuristicSet = Sweep.Set;
    std::vector<WorkloadRecord> Records =
        Eval.evaluateAllRecorded(CompileOpts, Sweep.Predictor);
    for (const WorkloadRecord &Record : Records)
      if (!Record.Eval.ok()) {
        std::fprintf(stderr, "bench error: %s\n",
                     Record.Eval.Error.c_str());
        std::exit(1);
      }
    Result.Sweeps.push_back(std::move(Records));
  }
  Result.WallSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
  return Result;
}

/// One engine configuration of the matrix, with its measurements.
struct EngineConfig {
  const char *Name;
  Interpreter::Mode Mode;
  bool Threaded; ///< harness parallelism (0 = one thread per core)
  RuntimeOptions Runtime; ///< controller knobs (adaptive mode only)
  TimingStats Timing;
  SuiteResult Final; ///< records from the last timed repetition
  EvaluatorStats Cache;
};

uint64_t totalInsts(const SuiteResult &Suite) {
  uint64_t Total = 0;
  for (const std::vector<WorkloadRecord> &Records : Suite.Sweeps)
    for (const WorkloadRecord &Record : Records)
      Total += Record.Eval.Baseline.Counts.TotalInsts +
               Record.Eval.Reordered.Counts.TotalInsts;
  return Total;
}

void writeCounts(std::ofstream &Out, const BuildMeasurement &Build) {
  Out << "{\"insts\": " << Build.Counts.TotalInsts
      << ", \"cond_branches\": " << Build.Counts.CondBranches
      << ", \"taken_branches\": " << Build.Counts.TakenBranches
      << ", \"uncond_jumps\": " << Build.Counts.UncondJumps
      << ", \"indirect_jumps\": " << Build.Counts.IndirectJumps
      << ", \"mispredictions\": " << Build.Mispredictions
      << ", \"cycles_ipc\": " << Build.CyclesIPC
      << ", \"cycles_ultra\": " << Build.CyclesUltra
      << ", \"code_size\": " << Build.CodeSize << "}";
}

void writeSuite(std::ofstream &Out, const char *Name,
                const SuiteResult &Suite, const EvaluatorStats &Cache,
                const std::vector<SweepSpec> &Sweeps, bool Detailed) {
  Out << "  \"" << Name << "\": {\n";
  Out << "    \"wall_seconds\": " << Suite.WallSeconds << ",\n";
  Out << "    \"cache\": {\"baseline_hits\": " << Cache.BaselineHits
      << ", \"baseline_misses\": " << Cache.BaselineMisses
      << ", \"reordered_hits\": " << Cache.ReorderedHits
      << ", \"reordered_misses\": " << Cache.ReorderedMisses
      << ", \"decode_hits\": " << Cache.DecodeHits
      << ", \"decode_misses\": " << Cache.DecodeMisses << "},\n";
  Out << "    \"sweeps\": [\n";
  for (size_t SweepIndex = 0; SweepIndex < Suite.Sweeps.size();
       ++SweepIndex) {
    const std::vector<WorkloadRecord> &Records = Suite.Sweeps[SweepIndex];
    double CompileSeconds = 0.0, RunSeconds = 0.0;
    for (const WorkloadRecord &Record : Records) {
      CompileSeconds += Record.CompileSeconds;
      RunSeconds += Record.RunSeconds;
    }
    Out << "      {\"label\": \"" << Sweeps[SweepIndex].Label << "\""
        << ", \"compile_seconds\": " << CompileSeconds
        << ", \"run_seconds\": " << RunSeconds;
    if (Detailed) {
      Out << ", \"workloads\": [\n";
      for (size_t Index = 0; Index < Records.size(); ++Index) {
        const WorkloadRecord &Record = Records[Index];
        Out << "        {\"name\": \"" << Record.Eval.Name << "\""
            << ", \"compile_seconds\": " << Record.CompileSeconds
            << ", \"run_seconds\": " << Record.RunSeconds
            << ", \"baseline_cached\": "
            << (Record.BaselineCacheHit ? "true" : "false")
            << ", \"reordered_cached\": "
            << (Record.ReorderedCacheHit ? "true" : "false")
            << ", \"baseline\": ";
        writeCounts(Out, Record.Eval.Baseline);
        Out << ", \"reordered\": ";
        writeCounts(Out, Record.Eval.Reordered);
        Out << "}" << (Index + 1 < Records.size() ? "," : "") << "\n";
      }
      Out << "      ]";
    }
    Out << "}" << (SweepIndex + 1 < Suite.Sweeps.size() ? "," : "")
        << "\n";
  }
  Out << "    ]\n";
  Out << "  }";
}

void writeTiming(std::ofstream &Out, const TimingStats &Timing) {
  Out << "{\"min\": " << Timing.Min << ", \"median\": " << Timing.Median
      << ", \"mean\": " << Timing.Mean << ", \"stddev\": " << Timing.Stddev
      << ", \"samples\": [";
  for (size_t Index = 0; Index < Timing.Samples.size(); ++Index)
    Out << (Index ? ", " : "") << Timing.Samples[Index];
  Out << "]}";
}

/// Every build measurement the tree walker and \p Suite must agree on.
bool buildsAgree(const BuildMeasurement &A, const BuildMeasurement &B) {
  return A.Counts.TotalInsts == B.Counts.TotalInsts &&
         A.Counts.CondBranches == B.Counts.CondBranches &&
         A.Counts.TakenBranches == B.Counts.TakenBranches &&
         A.Counts.UncondJumps == B.Counts.UncondJumps &&
         A.Counts.IndirectJumps == B.Counts.IndirectJumps &&
         A.Counts.Compares == B.Counts.Compares &&
         A.Mispredictions == B.Mispredictions && A.Output == B.Output &&
         A.ExitValue == B.ExitValue;
}

/// Observables must not depend on engine, schedule, or caching; abort
/// loudly if \p Suite ever diverges from the tree reference.  The
/// reference ran the (possibly smaller) \p RefSweeps list; sweeps are
/// matched to \p Suite (which ran \p Sweeps) by label.
void checkAgainstReference(const char *Name, const SuiteResult &Suite,
                           const std::vector<SweepSpec> &Sweeps,
                           const SuiteResult &Reference,
                           const std::vector<SweepSpec> &RefSweeps) {
  for (size_t RefIndex = 0; RefIndex < RefSweeps.size(); ++RefIndex) {
    size_t SweepIndex = 0;
    while (SweepIndex < Sweeps.size() &&
           Sweeps[SweepIndex].Label != RefSweeps[RefIndex].Label)
      ++SweepIndex;
    if (SweepIndex == Sweeps.size())
      continue;
    for (size_t Index = 0; Index < Reference.Sweeps[RefIndex].size();
         ++Index) {
      const WorkloadEvaluation &A = Suite.Sweeps[SweepIndex][Index].Eval;
      const WorkloadEvaluation &B = Reference.Sweeps[RefIndex][Index].Eval;
      if (!buildsAgree(A.Baseline, B.Baseline) ||
          !buildsAgree(A.Reordered, B.Reordered)) {
        std::fprintf(stderr,
                     "bench error: %s and tree engines disagree on %s "
                     "(sweep %s)\n",
                     Name, A.Name.c_str(),
                     RefSweeps[RefIndex].Label.c_str());
        std::exit(1);
      }
    }
  }
}

/// Aggregate fuse statistics over every standard workload at the default
/// options: both builds, the baseline one fused against the reordered
/// compile's pass-1 profile, mirroring what the Evaluator prepares.  Each
/// build is fused with measured per-branch bias from its training input —
/// the hot-first layout only moves blocks when it has hotness to act on,
/// so leaving it out reported blocks_moved = 0 forever.
FuseStats collectFuseStats() {
  FuseStats Total;
  CompileOptions Options;
  for (const Workload &W : standardWorkloads()) {
    CompileResult Baseline = compileBaseline(W.Source, Options);
    CompileResult Reordered =
        compileWithReordering(W.Source, W.TrainingInput, Options);
    if (!Baseline.ok() || !Reordered.ok())
      continue;
    FuseStats Stats;
    FuseOptions FO;
    ProfileDB Profile;
    if (Profile.deserialize(Reordered.ProfileText))
      FO.Profile = &Profile;
    BranchHotness BaselineHot =
        collectBranchHotness(*Baseline.M, W.TrainingInput);
    FO.Hotness = &BaselineHot;
    decodeFused(*Baseline.M, FO, &Stats);
    Total += Stats;
    Stats = {};
    BranchHotness ReorderedHot =
        collectBranchHotness(*Reordered.M, W.TrainingInput);
    FuseOptions ReorderedFO;
    ReorderedFO.Hotness = &ReorderedHot;
    decodeFused(*Reordered.M, ReorderedFO, &Stats);
    Total += Stats;
  }
  return Total;
}

/// One cell of the lowering matrix: a heuristic set crossed with a layout
/// strategy, measured over all workloads on the deterministic fused
/// engine.  Modeled cycles come from the machine models (cost/MachineModel.h)
/// so the matrix is noise-free; the wall-clock comparison for the Set IV
/// perf gate runs separately on the native backend.
struct LoweringCell {
  const char *SetName;
  SwitchHeuristicSet Set;
  bool ExtTsp;
  uint64_t Insts = 0;
  uint64_t TakenBranches = 0;
  uint64_t CyclesIPC = 0;
  uint64_t CyclesUltra = 0;
  unsigned OptimalTrees = 0;
  double ChainModelCost = 0.0;
  double ChosenModelCost = 0.0;
  unsigned FunctionsLaidOut = 0;
  unsigned KeptIncumbent = 0;
  uint64_t FallThroughBefore = 0;
  uint64_t FallThroughAfter = 0;
};

std::vector<LoweringCell> runLoweringMatrix(unsigned Threads) {
  EvaluatorOptions Options;
  Options.Threads = Threads;
  Options.Mode = Interpreter::Mode::Fused;
  Options.CacheCompiles = true;
  Evaluator Eval(Options);

  const std::pair<const char *, SwitchHeuristicSet> Sets[] = {
      {"setI", SwitchHeuristicSet::SetI},
      {"setII", SwitchHeuristicSet::SetII},
      {"setIII", SwitchHeuristicSet::SetIII},
      {"setIV", SwitchHeuristicSet::SetIV},
  };
  std::vector<LoweringCell> Cells;
  for (const auto &[Name, Set] : Sets)
    for (bool ExtTsp : {false, true}) {
      CompileOptions CompileOpts;
      CompileOpts.HeuristicSet = Set;
      CompileOpts.Reorder.ProfileGuidedLayout = ExtTsp;
      std::vector<WorkloadEvaluation> Evals =
          Eval.evaluateAll(CompileOpts, std::nullopt);
      checkEvaluations(Evals);
      LoweringCell Cell;
      Cell.SetName = Name;
      Cell.Set = Set;
      Cell.ExtTsp = ExtTsp;
      for (const WorkloadEvaluation &E : Evals) {
        Cell.Insts += E.Reordered.Counts.TotalInsts;
        Cell.TakenBranches += E.Reordered.Counts.TakenBranches;
        Cell.CyclesIPC += E.Reordered.CyclesIPC;
        Cell.CyclesUltra += E.Reordered.CyclesUltra;
        Cell.OptimalTrees += E.Stats.OptimalTrees;
        Cell.ChainModelCost += E.Stats.ChainModelCost;
        Cell.ChosenModelCost += E.Stats.ChosenModelCost;
        Cell.FunctionsLaidOut += E.Stats.Layout.FunctionsLaidOut;
        Cell.KeptIncumbent += E.Stats.Layout.KeptIncumbent;
        Cell.FallThroughBefore += E.Stats.Layout.FallThroughWeightBefore;
        Cell.FallThroughAfter += E.Stats.Layout.FallThroughWeightAfter;
      }
      // Two deterministic never-worse guarantees, checked on every cell:
      // selected shapes never model-cost more than the Figure-8 chains,
      // and the keep-best layout never loses fall-through weight.
      if (Cell.ChosenModelCost > Cell.ChainModelCost + 1e-9) {
        std::fprintf(stderr,
                     "bench error: lowering %s/%s chose shapes costing "
                     "%.3f against chains costing %.3f\n",
                     Name, ExtTsp ? "ext-tsp" : "hot-first",
                     Cell.ChosenModelCost, Cell.ChainModelCost);
        std::exit(1);
      }
      if (Cell.FallThroughAfter < Cell.FallThroughBefore) {
        std::fprintf(stderr,
                     "bench error: lowering %s/%s lost fall-through "
                     "weight (%llu -> %llu)\n",
                     Name, ExtTsp ? "ext-tsp" : "hot-first",
                     (unsigned long long)Cell.FallThroughBefore,
                     (unsigned long long)Cell.FallThroughAfter);
        std::exit(1);
      }
      Cells.push_back(Cell);
    }
  return Cells;
}

/// One zoo scheme swept over the whole suite (docs/PREDICT.md): the plain
/// Set IV build and the aware build that targeted this scheme, each
/// replayed under a fresh instance of the scheme.  This is the Tables 5/6
/// harness generalized from gshare table sizes to the full zoo.
struct PredictorRow {
  std::string Name;
  uint64_t PlainBranches = 0;
  uint64_t PlainMispredictions = 0;
  uint64_t AwareBranches = 0;
  uint64_t AwareMispredictions = 0;
};

std::vector<PredictorRow> runPredictorZooSweep() {
  const std::vector<Workload> &Suite = standardWorkloads();

  // Plain Set IV compiles are predictor-independent; share one set of
  // modules across every scheme's measurement.
  std::vector<CompileResult> Plain;
  for (const Workload &W : Suite) {
    CompileOptions Options;
    Options.HeuristicSet = SwitchHeuristicSet::SetIV;
    Plain.push_back(
        compileWithReordering(W.Source, W.TrainingInput, Options));
    if (!Plain.back().ok()) {
      std::fprintf(stderr, "bench error: %s: %s\n", W.Name.c_str(),
                   Plain.back().Error.c_str());
      std::exit(1);
    }
  }

  // Every run gets its own cold predictor — zoo measurements must not
  // bleed history into each other any more than service requests may.
  auto measure = [](const Module &M, const Workload &W,
                    const std::string &Scheme, uint64_t &Branches,
                    uint64_t &Misses) {
    std::unique_ptr<Predictor> P = makePredictor(Scheme);
    Interpreter Interp(M);
    Interp.attachPredictor(P.get());
    Interp.setInput(W.TestInput);
    RunResult RR = Interp.run();
    if (RR.Trapped) {
      std::fprintf(stderr, "bench error: %s trapped under %s: %s\n",
                   W.Name.c_str(), Scheme.c_str(), RR.TrapReason.c_str());
      std::exit(1);
    }
    const PredictorStats &PS = P->getStats();
    Branches += PS.Branches;
    Misses += PS.Mispredictions;
  };

  std::vector<PredictorRow> Rows;
  for (const std::string &Scheme : predictorZooNames()) {
    PredictorRow Row;
    Row.Name = Scheme;
    for (size_t Index = 0; Index < Suite.size(); ++Index) {
      const Workload &W = Suite[Index];
      measure(*Plain[Index].M, W, Scheme, Row.PlainBranches,
              Row.PlainMispredictions);
      CompileOptions Aware;
      Aware.HeuristicSet = SwitchHeuristicSet::SetIV;
      Aware.Predictor = Scheme;
      CompileResult AwareResult =
          compileWithReordering(W.Source, W.TrainingInput, Aware);
      if (!AwareResult.ok()) {
        std::fprintf(stderr, "bench error: %s under %s: %s\n",
                     W.Name.c_str(), Scheme.c_str(),
                     AwareResult.Error.c_str());
        std::exit(1);
      }
      measure(*AwareResult.M, W, Scheme, Row.AwareBranches,
              Row.AwareMispredictions);
    }
    // The misprediction-aware promise, enforced on every bench run like
    // the lowering never-worse checks: targeting the paper's (0,2)/2048
    // hardware may not produce a Set IV build that mispredicts more than
    // the unaware one.  Measurements are deterministic, so no tolerance.
    if (Scheme == "paper" &&
        Row.AwareMispredictions > Row.PlainMispredictions) {
      std::fprintf(stderr,
                   "bench error: misprediction-aware Set IV mispredicts "
                   "more than plain Set IV under the paper predictor "
                   "(%llu > %llu)\n",
                   (unsigned long long)Row.AwareMispredictions,
                   (unsigned long long)Row.PlainMispredictions);
      std::exit(1);
    }
    Rows.push_back(Row);
  }
  return Rows;
}

/// The Set IV perf gate on real silicon: the full workload suite compiled
/// under Set IV + ext-TSP layout vs Set II + hot-first, both AOT-compiled
/// and timed end to end.  The warmup repetitions pay the host-compiler
/// invocations, so the timed medians compare pure execution.
struct LoweringNativeGate {
  bool Available = false;
  std::string Reason;
  TimingStats SetIIHotFirst;
  TimingStats SetIVExtTsp;
  double SetIVOverSetII = 0.0; ///< >= 1.0 means Set IV won or tied
};

LoweringNativeGate runLoweringNativeGate(unsigned Warmup, unsigned Reps) {
  LoweringNativeGate Result;
  if (!NativeRunner::shared().available()) {
    Result.Reason = NativeRunner::shared().unavailableReason();
    return Result;
  }
  Result.Available = true;

  EvaluatorOptions Options;
  Options.Threads = 1;
  Options.Mode = Interpreter::Mode::Native;
  Options.CacheCompiles = true;
  Evaluator Eval(Options);

  CompileOptions SetII;
  SetII.HeuristicSet = SwitchHeuristicSet::SetII;
  SetII.Reorder.ProfileGuidedLayout = false;
  CompileOptions SetIV;
  SetIV.HeuristicSet = SwitchHeuristicSet::SetIV;
  SetIV.Reorder.ProfileGuidedLayout = true;

  auto RunConfig = [&](const CompileOptions &CompileOpts) {
    checkEvaluations(Eval.evaluateAll(CompileOpts, std::nullopt));
  };
  for (unsigned Iter = 0; Iter < std::max(1u, Warmup); ++Iter) {
    RunConfig(SetII);
    RunConfig(SetIV);
  }
  // Interleaved like the engine matrix so load drift lands on both.
  std::vector<double> SetIISamples, SetIVSamples;
  for (unsigned Rep = 0; Rep < std::max(1u, Reps); ++Rep) {
    SetIISamples.push_back(timeOnce([&] { RunConfig(SetII); }));
    SetIVSamples.push_back(timeOnce([&] { RunConfig(SetIV); }));
  }
  Result.SetIIHotFirst = summarizeTimings(std::move(SetIISamples));
  Result.SetIVExtTsp = summarizeTimings(std::move(SetIVSamples));
  Result.SetIVOverSetII =
      Result.SetIVExtTsp.Median > 0.0
          ? Result.SetIIHotFirst.Median / Result.SetIVExtTsp.Median
          : 0.0;
  return Result;
}

/// Controller knobs for the adaptive sweep configurations.  The library
/// defaults target long-running processes; the bench workloads are small,
/// so the threshold is lowered until they reliably tier up during warmup
/// and the timed repetitions measure the steady (fused) state.
RuntimeOptions benchRuntimeOptions() {
  RuntimeOptions Runtime;
  Runtime.HotThreshold = 2048;
  Runtime.SampleInterval = 64;
  return Runtime;
}

/// The tier0 baseline: the adaptive engine with a hot threshold no run can
/// reach, so every activation stays on the unfused stream adaptive starts
/// from, sampling hooks included.  Both sides of every *_over_tier0 ratio
/// run the one threaded dispatch loop, so a slowdown of that loop cancels
/// out of the ratios; perfbench `pgo-interp` `run_s` times it absolutely.
RuntimeOptions tier0RuntimeOptions() {
  RuntimeOptions Runtime = benchRuntimeOptions();
  Runtime.HotThreshold = std::numeric_limits<uint64_t>::max();
  return Runtime;
}

/// How much of the statically detected profiling surface the adaptive
/// runtime's sampled profiles actually cover, aggregated over one
/// training run per standard workload: sequences with any counts vs
/// detected, nonzero bins vs total, plus the sample-attribution and drift
/// counters.  Answers "is the online profile good enough to replay?"
struct ProfileQuality {
  uint64_t SequencesDetected = 0;
  uint64_t SequencesProfiled = 0;
  uint64_t BinsTotal = 0;
  uint64_t BinsNonzero = 0;
  uint64_t DroppedSamples = 0;
  uint64_t DriftEvents = 0;
};

ProfileQuality collectProfileQuality() {
  ProfileQuality Quality;
  for (const Workload &W : standardWorkloads()) {
    CompileResult Compiled = compileBaseline(W.Source, CompileOptions());
    if (!Compiled.ok())
      continue;
    AdaptiveController Controller(*Compiled.M, benchRuntimeOptions());
    Interpreter Interp(*Compiled.M, Interpreter::Mode::Adaptive);
    Controller.attach(Interp);
    Interp.setInput(W.TrainingInput);
    Interp.run();
    Controller.drainBackgroundWork();
    ProfileDB DB;
    Controller.exportProfile(DB);
    for (const ProfileEntry &Entry : DB) {
      ++Quality.SequencesDetected;
      if (Entry.totalExecutions())
        ++Quality.SequencesProfiled;
      Quality.BinsTotal += Entry.BinCounts.size();
      for (uint64_t Count : Entry.BinCounts)
        Quality.BinsNonzero += Count != 0;
    }
    RuntimeStats Stats = Controller.stats();
    Quality.DroppedSamples += Stats.DroppedSamples;
    Quality.DriftEvents += Stats.DriftEvents;
  }
  return Quality;
}

/// The workload online tiering exists for: a classifier whose input byte
/// mix flips abruptly halfway through, so the arm ordering that wins the
/// first half loses the second.  The offline two-pass flow bakes in one
/// ordering for good; the adaptive controller detects the drift and
/// re-optimizes mid-run.  Measured against the never-tiering tier0
/// baseline on the same unfused stream.
struct PhaseShiftResult {
  size_t InputBytes = 0;
  TimingStats Tier0;
  TimingStats Adaptive;
  RuntimeStats Tiering;
  RuntimeStats Tier0Tiering;
};

/// Shared by the adaptive and the tier-ladder phase-shift benches: a
/// classifier whose winning arm order depends entirely on the input byte
/// mix, so a phase flip inverts the profile.
const char *PhaseShiftSource = R"(
int digits = 0;
int upper = 0;
int lower = 0;
int main() {
  int c;
  while ((c = getchar()) != -1) {
    if (c < 58) { digits = digits + 1; }
    else if (c < 91) { upper = upper + 1; }
    else if (c < 123) { lower = lower + 1; }
    else { lower = lower; }
  }
  printint(digits);
  printint(upper);
  printint(lower);
  return digits + upper * 2 + lower * 3;
}
)";

PhaseShiftResult runPhaseShiftBench(unsigned Warmup, unsigned Reps,
                                    bool Smoke) {
  PhaseShiftResult Result;
  CompileResult Compiled = compileBaseline(PhaseShiftSource, CompileOptions());
  if (!Compiled.ok()) {
    std::fprintf(stderr, "bench error: phase-shift compile failed: %s\n",
                 Compiled.Error.c_str());
    std::exit(1);
  }
  const size_t Half = Smoke ? 100'000 : 1'000'000;
  std::string Input;
  Input.reserve(2 * Half);
  for (size_t Index = 0; Index < Half; ++Index)
    Input += static_cast<char>('0' + Index % 10);
  for (size_t Index = 0; Index < Half; ++Index)
    Input += static_cast<char>('a' + Index % 26);
  Result.InputBytes = Input.size();

  AdaptiveController Tier0(*Compiled.M, tier0RuntimeOptions());
  AdaptiveController Controller(*Compiled.M, benchRuntimeOptions());
  RunResult Tier0Result, AdaptiveResult;
  auto Run = [&](AdaptiveController &Ctl, RunResult &Out) {
    Interpreter Interp(*Compiled.M, Interpreter::Mode::Adaptive);
    Ctl.attach(Interp);
    Interp.setInput(Input);
    Out = Interp.run();
  };
  auto RunTier0 = [&] { Run(Tier0, Tier0Result); };
  auto RunAdaptive = [&] { Run(Controller, AdaptiveResult); };
  // Warmup tiers the controller up; timed reps then interleave the two
  // engines so machine-load drift lands on both evenly (same methodology
  // as the sweep matrix).
  for (unsigned Iter = 0; Iter < std::max(1u, Warmup); ++Iter) {
    RunTier0();
    RunAdaptive();
  }
  if (Tier0Result.Output != AdaptiveResult.Output ||
      Tier0Result.ExitValue != AdaptiveResult.ExitValue ||
      Tier0Result.Counts.TotalInsts != AdaptiveResult.Counts.TotalInsts) {
    std::fprintf(stderr, "bench error: adaptive and tier0 engines "
                         "disagree on the phase-shift workload\n");
    std::exit(1);
  }
  std::vector<double> Tier0Samples, AdaptiveSamples;
  for (unsigned Rep = 0; Rep < std::max(1u, Reps); ++Rep) {
    Tier0Samples.push_back(timeOnce(RunTier0));
    AdaptiveSamples.push_back(timeOnce(RunAdaptive));
  }
  Result.Tier0 = summarizeTimings(std::move(Tier0Samples));
  Result.Adaptive = summarizeTimings(std::move(AdaptiveSamples));
  Result.Tiering = Controller.stats();
  Result.Tier0Tiering = Tier0.stats();
  return Result;
}

/// The native AOT configuration.  Runs outside the interleaved engine
/// matrix: its first repetition pays ~100 host-compiler invocations, a
/// cost class of its own, so it gets its own warmup (populating the
/// Evaluator's `.so` cache) before its timed repetitions.  Native runs
/// carry no dynamic counters — the totalInsts invariant cannot apply —
/// so observables are verified against the fused configuration instead.
struct NativeBenchResult {
  bool Available = false;
  std::string Reason; ///< set when unavailable
  std::string Compiler;
  TimingStats Timing;
  SuiteResult Final;
  EvaluatorStats Cache;
  NativeRunnerStats Runner;
};

NativeBenchResult runNativeBench(unsigned Warmup, unsigned Reps,
                                 const std::vector<SweepSpec> &Sweeps,
                                 const SuiteResult &FusedReference) {
  NativeBenchResult Result;
  if (!NativeRunner::shared().available()) {
    Result.Reason = NativeRunner::shared().unavailableReason();
    return Result;
  }
  Result.Available = true;
  Result.Compiler = NativeRunner::shared().compilerCommand();

  EvaluatorOptions Options;
  Options.Threads = 1; // serial: comparable to the *-serial configs
  Options.Mode = Interpreter::Mode::Native;
  Options.CacheCompiles = true;
  Evaluator Eval(Options);
  for (unsigned Iter = 0; Iter < std::max(1u, Warmup); ++Iter)
    Result.Final = runSuite(Eval, Sweeps);
  std::vector<double> Samples;
  for (unsigned Rep = 0; Rep < std::max(1u, Reps); ++Rep)
    Samples.push_back(
        timeOnce([&] { Result.Final = runSuite(Eval, Sweeps); }));
  Result.Timing = summarizeTimings(std::move(Samples));
  Result.Cache = Eval.stats();
  Result.Runner = NativeRunner::shared().stats();

  // Machine code must reproduce the simulated observables bit for bit.
  for (size_t Sweep = 0; Sweep < FusedReference.Sweeps.size(); ++Sweep)
    for (size_t Index = 0; Index < FusedReference.Sweeps[Sweep].size();
         ++Index) {
      const WorkloadEvaluation &Native =
          Result.Final.Sweeps[Sweep][Index].Eval;
      const WorkloadEvaluation &Fused =
          FusedReference.Sweeps[Sweep][Index].Eval;
      if (Native.Baseline.Output != Fused.Baseline.Output ||
          Native.Baseline.ExitValue != Fused.Baseline.ExitValue ||
          Native.Reordered.Output != Fused.Reordered.Output ||
          Native.Reordered.ExitValue != Fused.Reordered.ExitValue) {
        std::fprintf(stderr,
                     "bench error: native and fused observables disagree "
                     "on %s (sweep %zu)\n",
                     Native.Name.c_str(), Sweep);
        std::exit(1);
      }
    }
  return Result;
}

/// Knobs for the tier-2 (tier-ladder) configurations: the adaptive engine
/// with its NativeTier on.  On top of the adaptive sweep knobs, every
/// function hot enough to reach the fused tier is also eligible for the
/// native tier (NativeThreshold == HotThreshold), so steady state runs the
/// whole suite as machine code.
/// The drift recheck cadence is pushed past the measurement window: every
/// cached controller sees exactly one activation per suite pass, so with
/// the default NativeRecheckMin the rechecks of all ~200 controllers
/// would land on the *same* pass and turn one entire timed repetition
/// interpreted.  The recheck/deopt machinery is exercised — on purpose,
/// per phase flip — by runTierLadderPhaseBench below.
RuntimeOptions tierLadderRuntimeOptions() {
  RuntimeOptions Runtime = benchRuntimeOptions();
  Runtime.NativeTier = true;
  Runtime.NativeThreshold = Runtime.HotThreshold;
  Runtime.MinSamplesBetweenNativeBuilds = 256;
  Runtime.NativeRecheckMin = 64;
  Runtime.NativeRecheckMax = 256;
  return Runtime;
}

/// The tier-2 configuration: the same sweeps as the engine matrix, but
/// every run climbs the full unfused -> fused -> native ladder online.
/// Like the AOT configuration it runs outside the interleaved matrix
/// (warmup pays the host-compiler invocations) and is held to the
/// observables bar against the fused configuration — native activations
/// carry no dynamic counters, so the totalInsts invariant cannot apply.
struct TierLadderBenchResult {
  bool Available = false;
  std::string Reason; ///< set when unavailable
  TimingStats Timing;
  SuiteResult Final;
  EvaluatorStats Cache;
  RuntimeStats Tiering; ///< first-sweep controllers, cumulative
  unsigned WarmupPasses = 0;
};

TierLadderBenchResult
runTierLadderBench(unsigned Warmup, unsigned Reps,
                   const std::vector<SweepSpec> &Sweeps,
                   const SuiteResult &FusedReference) {
  TierLadderBenchResult Result;
  if (!NativeRunner::shared().available()) {
    Result.Reason = NativeRunner::shared().unavailableReason();
    return Result;
  }
  Result.Available = true;

  EvaluatorOptions Options;
  Options.Threads = 1; // serial: comparable to the *-serial configs
  Options.Mode = Interpreter::Mode::Adaptive;
  Options.CacheCompiles = true;
  Options.Runtime = tierLadderRuntimeOptions();
  Evaluator Eval(Options);

  // Warm until the promotion front stops moving.  Hotness counters are
  // cumulative, so functions too cool to promote in one pass keep
  // crossing NativeThreshold for several more — and any build that slips
  // past warmup bills a host-compiler invocation to a timed repetition.
  // Two consecutive passes with no new promotions means everything that
  // will ever promote has; the cap bounds a pathological trickle.
  uint64_t Promotions = 0;
  unsigned Stable = 0;
  for (unsigned Iter = 0;
       Iter < std::max(24u, Warmup) && (Iter < Warmup || Stable < 2);
       ++Iter) {
    Result.Final = runSuite(Eval, Sweeps);
    ++Result.WarmupPasses;
    const uint64_t Now = Eval.stats().AdaptiveNativePromotions;
    Stable = Now == Promotions ? Stable + 1 : 0;
    Promotions = Now;
  }
  std::vector<double> Samples;
  for (unsigned Rep = 0; Rep < std::max(1u, Reps); ++Rep)
    Samples.push_back(
        timeOnce([&] { Result.Final = runSuite(Eval, Sweeps); }));
  Result.Timing = summarizeTimings(std::move(Samples));
  Result.Cache = Eval.stats();

  // Tier-2 counters, summed over the first sweep's controllers (same
  // first-sweep-only rule as the adaptive matrix config: snapshots are
  // cumulative per cached controller).
  if (!Result.Final.Sweeps.empty())
    for (const WorkloadRecord &Record : Result.Final.Sweeps[0]) {
      Result.Tiering += Record.Eval.Baseline.Runtime;
      Result.Tiering += Record.Eval.Reordered.Runtime;
    }

  // The ladder must reproduce the simulated observables bit for bit no
  // matter which tier a given activation landed on.
  for (size_t Sweep = 0; Sweep < FusedReference.Sweeps.size(); ++Sweep)
    for (size_t Index = 0; Index < FusedReference.Sweeps[Sweep].size();
         ++Index) {
      const WorkloadEvaluation &Ladder =
          Result.Final.Sweeps[Sweep][Index].Eval;
      const WorkloadEvaluation &Fused =
          FusedReference.Sweeps[Sweep][Index].Eval;
      if (Ladder.Baseline.Output != Fused.Baseline.Output ||
          Ladder.Baseline.ExitValue != Fused.Baseline.ExitValue ||
          Ladder.Reordered.Output != Fused.Reordered.Output ||
          Ladder.Reordered.ExitValue != Fused.Reordered.ExitValue) {
        std::fprintf(stderr,
                     "bench error: tier-ladder and fused observables "
                     "disagree on %s (sweep %zu)\n",
                     Ladder.Name.c_str(), Sweep);
        std::exit(1);
      }
    }
  return Result;
}

/// The phase-shift workload under the full tier ladder: whole activations
/// alternate between digit-heavy and letter-heavy inputs in blocks, so a
/// promoted native body periodically becomes wrong for the live phase.
/// The controller must deopt on the recheck that sees the drift, re-fuse,
/// and re-promote — and once both phases have compiled once, every later
/// flip must be served from the ordering-signature cache (deopts and
/// tier-ups keep climbing, compiles stay at two).  Also the bench's
/// hardware ground truth for tiering: steady-state activations of the
/// ladder vs the fused-only controller under perf_event branch counters.
struct TierLadderPhaseResult {
  bool Available = false;
  std::string Reason;
  size_t InputBytes = 0; ///< per activation
  unsigned Blocks = 0;
  unsigned ActivationsPerBlock = 0;
  TimingStats Fused;  ///< the fused-only controller on the same schedule
  TimingStats Ladder; ///< the controller with NativeTier on
  RuntimeStats Tiering;
  uint32_t MaxNativeCompiles = 0; ///< the budget the run was held to
  bool PerfAvailable = false;
  std::string PerfReason;
  unsigned PerfReps = 0;
  uint64_t LadderBranches = 0;
  uint64_t LadderBranchMisses = 0;
  uint64_t FusedBranches = 0;
  uint64_t FusedBranchMisses = 0;
  bool PerfMultiplexed = false;
};

TierLadderPhaseResult runTierLadderPhaseBench(unsigned Reps, bool Smoke) {
  TierLadderPhaseResult Result;
  if (!NativeRunner::shared().available()) {
    Result.Reason = NativeRunner::shared().unavailableReason();
    return Result;
  }
  Result.Available = true;
  CompileResult Compiled = compileBaseline(PhaseShiftSource, CompileOptions());
  if (!Compiled.ok()) {
    std::fprintf(stderr,
                 "bench error: tier-ladder phase compile failed: %s\n",
                 Compiled.Error.c_str());
    std::exit(1);
  }
  const size_t Bytes = Smoke ? 50'000 : 200'000;
  std::string Digits, Letters;
  Digits.reserve(Bytes);
  Letters.reserve(Bytes);
  for (size_t Index = 0; Index < Bytes; ++Index) {
    Digits += static_cast<char>('0' + Index % 10);
    Letters += static_cast<char>('a' + Index % 26);
  }
  Result.InputBytes = Bytes;
  Result.Blocks = 6;
  Result.ActivationsPerBlock = 24;

  RuntimeOptions LadderRO = tierLadderRuntimeOptions();
  // Unlike the sweep configuration, rechecks must land *inside* each
  // phase block so the drift is caught: one activation samples ~Bytes/64
  // times, far past the drift window, so the first recheck of a new phase
  // deopts.  The compile budget stays at the library default — proving
  // the flips are served from the signature cache is the point.
  LadderRO.DriftWindow = 64;
  LadderRO.NativeRecheckMin = 4;
  LadderRO.NativeRecheckMax = 8;
  Result.MaxNativeCompiles = LadderRO.MaxNativeCompiles;
  AdaptiveController Ladder(*Compiled.M, LadderRO);
  AdaptiveController FusedOnly(*Compiled.M, benchRuntimeOptions());

  // Both controllers run Mode::Adaptive; only Ladder's NativeTier lets an
  // activation run natively.
  auto RunOne = [&](AdaptiveController &Controller,
                    const std::string &Input) {
    ExecRequest Req;
    Req.Input = Input;
    Req.Adaptive = &Controller;
    return executeModule(*Compiled.M, Interpreter::Mode::Adaptive, Req);
  };
  auto RunSchedule = [&](AdaptiveController &Controller) {
    for (unsigned Block = 0; Block < Result.Blocks; ++Block) {
      const std::string &Input = Block % 2 ? Letters : Digits;
      for (unsigned Act = 0; Act < Result.ActivationsPerBlock; ++Act)
        RunOne(Controller, Input);
    }
  };

  // Observables first, then one unmeasured schedule each: the ladder's
  // pays both phases' native compiles, the fused one tiers up.
  RunResult LadderOut = RunOne(Ladder, Digits);
  RunResult FusedOut = RunOne(FusedOnly, Digits);
  if (LadderOut.Output != FusedOut.Output ||
      LadderOut.ExitValue != FusedOut.ExitValue) {
    std::fprintf(stderr, "bench error: tier-ladder and adaptive engines "
                         "disagree on the phase-shift workload\n");
    std::exit(1);
  }
  RunSchedule(Ladder);
  RunSchedule(FusedOnly);
  std::vector<double> LadderSamples, FusedSamples;
  for (unsigned Rep = 0; Rep < std::max(1u, Reps); ++Rep) {
    LadderSamples.push_back(timeOnce([&] { RunSchedule(Ladder); }));
    FusedSamples.push_back(timeOnce([&] { RunSchedule(FusedOnly); }));
  }
  Result.Ladder = summarizeTimings(std::move(LadderSamples));
  Result.Fused = summarizeTimings(std::move(FusedSamples));
  Result.Tiering = Ladder.stats();

  // Steady state under hardware branch counters: the schedule ends on a
  // letter block, so letter activations measure the promoted native body
  // against the fused-tier interpreter on identical work.
  PerfCounters Counters;
  if (!Counters.available()) {
    Result.PerfReason = Counters.unavailableReason();
    return Result;
  }
  Result.PerfAvailable = true;
  Result.PerfReps = std::max(3u, Reps);
  const std::string &Steady = Result.Blocks % 2 ? Digits : Letters;
  RunOne(Ladder, Steady);
  RunOne(FusedOnly, Steady);
  Counters.start();
  for (unsigned Rep = 0; Rep < Result.PerfReps; ++Rep)
    RunOne(Ladder, Steady);
  PerfSample LadderSample = Counters.stop();
  Counters.start();
  for (unsigned Rep = 0; Rep < Result.PerfReps; ++Rep)
    RunOne(FusedOnly, Steady);
  PerfSample FusedSample = Counters.stop();
  Result.LadderBranches = LadderSample.Branches;
  Result.LadderBranchMisses = LadderSample.BranchMisses;
  Result.FusedBranches = FusedSample.Branches;
  Result.FusedBranchMisses = FusedSample.BranchMisses;
  Result.PerfMultiplexed =
      LadderSample.Multiplexed || FusedSample.Multiplexed;
  return Result;
}

/// Hardware ground truth for the paper's thesis: run the unordered
/// (baseline) and ordered (reordered) shared objects of every workload
/// under perf_event branch counters and compare measured miss counts.
/// Needs both a host compiler and perf_event access; degrades to
/// Available = false (with the reason recorded in the JSON) otherwise.
struct PerfComparison {
  bool Available = false;
  std::string Reason;
  unsigned Reps = 0;
  uint64_t UnorderedBranches = 0;
  uint64_t UnorderedMisses = 0;
  uint64_t OrderedBranches = 0;
  uint64_t OrderedMisses = 0;
  bool Multiplexed = false;
};

PerfComparison runPerfComparison(unsigned Reps) {
  PerfComparison Result;
  PerfCounters Counters;
  if (!Counters.available()) {
    Result.Reason = Counters.unavailableReason();
    return Result;
  }
  if (!NativeRunner::shared().available()) {
    Result.Reason = NativeRunner::shared().unavailableReason();
    return Result;
  }
  Result.Available = true;
  Result.Reps = Reps;
  for (const Workload &W : standardWorkloads()) {
    CompileResult Baseline = compileBaseline(W.Source, CompileOptions());
    CompileResult Reordered =
        compileWithReordering(W.Source, W.TrainingInput, CompileOptions());
    if (!Baseline.ok() || !Reordered.ok())
      continue;
    std::string Error;
    std::shared_ptr<const NativeProgram> Unordered =
        NativeRunner::shared().prepare(*Baseline.M, &Error);
    std::shared_ptr<const NativeProgram> Ordered =
        NativeRunner::shared().prepare(*Reordered.M, &Error);
    if (!Unordered || !Ordered) {
      std::fprintf(stderr, "bench error: native compile failed: %s\n",
                   Error.c_str());
      std::exit(1);
    }
    // One unmeasured run each: page in the code, fault the stacks.
    Unordered->run(W.TestInput);
    Ordered->run(W.TestInput);
    Counters.start();
    for (unsigned Rep = 0; Rep < std::max(1u, Reps); ++Rep)
      Unordered->run(W.TestInput);
    PerfSample USample = Counters.stop();
    Counters.start();
    for (unsigned Rep = 0; Rep < std::max(1u, Reps); ++Rep)
      Ordered->run(W.TestInput);
    PerfSample OSample = Counters.stop();
    Result.UnorderedBranches += USample.Branches;
    Result.UnorderedMisses += USample.BranchMisses;
    Result.OrderedBranches += OSample.Branches;
    Result.OrderedMisses += OSample.BranchMisses;
    Result.Multiplexed |= USample.Multiplexed || OSample.Multiplexed;
  }
  return Result;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string OutPath = "BENCH_tables.json";
  std::string EngineOutPath = "BENCH_engine.json";
  unsigned Threads = 0;
  unsigned Reps = 3;
  unsigned Warmup = 1;
  bool Smoke = false;
  bool FailIfSlower = false;
  std::string Verify = "smoke";
  for (int Index = 1; Index < Argc; ++Index) {
    if (!std::strcmp(Argv[Index], "--out") && Index + 1 < Argc) {
      OutPath = Argv[++Index];
    } else if (!std::strcmp(Argv[Index], "--engine-out") &&
               Index + 1 < Argc) {
      EngineOutPath = Argv[++Index];
    } else if (!std::strcmp(Argv[Index], "--threads") && Index + 1 < Argc) {
      Threads = static_cast<unsigned>(std::atoi(Argv[++Index]));
    } else if (!std::strcmp(Argv[Index], "--reps") && Index + 1 < Argc) {
      Reps = static_cast<unsigned>(std::atoi(Argv[++Index]));
    } else if (!std::strcmp(Argv[Index], "--warmup") && Index + 1 < Argc) {
      Warmup = static_cast<unsigned>(std::atoi(Argv[++Index]));
    } else if (!std::strcmp(Argv[Index], "--smoke")) {
      Smoke = true;
    } else if (!std::strcmp(Argv[Index], "--fail-if-slower")) {
      FailIfSlower = true;
    } else if (!std::strcmp(Argv[Index], "--verify-engines") &&
               Index + 1 < Argc) {
      Verify = Argv[++Index];
      if (Verify != "all" && Verify != "smoke" && Verify != "off") {
        std::fprintf(stderr,
                     "bench error: --verify-engines takes all|smoke|off\n");
        return 2;
      }
    } else if (!std::strcmp(Argv[Index], "--no-compare")) {
      Verify = "off"; // back-compat alias
    } else {
      std::fprintf(stderr,
                   "usage: bench_json [--out FILE] [--engine-out FILE] "
                   "[--threads N] [--reps N] [--warmup N] [--smoke] "
                   "[--verify-engines all|smoke|off] [--no-compare] "
                   "[--fail-if-slower]\n");
      return 2;
    }
  }

  const std::vector<SweepSpec> AllSweeps = suiteSweeps();
  const std::vector<SweepSpec> Sweeps =
      Smoke ? filterSmoke(AllSweeps) : AllSweeps;

  // The engine matrix.  "threaded"/"serial" name the workload harness
  // (thread pool size); the dispatch loop itself is always single
  // threaded per run.  Every interpreted config below runs the one
  // threaded dispatch loop.  Fused vs. tier0 under the *same* harness
  // isolates the superinstruction + layout win; adaptive vs. fused
  // isolates the online tiering overhead against the offline-profiled
  // oracle, and adaptive vs. tier0 is the payoff of tiering at all.
  const RuntimeOptions TieringKnobs = benchRuntimeOptions();
  const RuntimeOptions Tier0Knobs = tier0RuntimeOptions();
  EngineConfig Configs[] = {
      {"fused-threaded", Interpreter::Mode::Fused, true, {}, {}, {}, {}},
      {"fused-serial", Interpreter::Mode::Fused, false, {}, {}, {}, {}},
      {"tier0-threaded", Interpreter::Mode::Adaptive, true, Tier0Knobs, {},
       {}, {}},
      {"tier0-serial", Interpreter::Mode::Adaptive, false, Tier0Knobs, {},
       {}, {}},
      {"adaptive-threaded", Interpreter::Mode::Adaptive, true,
       TieringKnobs, {}, {}, {}},
      {"adaptive-serial", Interpreter::Mode::Adaptive, false,
       TieringKnobs, {}, {}, {}},
  };

  std::printf("running %zu sweeps x %zu workloads, %u warmup + %u reps "
              "per engine config...\n",
              Sweeps.size(), standardWorkloads().size(), Warmup, Reps);
  // One Evaluator per configuration: the warmup repetitions populate the
  // compile and decode caches — and, for the adaptive configs, tier the
  // cached controllers up — so the timed repetitions measure steady-state
  // engine execution, which is what the configs differ in.  Timed reps
  // are interleaved round-robin across the configs so slow drift in
  // machine load (frequency scaling, noisy neighbours) lands evenly on
  // every config instead of on whichever happened to run last — the
  // speedup ratio then compares samples taken under the same conditions.
  constexpr size_t NumConfigs = sizeof(Configs) / sizeof(Configs[0]);
  std::vector<std::unique_ptr<Evaluator>> ConfigEvals;
  for (EngineConfig &Config : Configs) {
    EvaluatorOptions Options;
    Options.Threads = Config.Threaded ? Threads : 1;
    Options.Mode = Config.Mode;
    Options.CacheCompiles = true;
    Options.Runtime = Config.Runtime;
    ConfigEvals.push_back(std::make_unique<Evaluator>(Options));
    for (unsigned Iter = 0; Iter < Warmup; ++Iter)
      Config.Final = runSuite(*ConfigEvals.back(), Sweeps);
  }
  std::vector<std::vector<double>> Samples(NumConfigs);
  for (unsigned Rep = 0; Rep < std::max(1u, Reps); ++Rep)
    for (size_t Index = 0; Index < NumConfigs; ++Index)
      Samples[Index].push_back(timeOnce([&] {
        Configs[Index].Final = runSuite(*ConfigEvals[Index], Sweeps);
      }));
  for (size_t Index = 0; Index < NumConfigs; ++Index) {
    EngineConfig &Config = Configs[Index];
    Config.Timing = summarizeTimings(std::move(Samples[Index]));
    Config.Cache = ConfigEvals[Index]->stats();
    std::printf("  %-16s median %.3fs  (min %.3fs, stddev %.4fs)\n",
                Config.Name, Config.Timing.Median, Config.Timing.Min,
                Config.Timing.Stddev);
  }

  const EngineConfig &FusedThreaded = Configs[0];
  const EngineConfig &FusedSerial = Configs[1];
  const EngineConfig &Tier0Threaded = Configs[2];
  const EngineConfig &Tier0Serial = Configs[3];
  const EngineConfig &AdaptiveThreaded = Configs[4];
  const EngineConfig &AdaptiveSerial = Configs[5];
  auto Ratio = [](double Num, double Den) {
    return Den > 0.0 ? Num / Den : 0.0;
  };
  const double SpeedupThreaded =
      Ratio(Tier0Threaded.Timing.Median, FusedThreaded.Timing.Median);
  const double SpeedupSerial =
      Ratio(Tier0Serial.Timing.Median, FusedSerial.Timing.Median);
  const double AdaptiveOverTier0Serial =
      Ratio(Tier0Serial.Timing.Median, AdaptiveSerial.Timing.Median);
  const double AdaptiveOverTier0Threaded =
      Ratio(Tier0Threaded.Timing.Median, AdaptiveThreaded.Timing.Median);
  // Steady-state tiering overhead against the offline-profiled oracle:
  // 1.0 means the adaptive engine matched the ahead-of-time fused build.
  const double AdaptiveOverheadVsFused =
      Ratio(AdaptiveSerial.Timing.Median, FusedSerial.Timing.Median);
  std::printf("  fused over tier0: %.2fx serial, %.2fx threaded\n",
              SpeedupSerial, SpeedupThreaded);
  std::printf("  adaptive over tier0: %.2fx serial, %.2fx threaded "
              "(steady-state overhead vs fused %.3fx)\n",
              AdaptiveOverTier0Serial, AdaptiveOverTier0Threaded,
              AdaptiveOverheadVsFused);

  // Same logical work on every engine — cheap invariant, always on.
  for (const EngineConfig &Config : Configs)
    if (totalInsts(Config.Final) != totalInsts(FusedThreaded.Final)) {
      std::fprintf(stderr,
                   "bench error: %s executed a different dynamic "
                   "instruction total\n",
                   Config.Name);
      return 1;
    }
  // The tier0 baseline is only a baseline if it never left the unfused
  // stream.
  for (const EngineConfig *Config : {&Tier0Threaded, &Tier0Serial})
    for (const std::vector<WorkloadRecord> &Records : Config->Final.Sweeps)
      for (const WorkloadRecord &Record : Records)
        if (Record.Eval.Baseline.Runtime.TierUps ||
            Record.Eval.Reordered.Runtime.TierUps) {
          std::fprintf(stderr, "bench error: %s tiered up on %s\n",
                       Config->Name, Record.Eval.Name.c_str());
          return 1;
        }

  std::vector<SweepSpec> VerifySweeps;
  SuiteResult Reference;
  if (Verify != "off") {
    VerifySweeps = Verify == "all" ? Sweeps : filterSmoke(Sweeps);
    std::printf("verifying %zu sweeps against the tree walker...\n",
                VerifySweeps.size());
    EvaluatorOptions TreeOptions;
    TreeOptions.Threads = Threads;
    TreeOptions.Mode = Interpreter::Mode::Tree;
    Evaluator TreeEval(TreeOptions);
    Reference = runSuite(TreeEval, VerifySweeps);
    checkAgainstReference("fused", FusedThreaded.Final, Sweeps, Reference,
                          VerifySweeps);
    checkAgainstReference("tier0", Tier0Threaded.Final, Sweeps, Reference,
                          VerifySweeps);
    checkAgainstReference("adaptive", AdaptiveThreaded.Final, Sweeps,
                          Reference, VerifySweeps);
    std::printf("  observables identical on all verified sweeps\n");
  }

  FuseStats Fusion = collectFuseStats();
  ProfileQuality Quality = collectProfileQuality();
  std::printf("  profile quality: %llu/%llu sequences profiled, "
              "%llu/%llu bins covered, %llu dropped samples, "
              "%llu drift events\n",
              (unsigned long long)Quality.SequencesProfiled,
              (unsigned long long)Quality.SequencesDetected,
              (unsigned long long)Quality.BinsNonzero,
              (unsigned long long)Quality.BinsTotal,
              (unsigned long long)Quality.DroppedSamples,
              (unsigned long long)Quality.DriftEvents);

  // Tiering counters, summed over the first sweep's controllers in the
  // serial adaptive configuration (snapshots are cumulative per cached
  // controller, so summing every sweep would double-count; the first
  // sweep is present in both smoke and full runs and its snapshot covers
  // everything those controllers did across warmup and reps).
  RuntimeStats Tiering;
  if (!AdaptiveSerial.Final.Sweeps.empty())
    for (const WorkloadRecord &Record : AdaptiveSerial.Final.Sweeps[0]) {
      Tiering += Record.Eval.Baseline.Runtime;
      Tiering += Record.Eval.Reordered.Runtime;
    }
  std::printf("  tiering: %llu tier-ups, %llu swaps, %llu drift events, "
              "%llu recompiles (%.3fs)\n",
              (unsigned long long)Tiering.TierUps,
              (unsigned long long)Tiering.Swaps,
              (unsigned long long)Tiering.DriftEvents,
              (unsigned long long)Tiering.Recompiles,
              Tiering.RecompileSeconds);

  std::printf("running the phase-shift benchmark...\n");
  PhaseShiftResult PhaseShift = runPhaseShiftBench(Warmup, Reps, Smoke);
  const double PhaseShiftWin =
      PhaseShift.Adaptive.Median > 0.0
          ? PhaseShift.Tier0.Median / PhaseShift.Adaptive.Median
          : 0.0;
  std::printf("  phase-shift: adaptive %.2fx over tier0 "
              "(%.3fs vs %.3fs median, %llu recompiles)\n",
              PhaseShiftWin, PhaseShift.Adaptive.Median,
              PhaseShift.Tier0.Median,
              (unsigned long long)PhaseShift.Tiering.Recompiles);
  if (PhaseShift.Tier0Tiering.TierUps) {
    std::fprintf(stderr, "bench error: the phase-shift tier0 baseline "
                         "tiered up\n");
    return 1;
  }

  std::printf("running the native AOT configuration...\n");
  NativeBenchResult Native =
      runNativeBench(Warmup, Reps, Sweeps, FusedSerial.Final);
  const double NativeOverFusedSerial =
      Native.Available ? Ratio(FusedSerial.Timing.Median, Native.Timing.Median)
                       : 0.0;
  if (Native.Available)
    std::printf("  native-serial    median %.3fs  (min %.3fs, stddev "
                "%.4fs)\n  native over fused: %.2fx serial "
                "(%llu .so compiles, %.3fs in the host compiler)\n",
                Native.Timing.Median, Native.Timing.Min,
                Native.Timing.Stddev, NativeOverFusedSerial,
                (unsigned long long)Native.Runner.Compiles,
                Native.Runner.CompileSeconds);
  else
    std::printf("  native backend unavailable: %s\n",
                Native.Reason.c_str());

  std::printf("running the tier-ladder (tier-2) configuration...\n");
  TierLadderBenchResult TierTwo =
      runTierLadderBench(Warmup, Reps, Sweeps, FusedSerial.Final);
  const double TierTwoOverAdaptiveSerial =
      TierTwo.Available
          ? Ratio(AdaptiveSerial.Timing.Median, TierTwo.Timing.Median)
          : 0.0;
  // How close the online ladder gets to the offline AOT ceiling: 1.0
  // means every timed activation ran as machine code with no controller
  // overhead left.
  const double TierTwoVsOfflineNative =
      TierTwo.Available && Native.Available
          ? Ratio(TierTwo.Timing.Median, Native.Timing.Median)
          : 0.0;
  if (TierTwo.Available) {
    std::printf("  tier-ladder      median %.3fs  (min %.3fs, stddev "
                "%.4fs, %u warmup passes)\n",
                TierTwo.Timing.Median, TierTwo.Timing.Min,
                TierTwo.Timing.Stddev, TierTwo.WarmupPasses);
    std::printf("  tier-ladder over adaptive: %.2fx serial "
                "(%.2fx of offline native)\n",
                TierTwoOverAdaptiveSerial, TierTwoVsOfflineNative);
    std::printf("  tier-2: %llu tier-ups, %llu native runs, %llu rechecks, "
                "%llu deopts, %llu compiles (%.3fs)\n",
                (unsigned long long)TierTwo.Tiering.NativeTierUps,
                (unsigned long long)TierTwo.Tiering.NativeRuns,
                (unsigned long long)TierTwo.Tiering.NativeRecheckRuns,
                (unsigned long long)TierTwo.Tiering.NativeDeopts,
                (unsigned long long)TierTwo.Tiering.NativeCompiles,
                TierTwo.Tiering.NativeCompileSeconds);
  } else
    std::printf("  native backend unavailable: %s\n",
                TierTwo.Reason.c_str());

  std::printf("running the tier-ladder phase-shift benchmark...\n");
  TierLadderPhaseResult LadderPhase = runTierLadderPhaseBench(Reps, Smoke);
  const double LadderPhaseWin =
      LadderPhase.Available && LadderPhase.Ladder.Median > 0.0
          ? LadderPhase.Fused.Median / LadderPhase.Ladder.Median
          : 0.0;
  if (LadderPhase.Available) {
    std::printf("  phase-shift ladder: %.2fx over adaptive (%.3fs vs "
                "%.3fs median)\n",
                LadderPhaseWin, LadderPhase.Ladder.Median,
                LadderPhase.Fused.Median);
    std::printf("  phase-shift ladder: %llu deopts, %llu tier-ups, "
                "%llu compiles (budget %u), %llu suppressed\n",
                (unsigned long long)LadderPhase.Tiering.NativeDeopts,
                (unsigned long long)LadderPhase.Tiering.NativeTierUps,
                (unsigned long long)LadderPhase.Tiering.NativeCompiles,
                LadderPhase.MaxNativeCompiles,
                (unsigned long long)
                    LadderPhase.Tiering.NativeCompilesSuppressed);
    if (LadderPhase.PerfAvailable)
      std::printf("  phase-shift ladder perf: native tier %llu branches / "
                  "%llu misses vs fused tier %llu / %llu%s\n",
                  (unsigned long long)LadderPhase.LadderBranches,
                  (unsigned long long)LadderPhase.LadderBranchMisses,
                  (unsigned long long)LadderPhase.FusedBranches,
                  (unsigned long long)LadderPhase.FusedBranchMisses,
                  LadderPhase.PerfMultiplexed ? " [multiplexed]" : "");
    else
      std::printf("  phase-shift ladder perf unavailable: %s\n",
                  LadderPhase.PerfReason.c_str());
    // Structural invariants, not timing: the ladder must have deopted on
    // each flip, re-promoted after it, and served every flip past the
    // first two from the signature cache.  Violations mean the tier-2
    // state machine is thrashing (or asleep), so they fail the bench even
    // without --fail-if-slower.
    if (LadderPhase.Tiering.NativeDeopts < 1 ||
        LadderPhase.Tiering.NativeTierUps < 2 ||
        LadderPhase.Tiering.NativeCompiles > LadderPhase.MaxNativeCompiles ||
        LadderPhase.Tiering.NativeCompilesSuppressed != 0) {
      std::fprintf(stderr,
                   "bench error: tier-ladder phase shift did not "
                   "deopt/re-promote cleanly (%llu deopts, %llu tier-ups, "
                   "%llu compiles, %llu suppressed)\n",
                   (unsigned long long)LadderPhase.Tiering.NativeDeopts,
                   (unsigned long long)LadderPhase.Tiering.NativeTierUps,
                   (unsigned long long)LadderPhase.Tiering.NativeCompiles,
                   (unsigned long long)
                       LadderPhase.Tiering.NativeCompilesSuppressed);
      return 1;
    }
  } else
    std::printf("  native backend unavailable: %s\n",
                LadderPhase.Reason.c_str());

  std::printf("running the lowering matrix (sets I-IV x layout)...\n");
  const std::vector<LoweringCell> Lowering = runLoweringMatrix(Threads);
  for (const LoweringCell &Cell : Lowering)
    if (Cell.Set == SwitchHeuristicSet::SetIV)
      std::printf("  %s/%s: %llu cycles (IPC model), %u optimal trees, "
                  "chain %.3f -> chosen %.3f, fall-through %llu -> %llu\n",
                  Cell.SetName, Cell.ExtTsp ? "ext-tsp" : "hot-first",
                  (unsigned long long)Cell.CyclesIPC, Cell.OptimalTrees,
                  Cell.ChainModelCost, Cell.ChosenModelCost,
                  (unsigned long long)Cell.FallThroughBefore,
                  (unsigned long long)Cell.FallThroughAfter);
  std::printf("running the predictor zoo sweep (Set IV, plain vs "
              "aware)...\n");
  const std::vector<PredictorRow> ZooRows = runPredictorZooSweep();
  for (const PredictorRow &Row : ZooRows)
    std::printf("  %-10s plain %llu/%llu misses, aware %llu/%llu "
                "(%+.2f%%)\n",
                Row.Name.c_str(),
                (unsigned long long)Row.PlainMispredictions,
                (unsigned long long)Row.PlainBranches,
                (unsigned long long)Row.AwareMispredictions,
                (unsigned long long)Row.AwareBranches,
                delta(Row.PlainMispredictions, Row.AwareMispredictions));
  std::printf("running the Set IV native perf gate...\n");
  LoweringNativeGate LoweringGate = runLoweringNativeGate(Warmup, Reps);
  if (LoweringGate.Available)
    std::printf("  setIV+ext-tsp over setII+hot-first: %.2fx native "
                "(%.3fs vs %.3fs median)\n",
                LoweringGate.SetIVOverSetII,
                LoweringGate.SetIVExtTsp.Median,
                LoweringGate.SetIIHotFirst.Median);
  else
    std::printf("  native backend unavailable: %s\n",
                LoweringGate.Reason.c_str());

  PerfComparison Perf = runPerfComparison(std::max(3u, Reps));
  if (Perf.Available)
    std::printf("  hardware branch misses: unordered %llu / ordered %llu "
                "(%+.2f%%)%s\n",
                (unsigned long long)Perf.UnorderedMisses,
                (unsigned long long)Perf.OrderedMisses,
                Perf.UnorderedMisses
                    ? 100.0 * (static_cast<double>(Perf.OrderedMisses) -
                               static_cast<double>(Perf.UnorderedMisses)) /
                          static_cast<double>(Perf.UnorderedMisses)
                    : 0.0,
                Perf.Multiplexed ? " [multiplexed]" : "");
  else
    std::printf("  hardware counters unavailable: %s\n",
                Perf.Reason.c_str());

  std::ofstream Out(OutPath, std::ios::binary);
  if (!Out) {
    std::fprintf(stderr, "bench error: cannot write '%s'\n",
                 OutPath.c_str());
    return 1;
  }
  Out << "{\n";
  Out << "  \"suite\": \"bropt table benches\",\n";
  Out << "  \"workloads\": " << standardWorkloads().size() << ",\n";
  Out << "  \"sweep_count\": " << Sweeps.size() << ",\n";
  writeSuite(Out, "engine", FusedThreaded.Final, FusedThreaded.Cache,
             Sweeps, /*Detailed=*/true);
  Out << ",\n";
  writeSuite(Out, "tier0", Tier0Threaded.Final, Tier0Threaded.Cache, Sweeps,
             /*Detailed=*/false);
  Out << ",\n  \"speedup\": " << SpeedupThreaded << "\n";
  Out << "}\n";
  std::printf("wrote %s\n", OutPath.c_str());

  std::ofstream EngineOut(EngineOutPath, std::ios::binary);
  if (!EngineOut) {
    std::fprintf(stderr, "bench error: cannot write '%s'\n",
                 EngineOutPath.c_str());
    return 1;
  }
  EngineOut << "{\n";
  EngineOut << "  \"suite\": \"bropt engine benches\",\n";
  EngineOut << "  \"dispatch\": \""
            << (fusedDispatchIsThreaded() ? "computed-goto" : "switch")
            << "\",\n";
  EngineOut << "  \"workloads\": " << standardWorkloads().size() << ",\n";
  EngineOut << "  \"sweep_count\": " << Sweeps.size() << ",\n";
  EngineOut << "  \"smoke\": " << (Smoke ? "true" : "false") << ",\n";
  EngineOut << "  \"warmup\": " << Warmup << ",\n";
  EngineOut << "  \"reps\": " << Reps << ",\n";
  EngineOut << "  \"verified\": \"" << Verify << "\",\n";
  EngineOut << "  \"engines\": [\n";
  for (size_t Index = 0; Index < std::size(Configs); ++Index) {
    const EngineConfig &Config = Configs[Index];
    const uint64_t Insts = totalInsts(Config.Final);
    EngineOut << "    {\"name\": \"" << Config.Name << "\", \"mode\": \""
              << execModeName(Config.Mode) << "\", \"harness\": \""
              << (Config.Threaded ? "threaded" : "serial")
              << "\", \"wall_seconds\": ";
    writeTiming(EngineOut, Config.Timing);
    EngineOut << ", \"total_insts\": " << Insts
              << ", \"minsts_per_second\": "
              << (Config.Timing.Median > 0.0
                      ? static_cast<double>(Insts) / Config.Timing.Median /
                            1e6
                      : 0.0)
              << ", \"cache\": {\"decode_hits\": "
              << Config.Cache.DecodeHits
              << ", \"decode_misses\": " << Config.Cache.DecodeMisses
              << ", \"baseline_hits\": " << Config.Cache.BaselineHits
              << ", \"reordered_hits\": " << Config.Cache.ReorderedHits
              << ", \"adaptive_hits\": " << Config.Cache.AdaptiveHits
              << ", \"adaptive_misses\": " << Config.Cache.AdaptiveMisses
              << ", \"adaptive_refusions\": "
              << Config.Cache.AdaptiveReFusions << "}}"
              << (Index + 1 < std::size(Configs) ? "," : "") << "\n";
  }
  EngineOut << "  ],\n";
  EngineOut << "  \"speedup\": {\"fused_over_tier0_serial\": "
            << SpeedupSerial
            << ", \"fused_over_tier0_threaded\": " << SpeedupThreaded
            << ", \"adaptive_over_tier0_serial\": " << AdaptiveOverTier0Serial
            << ", \"adaptive_over_tier0_threaded\": "
            << AdaptiveOverTier0Threaded << "},\n";
  const RuntimeOptions BenchRuntime = benchRuntimeOptions();
  EngineOut << "  \"adaptive\": {\n";
  EngineOut << "    \"knobs\": {\"hot_threshold\": "
            << BenchRuntime.HotThreshold
            << ", \"sample_interval\": " << BenchRuntime.SampleInterval
            << ", \"drift_window\": " << BenchRuntime.DriftWindow
            << ", \"max_recompiles\": " << BenchRuntime.MaxRecompiles
            << "},\n";
  EngineOut << "    \"tiering\": {\"samples_taken\": "
            << Tiering.SamplesTaken << ", \"tier_ups\": " << Tiering.TierUps
            << ", \"swaps\": " << Tiering.Swaps
            << ", \"deferred_swaps\": " << Tiering.DeferredSwaps
            << ", \"drift_events\": " << Tiering.DriftEvents
            << ", \"recompiles\": " << Tiering.Recompiles
            << ", \"recompiles_suppressed\": "
            << Tiering.RecompilesSuppressed
            << ", \"recompile_seconds\": " << Tiering.RecompileSeconds
            << ", \"samples_at_first_swap\": "
            << Tiering.SamplesAtFirstSwap
            << ", \"dropped_samples\": " << Tiering.DroppedSamples << "},\n";
  EngineOut << "    \"profile_quality\": {\"sequences_detected\": "
            << Quality.SequencesDetected
            << ", \"sequences_profiled\": " << Quality.SequencesProfiled
            << ", \"bins_total\": " << Quality.BinsTotal
            << ", \"bins_nonzero\": " << Quality.BinsNonzero
            << ", \"bin_coverage\": "
            << (Quality.BinsTotal
                    ? static_cast<double>(Quality.BinsNonzero) /
                          static_cast<double>(Quality.BinsTotal)
                    : 0.0)
            << ", \"dropped_samples\": " << Quality.DroppedSamples
            << ", \"drift_events\": " << Quality.DriftEvents << "},\n";
  EngineOut << "    \"overhead_vs_fused_serial\": " << AdaptiveOverheadVsFused
            << ",\n";
  EngineOut << "    \"phase_shift\": {\"input_bytes\": "
            << PhaseShift.InputBytes << ", \"tier0_wall_seconds\": ";
  writeTiming(EngineOut, PhaseShift.Tier0);
  EngineOut << ", \"adaptive_wall_seconds\": ";
  writeTiming(EngineOut, PhaseShift.Adaptive);
  EngineOut << ", \"adaptive_over_tier0\": " << PhaseShiftWin
            << ", \"tier_ups\": " << PhaseShift.Tiering.TierUps
            << ", \"swaps\": " << PhaseShift.Tiering.Swaps
            << ", \"drift_events\": " << PhaseShift.Tiering.DriftEvents
            << ", \"recompiles\": " << PhaseShift.Tiering.Recompiles
            << ", \"samples_at_first_swap\": "
            << PhaseShift.Tiering.SamplesAtFirstSwap << "}\n";
  EngineOut << "  },\n";
  auto JsonEscape = [](const std::string &Text) {
    std::string Escaped;
    for (char C : Text)
      if (C == '"' || C == '\\')
        (Escaped += '\\') += C;
      else if (C == '\n')
        Escaped += "\\n";
      else
        Escaped += C;
    return Escaped;
  };
  EngineOut << "  \"native\": {\n";
  EngineOut << "    \"available\": " << (Native.Available ? "true" : "false")
            << ",\n";
  if (!Native.Available) {
    EngineOut << "    \"reason\": \"" << JsonEscape(Native.Reason)
              << "\",\n";
  } else {
    EngineOut << "    \"compiler\": \"" << JsonEscape(Native.Compiler)
              << "\",\n";
    EngineOut << "    \"harness\": \"serial\",\n";
    EngineOut << "    \"wall_seconds\": ";
    writeTiming(EngineOut, Native.Timing);
    EngineOut << ",\n";
    EngineOut << "    \"speedup\": {\"native_over_fused_serial\": "
              << NativeOverFusedSerial << "},\n";
    EngineOut << "    \"cache\": {\"native_hits\": "
              << Native.Cache.NativeHits
              << ", \"native_misses\": " << Native.Cache.NativeMisses
              << ", \"native_evictions\": " << Native.Cache.NativeEvictions
              << ", \"runner_compiles\": " << Native.Runner.Compiles
              << ", \"runner_cache_hits\": " << Native.Runner.CacheHits
              << ", \"runner_evictions\": " << Native.Runner.Evictions
              << ", \"runner_compile_seconds\": "
              << Native.Runner.CompileSeconds << "},\n";
  }
  EngineOut << "    \"perf\": {\"available\": "
            << (Perf.Available ? "true" : "false");
  if (!Perf.Available) {
    EngineOut << ", \"reason\": \"" << JsonEscape(Perf.Reason) << "\"";
  } else {
    auto MissRate = [](uint64_t Misses, uint64_t Branches) {
      return Branches ? static_cast<double>(Misses) /
                            static_cast<double>(Branches)
                      : 0.0;
    };
    EngineOut << ", \"reps\": " << Perf.Reps << ", \"multiplexed\": "
              << (Perf.Multiplexed ? "true" : "false")
              << ",\n      \"unordered\": {\"branches\": "
              << Perf.UnorderedBranches
              << ", \"branch_misses\": " << Perf.UnorderedMisses
              << ", \"miss_rate\": "
              << MissRate(Perf.UnorderedMisses, Perf.UnorderedBranches)
              << "},\n      \"ordered\": {\"branches\": "
              << Perf.OrderedBranches
              << ", \"branch_misses\": " << Perf.OrderedMisses
              << ", \"miss_rate\": "
              << MissRate(Perf.OrderedMisses, Perf.OrderedBranches)
              << "},\n      \"miss_delta_percent\": "
              << (Perf.UnorderedMisses
                      ? 100.0 *
                            (static_cast<double>(Perf.OrderedMisses) -
                             static_cast<double>(Perf.UnorderedMisses)) /
                            static_cast<double>(Perf.UnorderedMisses)
                      : 0.0);
  }
  EngineOut << "}\n";
  EngineOut << "  },\n";
  const RuntimeOptions LadderRuntime = tierLadderRuntimeOptions();
  EngineOut << "  \"adaptive_native\": {\n";
  EngineOut << "    \"available\": "
            << (TierTwo.Available ? "true" : "false") << ",\n";
  if (!TierTwo.Available) {
    EngineOut << "    \"reason\": \"" << JsonEscape(TierTwo.Reason)
              << "\"\n";
  } else {
    EngineOut << "    \"harness\": \"serial\",\n";
    EngineOut << "    \"warmup_passes\": " << TierTwo.WarmupPasses << ",\n";
    EngineOut << "    \"knobs\": {\"native_threshold\": "
              << LadderRuntime.NativeThreshold
              << ", \"min_samples_between_native_builds\": "
              << LadderRuntime.MinSamplesBetweenNativeBuilds
              << ", \"max_native_compiles\": "
              << LadderRuntime.MaxNativeCompiles
              << ", \"recheck_min\": " << LadderRuntime.NativeRecheckMin
              << ", \"recheck_max\": " << LadderRuntime.NativeRecheckMax
              << "},\n";
    EngineOut << "    \"wall_seconds\": ";
    writeTiming(EngineOut, TierTwo.Timing);
    EngineOut << ",\n";
    EngineOut << "    \"speedup\": {\"adaptive_native_over_adaptive_serial\": "
              << TierTwoOverAdaptiveSerial
              << ", \"vs_offline_native\": " << TierTwoVsOfflineNative
              << "},\n";
    EngineOut << "    \"tiering\": {\"native_tier_ups\": "
              << TierTwo.Tiering.NativeTierUps
              << ", \"native_runs\": " << TierTwo.Tiering.NativeRuns
              << ", \"native_recheck_runs\": "
              << TierTwo.Tiering.NativeRecheckRuns
              << ", \"native_deopts\": " << TierTwo.Tiering.NativeDeopts
              << ", \"native_compiles\": " << TierTwo.Tiering.NativeCompiles
              << ", \"native_compiles_suppressed\": "
              << TierTwo.Tiering.NativeCompilesSuppressed
              << ", \"native_compiles_failed\": "
              << TierTwo.Tiering.NativeCompilesFailed
              << ", \"native_compiles_cancelled\": "
              << TierTwo.Tiering.NativeCompilesCancelled
              << ", \"native_compile_seconds\": "
              << TierTwo.Tiering.NativeCompileSeconds << "},\n";
    EngineOut << "    \"cache\": {\"adaptive_hits\": "
              << TierTwo.Cache.AdaptiveHits
              << ", \"adaptive_misses\": " << TierTwo.Cache.AdaptiveMisses
              << ", \"promotions\": "
              << TierTwo.Cache.AdaptiveNativePromotions
              << ", \"deopts\": " << TierTwo.Cache.AdaptiveNativeDeopts
              << "},\n";
    EngineOut << "    \"phase_shift\": {\"input_bytes\": "
              << LadderPhase.InputBytes
              << ", \"blocks\": " << LadderPhase.Blocks
              << ", \"activations_per_block\": "
              << LadderPhase.ActivationsPerBlock
              << ",\n      \"adaptive_wall_seconds\": ";
    writeTiming(EngineOut, LadderPhase.Fused);
    EngineOut << ",\n      \"adaptive_native_wall_seconds\": ";
    writeTiming(EngineOut, LadderPhase.Ladder);
    EngineOut << ",\n      \"adaptive_native_over_adaptive\": "
              << LadderPhaseWin
              << ", \"native_deopts\": " << LadderPhase.Tiering.NativeDeopts
              << ", \"native_tier_ups\": "
              << LadderPhase.Tiering.NativeTierUps
              << ", \"native_compiles\": "
              << LadderPhase.Tiering.NativeCompiles
              << ", \"native_compiles_suppressed\": "
              << LadderPhase.Tiering.NativeCompilesSuppressed
              << ",\n      \"perf\": {\"available\": "
              << (LadderPhase.PerfAvailable ? "true" : "false");
    if (!LadderPhase.PerfAvailable) {
      EngineOut << ", \"reason\": \"" << JsonEscape(LadderPhase.PerfReason)
                << "\"";
    } else {
      EngineOut << ", \"reps\": " << LadderPhase.PerfReps
                << ", \"multiplexed\": "
                << (LadderPhase.PerfMultiplexed ? "true" : "false")
                << ",\n        \"native_tier\": {\"branches\": "
                << LadderPhase.LadderBranches
                << ", \"branch_misses\": " << LadderPhase.LadderBranchMisses
                << "},\n        \"fused_tier\": {\"branches\": "
                << LadderPhase.FusedBranches
                << ", \"branch_misses\": " << LadderPhase.FusedBranchMisses
                << "},\n        \"branch_reduction\": "
                << (LadderPhase.LadderBranches
                        ? static_cast<double>(LadderPhase.FusedBranches) /
                              static_cast<double>(LadderPhase.LadderBranches)
                        : 0.0);
    }
    EngineOut << "}}\n";
  }
  EngineOut << "  },\n";
  EngineOut << "  \"lowering\": {\n";
  EngineOut << "    \"matrix\": [\n";
  for (size_t Index = 0; Index < Lowering.size(); ++Index) {
    const LoweringCell &Cell = Lowering[Index];
    EngineOut << "      {\"set\": \"" << Cell.SetName << "\", \"layout\": \""
              << (Cell.ExtTsp ? "ext-tsp" : "hot-first")
              << "\", \"insts\": " << Cell.Insts
              << ", \"taken_branches\": " << Cell.TakenBranches
              << ", \"cycles_ipc\": " << Cell.CyclesIPC
              << ", \"cycles_ultra\": " << Cell.CyclesUltra
              << ", \"optimal_trees\": " << Cell.OptimalTrees
              << ", \"chain_model_cost\": " << Cell.ChainModelCost
              << ", \"chosen_model_cost\": " << Cell.ChosenModelCost
              << ", \"functions_laid_out\": " << Cell.FunctionsLaidOut
              << ", \"kept_incumbent\": " << Cell.KeptIncumbent
              << ", \"fall_through_weight_before\": "
              << Cell.FallThroughBefore
              << ", \"fall_through_weight_after\": " << Cell.FallThroughAfter
              << "}" << (Index + 1 < Lowering.size() ? "," : "") << "\n";
  }
  EngineOut << "    ],\n";
  EngineOut << "    \"native_gate\": {\"available\": "
            << (LoweringGate.Available ? "true" : "false");
  if (!LoweringGate.Available) {
    EngineOut << ", \"reason\": \"" << JsonEscape(LoweringGate.Reason)
              << "\"";
  } else {
    EngineOut << ",\n      \"set_ii_hot_first_wall_seconds\": ";
    writeTiming(EngineOut, LoweringGate.SetIIHotFirst);
    EngineOut << ",\n      \"set_iv_ext_tsp_wall_seconds\": ";
    writeTiming(EngineOut, LoweringGate.SetIVExtTsp);
    EngineOut << ",\n      \"set_iv_over_set_ii\": "
              << LoweringGate.SetIVOverSetII;
  }
  EngineOut << "}\n";
  EngineOut << "  },\n";
  EngineOut << "  \"predictors\": {\n";
  EngineOut << "    \"set\": \"setIV\",\n";
  EngineOut << "    \"workloads\": " << standardWorkloads().size() << ",\n";
  EngineOut << "    \"zoo\": [\n";
  for (size_t Index = 0; Index < ZooRows.size(); ++Index) {
    const PredictorRow &Row = ZooRows[Index];
    auto Rate = [](uint64_t Misses, uint64_t Branches) {
      return Branches ? static_cast<double>(Misses) /
                            static_cast<double>(Branches)
                      : 0.0;
    };
    EngineOut << "      {\"name\": \"" << Row.Name
              << "\", \"plain\": {\"branches\": " << Row.PlainBranches
              << ", \"mispredictions\": " << Row.PlainMispredictions
              << ", \"miss_rate\": "
              << Rate(Row.PlainMispredictions, Row.PlainBranches)
              << "}, \"aware\": {\"branches\": " << Row.AwareBranches
              << ", \"mispredictions\": " << Row.AwareMispredictions
              << ", \"miss_rate\": "
              << Rate(Row.AwareMispredictions, Row.AwareBranches)
              << "}, \"miss_delta_percent\": "
              << delta(Row.PlainMispredictions, Row.AwareMispredictions)
              << "}" << (Index + 1 < ZooRows.size() ? "," : "") << "\n";
  }
  EngineOut << "    ]\n";
  EngineOut << "  },\n";
  EngineOut << "  \"fusion\": {\"fused_pairs\": " << Fusion.FusedPairs
            << ", \"fused_chains\": " << Fusion.FusedChains
            << ", \"chain_arms\": " << Fusion.ChainArms
            << ", \"fused_pre_ops\": " << Fusion.FusedPreOps
            << ", \"fused_jumps\": " << Fusion.FusedJumps
            << ", \"fused_straight_pairs\": " << Fusion.FusedStraight
            << ", \"profile_ordered_chains\": "
            << Fusion.ProfileOrderedChains
            << ", \"blocks_moved\": " << Fusion.BlocksMoved
            << ", \"functions_laid_out\": " << Fusion.FunctionsLaidOut
            << ", \"compacted_slots\": " << Fusion.CompactedSlots
            << "}\n";
  EngineOut << "}\n";
  std::printf("wrote %s\n", EngineOutPath.c_str());

  // Fusion must pay for itself on the shared dispatch loop.
  if (FailIfSlower &&
      (SpeedupSerial < 1.0 || SpeedupThreaded < 1.0)) {
    std::fprintf(stderr,
                 "bench error: fused engine slower than tier0 "
                 "(serial %.2fx, threaded %.2fx)\n",
                 SpeedupSerial, SpeedupThreaded);
    return 1;
  }
  // Tiering must pay for itself: steady-state adaptive may never lose to
  // the tier it tiers up from, neither on the sweeps nor on the
  // phase-shift workload built to stress re-optimization.
  if (FailIfSlower && (AdaptiveOverTier0Serial < 1.0 ||
                       AdaptiveOverTier0Threaded < 1.0)) {
    std::fprintf(stderr,
                 "bench error: adaptive engine slower than tier0 "
                 "(serial %.2fx, threaded %.2fx)\n",
                 AdaptiveOverTier0Serial, AdaptiveOverTier0Threaded);
    return 1;
  }
  if (FailIfSlower && PhaseShiftWin < 1.0) {
    std::fprintf(stderr,
                 "bench error: adaptive engine slower than tier0 on the "
                 "phase-shift workload (%.2fx)\n",
                 PhaseShiftWin);
    return 1;
  }
  // The whole point of compiling: steady-state native may never lose to
  // the interpreter it replaced.  (Gated on availability — a host without
  // a C compiler still benches the interpreters.)
  if (FailIfSlower && Native.Available && NativeOverFusedSerial < 1.0) {
    std::fprintf(stderr,
                 "bench error: native engine slower than fused (%.2fx)\n",
                 NativeOverFusedSerial);
    return 1;
  }
  // The tier-2 promise: once the suite is promoted, the online ladder
  // must clearly beat the interpreter it grew out of (the 2x bar is far
  // below the measured native-over-interpreter gap, so tripping it means
  // promotion stopped happening) and land near the offline AOT ceiling
  // (the 15% margin absorbs the controller dispatch and scheduler noise
  // on two sub-second measurements).
  if (FailIfSlower && TierTwo.Available &&
      TierTwoOverAdaptiveSerial < 2.0) {
    std::fprintf(stderr,
                 "bench error: tier-ladder engine below 2x over "
                 "adaptive (%.2fx)\n",
                 TierTwoOverAdaptiveSerial);
    return 1;
  }
  if (FailIfSlower && TierTwo.Available && Native.Available &&
      TierTwoVsOfflineNative > 1.15) {
    std::fprintf(stderr,
                 "bench error: tier-ladder engine more than 15%% "
                 "behind offline native (%.2fx)\n",
                 TierTwoVsOfflineNative);
    return 1;
  }
  if (FailIfSlower && LadderPhase.Available && LadderPhaseWin < 1.0) {
    std::fprintf(stderr,
                 "bench error: tier ladder slower than adaptive on the "
                 "phase-shift workload (%.2fx)\n",
                 LadderPhaseWin);
    return 1;
  }
  // The Set IV promise: the optimal trees + ext-TSP layout may not lose
  // to the paper's best heuristic configuration on real silicon.  The
  // native suite runs are short, so a small tolerance absorbs scheduler
  // noise; a real regression shows up far beyond it.
  if (FailIfSlower && LoweringGate.Available &&
      LoweringGate.SetIVOverSetII < 0.95) {
    std::fprintf(stderr,
                 "bench error: Set IV + ext-TSP slower than Set II + "
                 "hot-first on the native backend (%.2fx)\n",
                 LoweringGate.SetIVOverSetII);
    return 1;
  }
  return 0;
}
