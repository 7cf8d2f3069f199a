//===- tools/broptc.cpp - Command-line driver for bropt --------------------===//
//
// Compiles a Mini-C source file through the two-pass branch-reordering
// pipeline and optionally runs it:
//
//   broptc program.mc --train train.txt --input test.txt --run --stats
//
// Options:
//   --train FILE          training input for the profiling pass; may be
//                         given several times to merge training sets
//                         (no --train and no --profile-in means no
//                         reordering: baseline build)
//   --input FILE          input for --run (default: empty)
//   --set I|II|III|IV     switch-translation heuristic set (default I);
//                         Set IV adds optimal-tree lowering and method
//                         selection on top of Set III (docs/LOWERING.md)
//   --lowering setN       alias for --set: set1..set4
//   --common-successor    also reorder common-successor chains (paper §10)
//   --method-selection    allow profile-guided jump tables (paper §10)
//   --ijmp-cost N         indirect-jump cost estimate for method selection
//   --predictor NAME      compile misprediction-aware against a zoo
//                         predictor (paper, gshare, local, tage,
//                         tage-poor; docs/PREDICT.md): training runs
//                         measure per-branch mispredictions and shape
//                         selection charges them.  With --run, also
//                         reports mispredictions under that predictor
//   --emit-ir             print the final IR
//   --profile-in FILE     load a saved profile (text or binary; see
//                         docs/PROFILE.md) and feed it into pass 2; may be
//                         given several times — profiles merge, and any
//                         --train profile merges in on top.  Also
//                         warm-starts the adaptive engine.
//   --profile-out FILE    write the profile that fed pass 2; with the
//                         adaptive engine, write what the runtime learned
//                         instead (--profile is an alias)
//   --profile-binary      write --profile-out in the binary format
//   --stats               print detection/reordering statistics
//   --run                 interpret the program and echo its output
//   --predict             with --run: report mispredictions (under the
//                         --predictor scheme, default the paper's
//                         (0,2)/2048)
//   --interp MODE         execution engine for --run: 'fused' (default),
//                         'tree' (reference tree-walking interpreter),
//                         'adaptive' (online tiering; see
//                         docs/RUNTIME.md), or 'native' (AOT via the host
//                         C compiler)
//   --adaptive            shorthand for --interp adaptive; prints the
//                         tiering counters after the run
//   --adaptive-native     --adaptive with the runtime's native tier on
//                         (the full tier ladder: tier-2 promotion to
//                         machine code); prints the native-tier counters
//                         too
//   --native-threshold N  estimated branch executions before a hot
//                         function is promoted to the native tier
//   --adaptive-trace      with the adaptive engines: log tier-up, swap,
//                         drift, recompile, and native-tier events to
//                         stderr
//   --serve               run as the broptd daemon instead of compiling;
//                         takes the broptd flag set (--socket PATH, ...)
//                         and ignores the options above (docs/SERVICE.md)
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "exec/ExecBackend.h"
#include "ir/Printer.h"
#include "predict/Zoo.h"
#include "runtime/AdaptiveController.h"
#include "service/ServeMain.h"
#include "sim/Interpreter.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace bropt;

namespace {

[[noreturn]] void usageError(const char *Message) {
  std::fprintf(stderr, "broptc: %s\n", Message);
  std::fprintf(stderr,
               "usage: broptc FILE.mc [--train FILE] [--input FILE] "
               "[--set I|II|III|IV] [--lowering set1..set4]\n"
               "              [--common-successor] [--method-selection] "
               "[--ijmp-cost N] [--predictor NAME]\n"
               "              [--emit-ir] [--profile-in FILE] "
               "[--profile-out FILE] [--profile-binary]\n"
               "              [--stats] [--run] [--predict]\n"
               "              [--interp fused|tree|adaptive|native]\n"
               "              [--adaptive] [--adaptive-native] "
               "[--native-threshold N] [--adaptive-trace]\n"
               "       broptc --serve --socket PATH [flags]   "
               "(daemon mode; see docs/SERVICE.md)\n");
  std::exit(2);
}

std::string readFileOrDie(const std::string &Path) {
  std::ifstream Stream(Path, std::ios::binary);
  if (!Stream) {
    std::fprintf(stderr, "broptc: cannot read '%s'\n", Path.c_str());
    std::exit(1);
  }
  std::ostringstream Buffer;
  Buffer << Stream.rdbuf();
  return Buffer.str();
}

struct CliOptions {
  std::string SourcePath;
  std::vector<std::string> TrainPaths;
  std::string InputPath;
  std::vector<std::string> ProfileInPaths;
  std::string ProfileOutPath;
  bool ProfileBinary = false;
  CompileOptions Compile;
  bool EmitIR = false;
  bool Stats = false;
  bool Run = false;
  bool Predict = false;
  bool AdaptiveStats = false;
  bool AdaptiveTrace = false;
  bool NativeTier = false;      ///< RuntimeOptions::NativeTier
  uint64_t NativeThreshold = 0; ///< 0 keeps the RuntimeOptions default
  Interpreter::Mode InterpMode = Interpreter::Mode::Fused;
};

CliOptions parseArgs(int Argc, char **Argv) {
  CliOptions Options;
  for (int Index = 1; Index < Argc; ++Index) {
    std::string Arg = Argv[Index];
    auto nextValue = [&]() -> std::string {
      if (Index + 1 >= Argc)
        usageError(("missing value after " + Arg).c_str());
      return Argv[++Index];
    };
    if (Arg == "--train") {
      Options.TrainPaths.push_back(nextValue());
    } else if (Arg == "--input") {
      Options.InputPath = nextValue();
    } else if (Arg == "--set" || Arg == "--lowering") {
      std::string Set = nextValue();
      if (Set == "I" || Set == "set1")
        Options.Compile.HeuristicSet = SwitchHeuristicSet::SetI;
      else if (Set == "II" || Set == "set2")
        Options.Compile.HeuristicSet = SwitchHeuristicSet::SetII;
      else if (Set == "III" || Set == "set3")
        Options.Compile.HeuristicSet = SwitchHeuristicSet::SetIII;
      else if (Set == "IV" || Set == "set4")
        Options.Compile.HeuristicSet = SwitchHeuristicSet::SetIV;
      else
        usageError("--set expects I, II, III, or IV "
                   "(--lowering: set1..set4)");
    } else if (Arg == "--common-successor") {
      Options.Compile.EnableCommonSuccessorReordering = true;
    } else if (Arg == "--method-selection") {
      Options.Compile.Reorder.EnableMethodSelection = true;
    } else if (Arg == "--ijmp-cost") {
      Options.Compile.Reorder.Cost.IndirectJumpCost =
          std::atof(nextValue().c_str());
    } else if (Arg == "--predictor") {
      Options.Compile.Predictor = nextValue();
      if (!makePredictor(Options.Compile.Predictor))
        usageError("--predictor expects a zoo name: paper, gshare, "
                   "local, tage, or tage-poor");
    } else if (Arg == "--emit-ir") {
      Options.EmitIR = true;
    } else if (Arg == "--profile" || Arg == "--profile-out") {
      Options.ProfileOutPath = nextValue();
    } else if (Arg == "--profile-in") {
      Options.ProfileInPaths.push_back(nextValue());
    } else if (Arg == "--profile-binary") {
      Options.ProfileBinary = true;
    } else if (Arg == "--stats") {
      Options.Stats = true;
    } else if (Arg == "--run") {
      Options.Run = true;
    } else if (Arg == "--predict") {
      Options.Predict = true;
    } else if (Arg == "--interp") {
      std::string Mode = nextValue();
      if (std::optional<Interpreter::Mode> Parsed = parseExecMode(Mode))
        Options.InterpMode = *Parsed;
      else
        usageError("--interp expects 'fused', 'tree', 'adaptive', or "
                   "'native'");
    } else if (Arg == "--adaptive") {
      Options.InterpMode = Interpreter::Mode::Adaptive;
      Options.AdaptiveStats = true;
    } else if (Arg == "--adaptive-native") {
      Options.InterpMode = Interpreter::Mode::Adaptive;
      Options.NativeTier = true;
      Options.AdaptiveStats = true;
    } else if (Arg == "--native-threshold") {
      Options.NativeThreshold =
          static_cast<uint64_t>(std::atoll(nextValue().c_str()));
    } else if (Arg == "--adaptive-trace") {
      Options.InterpMode = Interpreter::Mode::Adaptive;
      Options.AdaptiveStats = true;
      Options.AdaptiveTrace = true;
    } else if (!Arg.empty() && Arg[0] == '-') {
      usageError(("unknown option " + Arg).c_str());
    } else if (Options.SourcePath.empty()) {
      Options.SourcePath = Arg;
    } else {
      usageError("more than one source file given");
    }
  }
  if (Options.SourcePath.empty())
    usageError("no source file given");
  return Options;
}

} // namespace

int main(int Argc, char **Argv) {
  // `broptc --serve` is a thin alias for broptd: same flags, same loop
  // (docs/SERVICE.md).  Intercepted before the compile-driver parse,
  // which would otherwise demand a source file.
  for (int Index = 1; Index < Argc; ++Index) {
    if (std::strcmp(Argv[Index], "--serve") != 0)
      continue;
    ServiceOptions Serve;
    bool Verbose = false;
    std::string Error;
    if (!parseServeArgs(Argc, Argv, Serve, Verbose, &Error)) {
      std::fprintf(stderr,
                   "broptc --serve: %s\nusage: broptc --serve --socket "
                   "PATH [flags]\n%s",
                   Error.c_str(), serveUsage());
      return 2;
    }
    return runServeLoop(std::move(Serve), Verbose);
  }

  CliOptions Options = parseArgs(Argc, Argv);
  std::string Source = readFileOrDie(Options.SourcePath);

  // Assemble the pass-2 profile: saved files first (merging), then any
  // fresh training runs on top.  Conflicting records are skipped with a
  // warning, never silently misattributed.
  ProfileDB Profile;
  bool HaveProfile = false;
  for (const std::string &Path : Options.ProfileInPaths) {
    ProfileDB Loaded;
    std::string Error;
    if (!Loaded.loadFile(Path, &Error)) {
      std::fprintf(stderr, "broptc: cannot load profile '%s': %s\n",
                   Path.c_str(), Error.c_str());
      return 1;
    }
    ProfileMergeStats Merge = Profile.merge(Loaded);
    for (const std::string &Conflict : Merge.Conflicts)
      std::fprintf(stderr, "broptc: warning: %s: %s\n", Path.c_str(),
                   Conflict.c_str());
    HaveProfile = true;
  }
  std::vector<std::string> TrainingSets;
  std::vector<std::string_view> TrainingViews;
  if (!Options.TrainPaths.empty()) {
    for (const std::string &Path : Options.TrainPaths)
      TrainingSets.push_back(readFileOrDie(Path));
    TrainingViews.assign(TrainingSets.begin(), TrainingSets.end());
    Pass1Result Pass1 = runPass1(Source, TrainingViews, Options.Compile);
    if (!Pass1.ok()) {
      std::fprintf(stderr, "broptc: %s\n", Pass1.Error.c_str());
      return 1;
    }
    ProfileMergeStats Merge = Profile.merge(Pass1.Profile);
    for (const std::string &Conflict : Merge.Conflicts)
      std::fprintf(stderr, "broptc: warning: training profile: %s\n",
                   Conflict.c_str());
    HaveProfile = true;
  }

  CompileResult Result;
  if (HaveProfile) {
    Result = compileWithProfile(Source, Profile, Options.Compile);
    Result.ProfileText = Profile.serializeText();
    // Fresh training runs also yield an edge-weight measurement for the
    // ext-TSP layout; with only --profile-in, compileWithProfile already
    // imported any saved edge records.
    if (!TrainingViews.empty())
      applyMeasuredLayout(Result, TrainingViews, Profile, Options.Compile);
  } else {
    Result = compileBaseline(Source, Options.Compile);
  }
  if (!Result.ok()) {
    std::fprintf(stderr, "broptc: %s\n", Result.Error.c_str());
    return 1;
  }

  if (Options.Stats) {
    std::printf("switch translation: %u jump table(s), %u binary "
                "search(es), %u linear search(es)\n",
                Result.SwitchStats.JumpTables,
                Result.SwitchStats.BinarySearches,
                Result.SwitchStats.LinearSearches);
    std::printf("sequences: %u detected, %u reordered, %u never executed, "
                "%u profile problems, %u emitted as jump tables, "
                "%u as optimal trees\n",
                Result.Stats.Detected, Result.Stats.Reordered,
                Result.Stats.NeverExecuted, Result.Stats.ProfileProblems,
                Result.Stats.JumpTables, Result.Stats.OptimalTrees);
    if (Result.Stats.Reordered > 0)
      std::printf("modeled cost: chain %.3f, chosen %.3f\n",
                  Result.Stats.ChainModelCost, Result.Stats.ChosenModelCost);
    if (Result.Stats.Layout.FunctionsLaidOut > 0)
      std::printf("layout: %u function(s) ext-TSP, %u chains merged, "
                  "%u blocks moved, %u kept incumbent, fall-through "
                  "weight %llu -> %llu\n",
                  Result.Stats.Layout.FunctionsLaidOut,
                  Result.Stats.Layout.ChainsMerged,
                  Result.Stats.Layout.BlocksMoved,
                  Result.Stats.Layout.KeptIncumbent,
                  static_cast<unsigned long long>(
                      Result.Stats.Layout.FallThroughWeightBefore),
                  static_cast<unsigned long long>(
                      Result.Stats.Layout.FallThroughWeightAfter));
    if (Options.Compile.EnableCommonSuccessorReordering)
      std::printf("common-successor: %u detected, %u reordered "
                  "(expected branches %.2f -> %.2f)\n",
                  Result.CommonStats.Detected, Result.CommonStats.Reordered,
                  Result.CommonStats.SumExpectedBefore,
                  Result.CommonStats.SumExpectedAfter);
    for (auto [Before, After] : Result.Stats.Lengths)
      std::printf("  sequence length %u -> %u branches\n", Before, After);
    std::printf("static code size: %zu instructions\n",
                Result.M->codeSize());
  }

  if (Options.EmitIR)
    std::printf("%s", printModule(*Result.M).c_str());

  std::unique_ptr<AdaptiveController> Adaptive;
  if (Options.Run) {
    std::string Input;
    if (!Options.InputPath.empty())
      Input = readFileOrDie(Options.InputPath);
    // All engines — including the native AOT backend — dispatch through
    // the exec seam; broptc no longer hand-assembles an Interpreter.
    ExecRequest Req;
    Req.Input = Input;
    if (Options.InterpMode == Interpreter::Mode::Adaptive) {
      RuntimeOptions RO;
      RO.NativeTier = Options.NativeTier;
      if (Options.NativeThreshold)
        RO.NativeThreshold = Options.NativeThreshold;
      if (Options.AdaptiveTrace)
        RO.Trace = [](const std::string &Event) {
          std::fprintf(stderr, "[adaptive] %s\n", Event.c_str());
        };
      // The tier-2 rebuild must select shapes under the same model as the
      // offline compile (Set IV preset, armed cost model included).
      RO.Reorder = effectiveReorderOptions(Options.Compile);
      RO.Predictor = Options.Compile.Predictor;
      Adaptive = std::make_unique<AdaptiveController>(*Result.M, RO);
      if (HaveProfile)
        Adaptive->importProfile(Profile);
      Req.Adaptive = Adaptive.get();
    }
    std::unique_ptr<Predictor> Measured;
    if (Options.Predict || !Options.Compile.Predictor.empty()) {
      // Measure under the targeted predictor; plain --predict keeps the
      // paper's (0,2)/2048 hardware scheme.
      Measured = makePredictor(Options.Compile.Predictor.empty()
                                   ? "paper"
                                   : Options.Compile.Predictor);
      Req.AttachedPredictor = Measured.get();
    }
    RunResult Run = executeModule(*Result.M, Options.InterpMode, Req);
    if (Run.Trapped) {
      std::fprintf(stderr, "broptc: program trapped: %s\n",
                   Run.TrapReason.c_str());
      return 1;
    }
    std::fwrite(Run.Output.data(), 1, Run.Output.size(), stdout);
    std::fprintf(stderr,
                 "exit %lld; %llu instructions, %llu branches, "
                 "%llu jumps, %llu indirect\n",
                 static_cast<long long>(Run.ExitValue),
                 static_cast<unsigned long long>(Run.Counts.TotalInsts),
                 static_cast<unsigned long long>(Run.Counts.CondBranches),
                 static_cast<unsigned long long>(Run.Counts.UncondJumps),
                 static_cast<unsigned long long>(Run.Counts.IndirectJumps));
    if (Options.InterpMode == Interpreter::Mode::Native)
      std::fprintf(stderr,
                   "(native: dynamic counters are not collected)\n");
    if (Measured)
      std::fprintf(stderr, "mispredictions (%s): %llu of %llu branches\n",
                   Measured->name(),
                   static_cast<unsigned long long>(
                       Measured->getStats().Mispredictions),
                   static_cast<unsigned long long>(
                       Measured->getStats().Branches));
    if (Adaptive && Options.AdaptiveStats) {
      RuntimeStats RS = Adaptive->stats();
      std::fprintf(
          stderr,
          "adaptive: %llu samples (%llu dropped), %llu tier-up(s), "
          "%llu swap(s) (%llu deferred), %llu drift event(s), "
          "%llu recompile(s) (%llu suppressed, %.3fs)\n",
          static_cast<unsigned long long>(RS.SamplesTaken),
          static_cast<unsigned long long>(RS.DroppedSamples),
          static_cast<unsigned long long>(RS.TierUps),
          static_cast<unsigned long long>(RS.Swaps),
          static_cast<unsigned long long>(RS.DeferredSwaps),
          static_cast<unsigned long long>(RS.DriftEvents),
          static_cast<unsigned long long>(RS.Recompiles),
          static_cast<unsigned long long>(RS.RecompilesSuppressed),
          RS.RecompileSeconds);
      if (Adaptive->options().NativeTier)
        std::fprintf(
            stderr,
            "native tier: %llu promotion(s), %llu native run(s), "
            "%llu recheck(s), %llu deopt(s), %llu compile(s) "
            "(%llu failed, %llu cancelled, %llu suppressed, %.3fs)\n",
            static_cast<unsigned long long>(RS.NativeTierUps),
            static_cast<unsigned long long>(RS.NativeRuns),
            static_cast<unsigned long long>(RS.NativeRecheckRuns),
            static_cast<unsigned long long>(RS.NativeDeopts),
            static_cast<unsigned long long>(RS.NativeCompiles),
            static_cast<unsigned long long>(RS.NativeCompilesFailed),
            static_cast<unsigned long long>(RS.NativeCompilesCancelled),
            static_cast<unsigned long long>(RS.NativeCompilesSuppressed),
            RS.NativeCompileSeconds);
    }
  }

  if (!Options.ProfileOutPath.empty()) {
    // With the adaptive engine, write what the runtime learned — the
    // headline round trip: `--adaptive --profile-out=p` then
    // `--profile-in=p` reproduces the tier-up's orderings offline.
    // Otherwise write the profile that fed pass 2.
    ProfileDB Out;
    if (Adaptive)
      Adaptive->exportProfile(Out);
    else if (HaveProfile && !Out.deserialize(Result.ProfileText)) {
      std::fprintf(stderr, "broptc: internal error: profile re-read failed\n");
      return 1;
    }
    std::string Error;
    if (!Out.saveFile(Options.ProfileOutPath, Options.ProfileBinary,
                      &Error)) {
      std::fprintf(stderr, "broptc: cannot write '%s': %s\n",
                   Options.ProfileOutPath.c_str(), Error.c_str());
      return 1;
    }
  }
  return 0;
}
