//===- fuzz/Fuzzer.cpp - Randomized differential-testing campaigns --------===//

#include "fuzz/Fuzzer.h"

#include "fuzz/Generator.h"
#include "fuzz/Minimizer.h"
#include "fuzz/Rng.h"
#include "support/Strings.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

using namespace bropt;

OracleOptions bropt::optionsForSeed(uint64_t ProgramSeed, FaultKind Fault) {
  // Options derive from an independent stream so that adding a knob never
  // perturbs program generation for existing seeds.
  Rng R(Rng::mix(ProgramSeed, /*Salt=*/0xC0FF));
  OracleOptions Opts;
  switch (R.range(0, 2)) {
  case 0:
    Opts.Compile.HeuristicSet = SwitchHeuristicSet::SetI;
    break;
  case 1:
    Opts.Compile.HeuristicSet = SwitchHeuristicSet::SetII;
    break;
  default:
    Opts.Compile.HeuristicSet = SwitchHeuristicSet::SetIII;
    break;
  }
  Opts.Compile.Reorder.DuplicateDefaultTarget = R.pct(75);
  Opts.Compile.Reorder.OrderFormFourBranches = R.pct(75);
  Opts.Compile.Reorder.UseExhaustiveSelection = R.pct(15);
  Opts.Compile.Reorder.EnableMethodSelection = R.pct(30);
  Opts.Compile.EnableCommonSuccessorReordering = R.pct(30);
  // Adaptive-runtime knobs draw *after* every pre-existing knob so old
  // seeds keep their compile options.  Varying the sample interval and
  // hot threshold moves the tier-up and safe-point swap positions around
  // relative to program behavior, which is exactly the state space the
  // adaptive oracle needs covered.
  Opts.AdaptiveSampleInterval = static_cast<uint32_t>(R.range(1, 32));
  Opts.AdaptiveHotThreshold = static_cast<uint64_t>(R.range(32, 1024));
  Opts.AdaptiveDriftWindow = static_cast<uint32_t>(R.range(8, 64));
  Opts.Fault = Fault;
  return Opts;
}

std::string bropt::renderReproducer(const FuzzViolation &Violation,
                                   const FuzzOptions &Campaign) {
  OracleOptions Opts = optionsForSeed(Violation.ProgramSeed, FaultKind::None);
  std::string Detail = Violation.Detail;
  for (size_t At = Detail.find('\n'); At != std::string::npos;
       At = Detail.find('\n', At + 4))
    Detail.replace(At, 1, "\n// ");
  std::string Text;
  Text += "// bropt-fuzz reproducer\n";
  Text += formatString("// seed: %llu\n",
                       (unsigned long long)Violation.ProgramSeed);
  Text += formatString("// violation: %s\n",
                       violationKindName(Violation.Kind));
  Text += "// detail: " + Detail + "\n";
  Text += formatString(
      "// config: set %s, dup-default %d, form-four %d, exhaustive %d, "
      "method-selection %d, common-successor %d\n",
      switchHeuristicSetName(Opts.Compile.HeuristicSet),
      (int)Opts.Compile.Reorder.DuplicateDefaultTarget,
      (int)Opts.Compile.Reorder.OrderFormFourBranches,
      (int)Opts.Compile.Reorder.UseExhaustiveSelection,
      (int)Opts.Compile.Reorder.EnableMethodSelection,
      (int)Opts.Compile.EnableCommonSuccessorReordering);
  Text += formatString(
      "// adaptive: sample-interval %u, hot-threshold %llu, drift-window %u\n",
      Opts.AdaptiveSampleInterval,
      (unsigned long long)Opts.AdaptiveHotThreshold, Opts.AdaptiveDriftWindow);
  // Program Index of campaign Seed is the last of Index + 1 programs.
  const OracleChecks &Checks = Campaign.Checks;
  Text += formatString(
      "// replay: bropt-fuzz --seed %llu --programs %u --native %s "
      "--adaptive-native %s --lowering-check %s%s",
      (unsigned long long)Campaign.Seed, Violation.Index + 1,
      Checks.Native ? "auto" : "off", Checks.AdaptiveNative ? "auto" : "off",
      Checks.LoweringOptimal ? "on" : "off", Checks.Service ? " --serve" : "");
  if (Campaign.Fault != FaultKind::None)
    Text += std::string(" --fault ") + faultKindName(Campaign.Fault);
  Text += "\n\n" + Violation.Source;
  return Text;
}

namespace {

std::string writeReproducer(const FuzzOptions &Campaign,
                            const FuzzViolation &Violation) {
  std::error_code EC;
  std::filesystem::create_directories(Campaign.CorpusDir, EC);
  std::string Path =
      Campaign.CorpusDir +
      formatString("/case-%llu-%s.minic",
                   (unsigned long long)Violation.ProgramSeed,
                   violationKindName(Violation.Kind));
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return "";
  Out << renderReproducer(Violation, Campaign);
  return Path;
}

} // namespace

FuzzCampaignResult bropt::runFuzzCampaign(const FuzzOptions &Opts) {
  FuzzCampaignResult Result;
  auto Start = std::chrono::steady_clock::now();
  auto timedOut = [&] {
    if (!Opts.Seconds)
      return false;
    return std::chrono::steady_clock::now() - Start >=
           std::chrono::seconds(Opts.Seconds);
  };

  for (unsigned Index = 0;; ++Index) {
    if (Opts.Seconds ? timedOut() : Index >= Opts.Programs)
      break;
    uint64_t ProgramSeed = Rng::mix(Opts.Seed, Index);
    GeneratedProgram Program = generateProgram(ProgramSeed);
    OracleOptions Oracle = optionsForSeed(ProgramSeed, Opts.Fault);
    Oracle.Checks = Opts.Checks;
    OracleReport Report = runOracle(Program.Source, Program.TrainingInputs,
                                    Program.HeldOutInputs, Oracle);
    ++Result.ProgramsRun;
    Result.NativeCompileCancellations += Report.NativeCompileCancellations;
    Result.DroppedConnections += Report.DroppedConnections;
    if (Report.ok())
      continue;
    if (Report.Kind == ViolationKind::CompileError) {
      ++Result.CompileErrors;
      if (Opts.Verbose)
        std::fprintf(stderr, "bropt-fuzz: seed %llu: %s\n",
                     (unsigned long long)ProgramSeed,
                     Report.Detail.c_str());
      continue;
    }

    FuzzViolation Violation;
    Violation.ProgramSeed = ProgramSeed;
    Violation.Index = Index;
    Violation.Kind = Report.Kind;
    Violation.Detail = Report.Detail;
    if (Opts.Verbose)
      std::fprintf(stderr, "bropt-fuzz: seed %llu: %s: %s\n",
                   (unsigned long long)ProgramSeed,
                   violationKindName(Report.Kind), Report.Detail.c_str());

    // Shrink while the oracle keeps reporting the same invariant broken.
    // The inputs are held fixed: they derive from the seed, and the
    // reproducer replays through the same seed.
    ViolationKind Target = Report.Kind;
    auto StillFails = [&](const std::string &Candidate) {
      return runOracle(Candidate, Program.TrainingInputs,
                       Program.HeldOutInputs, Oracle)
                 .Kind == Target;
    };
    MinimizeResult Minimized =
        minimizeSource(Program.Source, StillFails, Opts.MinimizeRounds);
    Violation.Source = Minimized.Source;
    Violation.Statements = Minimized.Statements;
    if (!Opts.CorpusDir.empty())
      Violation.Path = writeReproducer(Opts, Violation);
    Result.Violations.push_back(std::move(Violation));
  }
  return Result;
}
