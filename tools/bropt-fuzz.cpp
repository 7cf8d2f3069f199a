//===- tools/bropt-fuzz.cpp - Differential-testing fuzzer CLI --------------===//
//
// Runs randomized differential-testing campaigns over the full pipeline:
//
//   bropt-fuzz --programs 200 --seed 1 --corpus fuzz/corpus
//
// Each program is generated from a seed, compiled baseline and reordered
// under a seed-derived configuration, and checked against the oracle's
// six invariants (fuzz/Oracle.h): behavior, engine agreement, per-pass
// verification, ordering cost, profile persistence and lowering
// optimality.  Violations are delta-debugged to a minimal reproducer whose
// header names the command that re-runs the program.
//
// Options:
//   --programs N      number of programs to run (default 200)
//   --seconds N       run for N wall-clock seconds instead of a fixed count
//   --seed N          base campaign seed (default 1); program I of the
//                     campaign runs under program seed Rng::mix(N, I)
//   --corpus DIR      write minimized reproducers into DIR
//   --fault KIND      inject a pipeline fault (self-test): 'corrupt-reorder'
//                     breaks a reordered branch, 'pretend-cost' inverts the
//                     cost check, 'pretend-lowering' inverts the Set IV
//                     never-worse check; the run then EXPECTS violations and
//                     fails if the oracles stay silent.
//                     'hang-native-compile' (implies the tier-ladder
//                     row) wedges the tier-2 JIT's host compiler
//                     instead; that run expects the INVERSE — zero
//                     violations and at least one recorded compile
//                     cancellation — proving the compile deadline tears the
//                     hang down without observable divergence.
//                     'drop-connection' (implies --serve) kills client
//                     connections to the in-process broptd mid-request;
//                     also inverted — zero violations and at least one
//                     recorded drop prove a vanishing client never
//                     corrupts the daemon's shared caches or shards
//   --serve           also replay every program through a campaign-wide
//                     in-process broptd and hold the wire responses to
//                     bit-identical agreement with direct execution
//   --minimize-rounds N  cap delta-debugging passes (default 16)
//   --native MODE     the native row of engine agreement: 'off'
//                     (default) skips it, 'auto' runs it when a host
//                     compiler is available and silently skips otherwise,
//                     'on' fails fast when no compiler is found
//   --adaptive-native MODE  the tier-ladder row (the adaptive runtime
//                     with its native tier on), same modes and semantics
//                     as --native
//   --lowering-check MODE  Set IV lowering-optimality invariant: 'on'
//                     (default) recompiles every program under Set IV and
//                     holds it to observable identity plus the never-worse
//                     model-cost guarantee, 'off' disables the recompile
//                     to keep smoke campaigns cheap
//   --quiet           suppress per-violation detail
//
// Exit status: 0 when expectations hold (no violations normally; at least
// one detected violation under --fault), 1 otherwise, 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "codegen/NativeRunner.h"
#include "fuzz/Fuzzer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace bropt;

namespace {

[[noreturn]] void usageError(const char *Message) {
  std::fprintf(stderr, "bropt-fuzz: %s\n", Message);
  std::fprintf(stderr,
               "usage: bropt-fuzz [--programs N] [--seconds N] [--seed N]\n"
               "                  [--corpus DIR] [--fault corrupt-reorder|"
               "pretend-cost|pretend-lowering|hang-native-compile|"
               "drop-connection]\n"
               "                  [--serve] [--minimize-rounds N] "
               "[--native off|auto|on] [--adaptive-native off|auto|on]\n"
               "                  [--lowering-check on|off] [--quiet]\n"
               "each MODE list starts with its default\n");
  std::exit(2);
}

uint64_t parseCount(const char *Text, const char *Flag) {
  char *End = nullptr;
  unsigned long long Value = std::strtoull(Text, &End, 10);
  if (!End || *End)
    usageError((std::string("bad value for ") + Flag).c_str());
  return Value;
}

} // namespace

int main(int argc, char **argv) {
  FuzzOptions Opts;
  Opts.Verbose = true;
  bool RequireNative = false;
  for (int Arg = 1; Arg < argc; ++Arg) {
    auto needValue = [&](const char *Flag) -> const char * {
      if (Arg + 1 >= argc)
        usageError((std::string(Flag) + " needs a value").c_str());
      return argv[++Arg];
    };
    if (!std::strcmp(argv[Arg], "--programs"))
      Opts.Programs = static_cast<unsigned>(parseCount(
          needValue("--programs"), "--programs"));
    else if (!std::strcmp(argv[Arg], "--seconds"))
      Opts.Seconds = static_cast<unsigned>(parseCount(
          needValue("--seconds"), "--seconds"));
    else if (!std::strcmp(argv[Arg], "--seed"))
      Opts.Seed = parseCount(needValue("--seed"), "--seed");
    else if (!std::strcmp(argv[Arg], "--corpus"))
      Opts.CorpusDir = needValue("--corpus");
    else if (!std::strcmp(argv[Arg], "--minimize-rounds"))
      Opts.MinimizeRounds = static_cast<unsigned>(parseCount(
          needValue("--minimize-rounds"), "--minimize-rounds"));
    else if (!std::strcmp(argv[Arg], "--fault")) {
      const char *Kind = needValue("--fault");
      Opts.Fault = FaultKind::None;
      for (FaultKind Fault :
           {FaultKind::CorruptReorderedBlock, FaultKind::PretendCostRegression,
            FaultKind::PretendLoweringRegression,
            FaultKind::HangNativeCompile, FaultKind::DropConnection})
        if (!std::strcmp(Kind, faultKindName(Fault)))
          Opts.Fault = Fault;
      if (Opts.Fault == FaultKind::None)
        usageError("unknown --fault kind");
    } else if (!std::strcmp(argv[Arg], "--serve"))
      Opts.Checks.Service = true;
    else if (!std::strcmp(argv[Arg], "--native") ||
             !std::strcmp(argv[Arg], "--adaptive-native")) {
      const char *Flag = argv[Arg];
      const char *Policy = needValue(Flag);
      bool &Row = !std::strcmp(Flag, "--native") ? Opts.Checks.Native
                                                  : Opts.Checks.AdaptiveNative;
      if (!std::strcmp(Policy, "off"))
        Row = false;
      else if (!std::strcmp(Policy, "on"))
        Row = RequireNative = true;
      else if (!std::strcmp(Policy, "auto"))
        Row = true;
      else
        usageError((std::string("unknown ") + Flag +
                    " mode (want on, off, or auto)")
                       .c_str());
    } else if (!std::strcmp(argv[Arg], "--lowering-check")) {
      const char *Policy = needValue("--lowering-check");
      if (!std::strcmp(Policy, "off"))
        Opts.Checks.LoweringOptimal = false;
      else if (!std::strcmp(Policy, "on"))
        Opts.Checks.LoweringOptimal = true;
      else
        usageError("unknown --lowering-check mode (want on or off)");
    } else if (!std::strcmp(argv[Arg], "--quiet"))
      Opts.Verbose = false;
    else
      usageError((std::string("unknown option ") + argv[Arg]).c_str());
  }

  if (RequireNative && !NativeRunner::shared().available()) {
    std::fprintf(stderr,
                 "bropt-fuzz: native checks forced on, but %s\n",
                 NativeRunner::shared().unavailableReason().c_str());
    return 2;
  }

  FuzzCampaignResult Result = runFuzzCampaign(Opts);

  std::printf("bropt-fuzz: %u programs, %u compile errors, %zu violations, "
              "%llu native compile cancellations, %llu dropped "
              "connections\n",
              Result.ProgramsRun, Result.CompileErrors,
              Result.Violations.size(),
              (unsigned long long)Result.NativeCompileCancellations,
              (unsigned long long)Result.DroppedConnections);
  for (const FuzzViolation &V : Result.Violations)
    std::printf("  seed %llu: %s (%zu statements minimized%s%s)\n",
                (unsigned long long)V.ProgramSeed,
                violationKindName(V.Kind), V.Statements,
                V.Path.empty() ? "" : ", written to ",
                V.Path.c_str());

  // Generated programs must always compile; a compile error is a bug in
  // the generator even when the pipeline behaves.
  bool Failed = Result.CompileErrors != 0;
  if (Opts.Fault == FaultKind::None)
    Failed |= !Result.Violations.empty();
  else if (Opts.Fault == FaultKind::HangNativeCompile) {
    // Inverted expectation: the wedged compiler must never surface as a
    // violation (the fused tier keeps running), but the deadline must
    // actually have fired at least once.
    Failed |= !Result.Violations.empty();
    if (!Result.NativeCompileCancellations) {
      std::printf("bropt-fuzz: hang fault injected but no compile was "
                  "cancelled — the tier-2 deadline is not firing\n");
      Failed = true;
    }
  } else if (Opts.Fault == FaultKind::DropConnection) {
    // Inverted the same way: dropped connections must never surface as a
    // violation (the daemon's shared state stays sound), but the daemon
    // must actually have recorded at least one drop.
    Failed |= !Result.Violations.empty();
    if (!Result.DroppedConnections) {
      std::printf("bropt-fuzz: drop-connection fault injected but the "
                  "daemon recorded no dropped connection\n");
      Failed = true;
    }
  } else if (Result.Violations.empty()) {
    std::printf("bropt-fuzz: fault injection found no violations — the "
                "oracles are not detecting the fault\n");
    Failed = true;
  }
  return Failed ? 1 : 0;
}
