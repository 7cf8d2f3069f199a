//===- tools/broptd-client.cpp - CLI client for broptd --------------------===//
//
// Drives a running broptd over its Unix-domain socket:
//
//   broptd-client --socket PATH compile FILE.mc [--train FILE]... [opts]
//   broptd-client --socket PATH run FILE.mc [--input FILE] [--mode NAME]
//   broptd-client --socket PATH evaluate WORKLOAD
//   broptd-client --socket PATH profile-export KEY [--out FILE]
//   broptd-client --socket PATH profile-merge KEY FILE
//   broptd-client --socket PATH stats
//   broptd-client --socket PATH shutdown
//
// Shared compile options: --train FILE (repeatable), --profile-in FILE,
// --set I..IV, --common-successor, --method-selection, --warm-start.
// `run` adds --input FILE and --mode tree|fused|adaptive|native (whether
// adaptive runs may promote to tier 2 is the daemon's `--native-tier`).
// Rejected requests (backpressure) are retried after the server's hint.
//
//===----------------------------------------------------------------------===//

#include "exec/ExecBackend.h"
#include "service/Client.h"
#include "sim/Interpreter.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace bropt;

namespace {

[[noreturn]] void usageError(const char *Message) {
  std::fprintf(
      stderr,
      "broptd-client: %s\n"
      "usage: broptd-client --socket PATH COMMAND [options]\n"
      "commands: compile FILE.mc | run FILE.mc | evaluate WORKLOAD |\n"
      "          profile-export KEY | profile-merge KEY FILE |\n"
      "          stats | shutdown\n"
      "compile/run options: --train FILE, --profile-in FILE, --set I..IV,\n"
      "          --common-successor, --method-selection, --warm-start\n"
      "run options: --input FILE, --mode NAME\n",
      Message);
  std::exit(2);
}

std::string readFileOrDie(const std::string &Path) {
  std::ifstream Stream(Path, std::ios::binary);
  if (!Stream) {
    std::fprintf(stderr, "broptd-client: cannot read '%s'\n", Path.c_str());
    std::exit(1);
  }
  std::ostringstream Buffer;
  Buffer << Stream.rdbuf();
  return Buffer.str();
}

void printStats(const ServiceStats &S) {
  auto row = [](const char *Name, uint64_t Value) {
    std::printf("%-24s %llu\n", Name, static_cast<unsigned long long>(Value));
  };
  row("requests_accepted", S.RequestsAccepted);
  row("requests_completed", S.RequestsCompleted);
  row("requests_rejected", S.RequestsRejected);
  row("protocol_errors", S.ProtocolErrors);
  row("dropped_connections", S.DroppedConnections);
  row("queue_depth", S.QueueDepth);
  row("queue_high_water_seen", S.QueueHighWaterSeen);
  row("queue_wait_micros_total", S.QueueWaitMicrosTotal);
  row("queue_wait_micros_max", S.QueueWaitMicrosMax);
  row("compile_hits", S.CompileHits);
  row("compile_misses", S.CompileMisses);
  row("artifact_evictions", S.ArtifactEvictions);
  row("profile_merges", S.ProfileMerges);
  row("profile_merge_conflicts", S.ProfileMergeConflicts);
  row("profile_aggregations", S.ProfileAggregations);
  row("profile_records", S.ProfileRecords);
  row("warm_starts", S.WarmStarts);
  row("learned_exports", S.LearnedExports);
  row("active_connections", S.ActiveConnections);
  row("tier_two_cancellations", S.TierTwoCancellations);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string SocketPath, Command;
  std::vector<std::string> Positional;
  ServiceRequest Request;
  std::string InputPath, OutPath;

  for (int Index = 1; Index < Argc; ++Index) {
    std::string Arg = Argv[Index];
    auto nextValue = [&]() -> std::string {
      if (Index + 1 >= Argc)
        usageError(("missing value after " + Arg).c_str());
      return Argv[++Index];
    };
    if (Arg == "--socket") {
      SocketPath = nextValue();
    } else if (Arg == "--train") {
      Request.Spec.TrainingInputs.push_back(readFileOrDie(nextValue()));
    } else if (Arg == "--profile-in") {
      Request.Spec.ProfileData = readFileOrDie(nextValue());
    } else if (Arg == "--set") {
      std::string Set = nextValue();
      if (Set == "I")
        Request.Spec.HeuristicSet = 0;
      else if (Set == "II")
        Request.Spec.HeuristicSet = 1;
      else if (Set == "III")
        Request.Spec.HeuristicSet = 2;
      else if (Set == "IV")
        Request.Spec.HeuristicSet = 3;
      else
        usageError("--set expects I, II, III, or IV");
    } else if (Arg == "--common-successor") {
      Request.Spec.CommonSuccessor = true;
    } else if (Arg == "--method-selection") {
      Request.Spec.MethodSelection = true;
    } else if (Arg == "--warm-start") {
      Request.Spec.WarmStart = true;
    } else if (Arg == "--input") {
      InputPath = nextValue();
    } else if (Arg == "--mode") {
      std::string Mode = nextValue();
      if (std::optional<Interpreter::Mode> Parsed = parseExecMode(Mode))
        Request.Mode = static_cast<uint8_t>(*Parsed);
      else
        usageError("--mode expects tree|fused|adaptive|native");
    } else if (Arg == "--out") {
      OutPath = nextValue();
    } else if (!Arg.empty() && Arg[0] == '-') {
      usageError(("unknown option " + Arg).c_str());
    } else if (Command.empty()) {
      Command = Arg;
    } else {
      Positional.push_back(Arg);
    }
  }
  if (SocketPath.empty())
    usageError("--socket PATH is required");
  if (Command.empty())
    usageError("no command given");

  if (Command == "compile" || Command == "run") {
    if (Positional.size() != 1)
      usageError("expected exactly one source file");
    Request.Kind = Command == "run" ? RequestKind::Execute
                                    : RequestKind::Compile;
    Request.Spec.Source = readFileOrDie(Positional[0]);
    if (!InputPath.empty())
      Request.Input = readFileOrDie(InputPath);
  } else if (Command == "evaluate") {
    if (Positional.size() != 1)
      usageError("expected exactly one workload name");
    Request.Kind = RequestKind::Evaluate;
    Request.WorkloadName = Positional[0];
  } else if (Command == "profile-export") {
    if (Positional.size() != 1)
      usageError("expected exactly one program key");
    Request.Kind = RequestKind::ProfileExport;
    Request.ProgramKey = Positional[0];
  } else if (Command == "profile-merge") {
    if (Positional.size() != 2)
      usageError("expected a program key and a profile file");
    Request.Kind = RequestKind::ProfileMerge;
    Request.ProgramKey = Positional[0];
    Request.ProfileData = readFileOrDie(Positional[1]);
  } else if (Command == "stats") {
    Request.Kind = RequestKind::Stats;
  } else if (Command == "shutdown") {
    Request.Kind = RequestKind::Shutdown;
  } else {
    usageError(("unknown command " + Command).c_str());
  }

  ServiceClient Client;
  std::string Error;
  // Retry briefly: covers the race with a daemon still binding its
  // socket (scripts routinely start broptd & then call the client).
  if (!Client.connectWithRetry(SocketPath, 5.0, &Error)) {
    std::fprintf(stderr, "broptd-client: %s\n", Error.c_str());
    return 1;
  }
  ServiceResponse Response;
  if (!Client.roundTripRetrying(Request, Response, &Error)) {
    std::fprintf(stderr, "broptd-client: %s\n", Error.c_str());
    return 1;
  }
  if (Response.Status == ResponseStatus::ShuttingDown) {
    std::fprintf(stderr, "broptd-client: daemon is shutting down\n");
    return 1;
  }
  if (Response.Status == ResponseStatus::Error) {
    std::fprintf(stderr, "broptd-client: %s\n", Response.Error.c_str());
    return 1;
  }

  switch (Request.Kind) {
  case RequestKind::Compile:
    std::printf("program %s: %u sequences reordered, %llu instructions%s%s\n",
                Response.ProgramKey.c_str(), Response.SequencesReordered,
                static_cast<unsigned long long>(Response.CodeSize),
                Response.CompileCacheHit ? " (cache hit)" : "",
                Response.WarmStarted ? " (warm start)" : "");
    break;
  case RequestKind::Execute:
    fwrite(Response.Output.data(), 1, Response.Output.size(), stdout);
    if (Response.Trapped) {
      std::fprintf(stderr, "broptd-client: trap: %s\n",
                   Response.TrapReason.c_str());
      return 1;
    }
    return static_cast<int>(Response.ExitValue & 0xff);
  case RequestKind::Evaluate:
    std::printf("%s: branch delta %+.2f%%, outputs %s, %u reordered\n",
                Request.WorkloadName.c_str(), Response.BranchDeltaPercent,
                Response.OutputsMatch ? "match" : "MISMATCH",
                Response.SequencesReordered);
    return Response.OutputsMatch ? 0 : 1;
  case RequestKind::ProfileExport:
    if (OutPath.empty()) {
      fwrite(Response.ProfileData.data(), 1, Response.ProfileData.size(),
             stdout);
    } else {
      std::ofstream Out(OutPath, std::ios::binary);
      Out.write(Response.ProfileData.data(),
                static_cast<std::streamsize>(Response.ProfileData.size()));
      if (!Out) {
        std::fprintf(stderr, "broptd-client: cannot write '%s'\n",
                     OutPath.c_str());
        return 1;
      }
    }
    break;
  case RequestKind::ProfileMerge:
    std::printf("merged: %llu added, %llu merged, %llu skipped\n",
                static_cast<unsigned long long>(Response.MergeAdded),
                static_cast<unsigned long long>(Response.MergeMerged),
                static_cast<unsigned long long>(Response.MergeSkipped));
    break;
  case RequestKind::Stats:
    printStats(Response.Stats);
    break;
  case RequestKind::Shutdown:
    std::printf("shutdown requested\n");
    break;
  }
  return 0;
}
