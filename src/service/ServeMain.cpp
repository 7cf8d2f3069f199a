//===- service/ServeMain.cpp - Shared daemon entry point ------------------===//

#include "service/ServeMain.h"

#include "support/Strings.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

using namespace bropt;

namespace {

/// Written from the signal handler; everything else happens on the
/// watcher thread, where normal synchronization is allowed again.
volatile std::sig_atomic_t SignalSeen = 0;

void onSignal(int) {
  SignalSeen = 1;
}

void printStats(const ServiceStats &S) {
  std::fprintf(stderr,
               "broptd: %llu accepted, %llu completed, %llu rejected, "
               "%llu protocol errors, %llu dropped connections\n",
               static_cast<unsigned long long>(S.RequestsAccepted),
               static_cast<unsigned long long>(S.RequestsCompleted),
               static_cast<unsigned long long>(S.RequestsRejected),
               static_cast<unsigned long long>(S.ProtocolErrors),
               static_cast<unsigned long long>(S.DroppedConnections));
  std::fprintf(stderr,
               "broptd: cache %llu hits / %llu misses / %llu evictions; "
               "%llu warm starts, %llu learned exports\n",
               static_cast<unsigned long long>(S.CompileHits),
               static_cast<unsigned long long>(S.CompileMisses),
               static_cast<unsigned long long>(S.ArtifactEvictions),
               static_cast<unsigned long long>(S.WarmStarts),
               static_cast<unsigned long long>(S.LearnedExports));
  std::fprintf(stderr,
               "broptd: shards %llu merges (%llu conflicts), %llu "
               "aggregations, %llu records; %llu tier-2 cancellations\n",
               static_cast<unsigned long long>(S.ProfileMerges),
               static_cast<unsigned long long>(S.ProfileMergeConflicts),
               static_cast<unsigned long long>(S.ProfileAggregations),
               static_cast<unsigned long long>(S.ProfileRecords),
               static_cast<unsigned long long>(S.TierTwoCancellations));
}

} // namespace

const char *bropt::serveUsage() {
  return "  --socket PATH        Unix-domain socket to bind (required)\n"
         "  --threads N          worker threads (default: hardware)\n"
         "  --queue-high-water N backpressure threshold (default 256)\n"
         "  --shards N           profile store shards (default 16)\n"
         "  --cache-capacity N   artifact LRU capacity (default 64)\n"
         "  --drain-seconds S    graceful-shutdown budget (default 30)\n"
         "  --retry-after-ms N   rejection retry hint (default 50)\n"
         "  --hot-threshold N    adaptive tier-up threshold\n"
         "  --native-tier        let adaptive executes promote to tier 2\n"
         "  --native-threshold N tier-2 promotion threshold\n"
         "  --sample-interval N  adaptive sampling interval\n"
         "  --verbose            log lifecycle events to stderr\n";
}

bool bropt::parseServeArgs(int Argc, char **Argv, ServiceOptions &Options,
                           bool &Verbose, std::string *Error) {
  auto fail = [&](const std::string &Why) {
    if (Error)
      *Error = Why;
    return false;
  };
  for (int Index = 1; Index < Argc; ++Index) {
    std::string Arg = Argv[Index];
    auto nextValue = [&]() -> const char * {
      return Index + 1 < Argc ? Argv[++Index] : nullptr;
    };
    auto nextOrFail = [&](std::string &Out) {
      const char *Value = nextValue();
      if (Value)
        Out = Value;
      return Value != nullptr;
    };
    std::string Value;
    if (Arg == "--serve") {
      continue; // broptc's mode selector; inert here
    } else if (Arg == "--socket") {
      if (!nextOrFail(Options.SocketPath))
        return fail("missing value after --socket");
    } else if (Arg == "--threads") {
      if (!nextOrFail(Value))
        return fail("missing value after --threads");
      Options.Threads = static_cast<unsigned>(std::atoi(Value.c_str()));
    } else if (Arg == "--queue-high-water") {
      if (!nextOrFail(Value))
        return fail("missing value after --queue-high-water");
      Options.QueueHighWater =
          static_cast<size_t>(std::atoll(Value.c_str()));
    } else if (Arg == "--shards") {
      if (!nextOrFail(Value))
        return fail("missing value after --shards");
      Options.ProfileShardCount =
          static_cast<unsigned>(std::atoi(Value.c_str()));
    } else if (Arg == "--cache-capacity") {
      if (!nextOrFail(Value))
        return fail("missing value after --cache-capacity");
      Options.ArtifactCacheCapacity =
          static_cast<size_t>(std::atoll(Value.c_str()));
    } else if (Arg == "--drain-seconds") {
      if (!nextOrFail(Value))
        return fail("missing value after --drain-seconds");
      Options.DrainDeadlineSeconds = std::atof(Value.c_str());
    } else if (Arg == "--retry-after-ms") {
      if (!nextOrFail(Value))
        return fail("missing value after --retry-after-ms");
      Options.RetryAfterMillis =
          static_cast<uint32_t>(std::atoi(Value.c_str()));
    } else if (Arg == "--hot-threshold") {
      if (!nextOrFail(Value))
        return fail("missing value after --hot-threshold");
      Options.Runtime.HotThreshold =
          static_cast<uint64_t>(std::atoll(Value.c_str()));
    } else if (Arg == "--native-tier") {
      Options.Runtime.NativeTier = true;
    } else if (Arg == "--native-threshold") {
      if (!nextOrFail(Value))
        return fail("missing value after --native-threshold");
      Options.Runtime.NativeThreshold =
          static_cast<uint64_t>(std::atoll(Value.c_str()));
    } else if (Arg == "--sample-interval") {
      if (!nextOrFail(Value))
        return fail("missing value after --sample-interval");
      Options.Runtime.SampleInterval =
          static_cast<uint32_t>(std::atoi(Value.c_str()));
    } else if (Arg == "--verbose" || Arg == "-v") {
      Verbose = true;
    } else {
      return fail("unknown option " + Arg);
    }
  }
  if (Options.SocketPath.empty())
    return fail("--socket PATH is required");
  return true;
}

int bropt::runServeLoop(ServiceOptions Options, bool Verbose) {
  if (Verbose && !Options.Log)
    Options.Log = [](const std::string &Message) {
      std::fprintf(stderr, "%s\n", Message.c_str());
    };
  BroptService Service(std::move(Options));
  std::string Error;
  if (!Service.start(&Error)) {
    std::fprintf(stderr, "broptd: %s\n", Error.c_str());
    return 1;
  }

  SignalSeen = 0;
  struct sigaction SA {};
  SA.sa_handler = onSignal;
  sigemptyset(&SA.sa_mask);
  struct sigaction OldInt {}, OldTerm {};
  sigaction(SIGINT, &SA, &OldInt);
  sigaction(SIGTERM, &SA, &OldTerm);

  // The handler may only flip a flag; this thread translates it into a
  // stop request, where locks and condition variables are legal.
  std::atomic<bool> WatcherExit{false};
  std::thread Watcher([&] {
    while (!WatcherExit.load(std::memory_order_acquire)) {
      if (SignalSeen) {
        Service.requestStop();
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  Service.wait();
  bool Clean = Service.shutdown();
  WatcherExit.store(true, std::memory_order_release);
  if (Watcher.joinable())
    Watcher.join();
  sigaction(SIGINT, &OldInt, nullptr);
  sigaction(SIGTERM, &OldTerm, nullptr);

  if (Verbose)
    printStats(Service.stats());
  return Clean ? 0 : 1;
}
