//===- bench/bench_service.cpp - broptd closed-loop service bench ---------===//
//
// The service smoke bench (docs/SERVICE.md): stands up a real broptd on a
// private socket (InProcessService — traffic crosses the socket, not a
// shortcut) and drives it closed-loop from >= 64 concurrent clients with
// thousands of mixed compile / execute / profile-merge / profile-export /
// stats requests.  Four phases:
//
//  1. cold compiles — every client compiles a source the daemon has never
//     seen, concurrently, giving the cold compile-latency distribution;
//  2. warm compiles — the same specs again, from *different* clients, so
//     every request must be served from the shared artifact cache
//     (CompileCacheHit is asserted); the headline cache win is
//     warm p50 measurably below cold p50;
//  3. the mixed closed loop — every Execute response is checked
//     bit-for-bit (output, exit value, trap state, dynamic counts)
//     against a direct tree-walker run of the same program, so the
//     throughput number is also a zero-mismatch proof;
//  4. backpressure — a deliberately tiny daemon (one worker, queue
//     high-water 2) is flooded until it rejects, proving overload sheds
//     load instead of queueing without bound.
//
// Results merge into BENCH_engine.json as a top-level "service" section
// (the rest of the file — bench_json's output — is preserved verbatim).
// Hard gates, always on: zero execute mismatches, warm p50 < cold p50,
// >= 1 backpressure rejection.  --fail-if-slower additionally gates
// throughput against the "service" section already committed in the
// baseline file (default: the --engine-out file itself, read before the
// merge).
//
// Usage: bench_service [--engine-out FILE] [--baseline FILE]
//                      [--clients N] [--per-client N] [--threads N]
//                      [--smoke] [--fail-if-slower]
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "exec/ExecBackend.h"
#include "service/Client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace bropt;

namespace {

//===----------------------------------------------------------------------===//
// Program corpus
//===----------------------------------------------------------------------===//

/// A branchy classifier parameterized by \p Seed: the thresholds and the
/// arithmetic differ per seed, so every seed is a distinct module hash —
/// a distinct artifact-cache entry and profile shard key on the daemon.
std::string corpusSource(unsigned Seed) {
  std::ostringstream Out;
  const unsigned A = 48 + Seed % 30, B = 91 + Seed % 20, C = 3 + Seed % 5;
  // The seed itself is baked into the module (and the output), so every
  // seed is a distinct program even where the thresholds cycle.
  Out << "int tag = " << Seed << ";\n"
      << "int low = 0; int mid = 0; int high = 0; int other = 0;\n"
      << "int main() {\n"
      << "  int c;\n"
      << "  while ((c = getchar()) != -1) {\n"
      << "    if (c < " << A << ") { low = low + " << (1 + Seed % 3)
      << "; }\n"
      << "    else if (c < " << B << ") { mid = mid + 1; }\n"
      << "    else if (c - c / " << C << " * " << C
      << " == 0) { high = high + 2; }\n"
      << "    else { other = other + 1; }\n"
      << "  }\n"
      << "  printint(low); printint(mid); printint(high);\n"
      << "  printint(other); printint(tag);\n"
      << "  return low + mid * 2 + high * 3 + other;\n"
      << "}\n";
  return Out.str();
}

/// Deterministic pseudo-random input bytes (printable mix) so every run
/// of the bench replays identical logical work.
std::string corpusInput(unsigned Seed, size_t Bytes) {
  std::string Input;
  Input.reserve(Bytes);
  uint64_t State = 0x9e3779b97f4a7c15ULL ^ (Seed * 0x2545f4914f6cdd1dULL);
  for (size_t Index = 0; Index < Bytes; ++Index) {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    Input += static_cast<char>(' ' + (State >> 33) % 95);
  }
  return Input;
}

/// Everything the clients need to issue — and verify — requests against
/// one corpus program, precomputed before the clock starts.
struct CorpusProgram {
  std::string Source;
  std::string Input;
  RunResult Reference;      ///< direct tree-walker run
  std::string ProgramKey;   ///< daemon's stable artifact identity
  std::string ProfileBlob;  ///< binary pass-1 profile for merges
};

/// One measured request: what it was and how long the round trip took.
struct Sample {
  double Seconds;
};

double percentile(std::vector<double> &Sorted, double Fraction) {
  if (Sorted.empty())
    return 0.0;
  size_t Index = static_cast<size_t>(Fraction *
                                     static_cast<double>(Sorted.size()));
  return Sorted[std::min(Index, Sorted.size() - 1)];
}

double timedRoundTrip(ServiceClient &Client, const ServiceRequest &Request,
                      ServiceResponse &Response, bool &Ok) {
  auto Start = std::chrono::steady_clock::now();
  std::string Error;
  Ok = Client.roundTripRetrying(Request, Response, &Error);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

//===----------------------------------------------------------------------===//
// JSON plumbing
//===----------------------------------------------------------------------===//

std::string readFileIfAny(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return {};
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Pulls throughput_rps out of a previously committed "service" section;
/// 0.0 when the file has none yet (first run passes the gate trivially).
double baselineThroughput(const std::string &Json) {
  size_t Section = Json.find("\"service\": {");
  if (Section == std::string::npos)
    return 0.0;
  size_t Key = Json.find("\"throughput_rps\": ", Section);
  if (Key == std::string::npos)
    return 0.0;
  return std::atof(Json.c_str() + Key + std::strlen("\"throughput_rps\": "));
}

/// Splices \p Section in as the last top-level key of \p Json (dropping
/// any "service" section a previous run appended), preserving the rest
/// of BENCH_engine.json byte for byte.  bench_service always appends the
/// section last, so the removal marker is stable.
std::string mergeServiceSection(std::string Json,
                                const std::string &Section) {
  const std::string Marker = ",\n  \"service\": {";
  size_t Existing = Json.rfind(Marker);
  if (Existing != std::string::npos)
    Json = Json.substr(0, Existing) + "\n}\n";
  size_t Close = Json.rfind('}');
  if (Close == std::string::npos)
    return "{\n" + Section + "\n}\n"; // empty or not JSON: start fresh
  std::string Prefix = Json.substr(0, Close);
  while (!Prefix.empty() &&
         (Prefix.back() == '\n' || Prefix.back() == ' '))
    Prefix.pop_back();
  return Prefix + ",\n" + Section + "\n}\n";
}

void writeLatency(std::ostream &Out, std::vector<double> Sorted) {
  std::sort(Sorted.begin(), Sorted.end());
  Out << "{\"p50\": " << percentile(Sorted, 0.50)
      << ", \"p90\": " << percentile(Sorted, 0.90)
      << ", \"p99\": " << percentile(Sorted, 0.99)
      << ", \"max\": " << (Sorted.empty() ? 0.0 : Sorted.back())
      << ", \"samples\": " << Sorted.size() << "}";
}

} // namespace

int main(int Argc, char **Argv) {
  std::string EngineOutPath = "BENCH_engine.json";
  std::string BaselinePath;
  unsigned Clients = 64;
  unsigned PerClient = 64;
  unsigned Threads = 0;
  bool FailIfSlower = false;
  for (int Index = 1; Index < Argc; ++Index) {
    if (!std::strcmp(Argv[Index], "--engine-out") && Index + 1 < Argc) {
      EngineOutPath = Argv[++Index];
    } else if (!std::strcmp(Argv[Index], "--baseline") && Index + 1 < Argc) {
      BaselinePath = Argv[++Index];
    } else if (!std::strcmp(Argv[Index], "--clients") && Index + 1 < Argc) {
      Clients = std::max(1, std::atoi(Argv[++Index]));
    } else if (!std::strcmp(Argv[Index], "--per-client") &&
               Index + 1 < Argc) {
      PerClient = std::max(1, std::atoi(Argv[++Index]));
    } else if (!std::strcmp(Argv[Index], "--threads") && Index + 1 < Argc) {
      Threads = static_cast<unsigned>(std::atoi(Argv[++Index]));
    } else if (!std::strcmp(Argv[Index], "--smoke")) {
      PerClient = 32; // still 64 clients, ~2k requests: the CI setting
    } else if (!std::strcmp(Argv[Index], "--fail-if-slower")) {
      FailIfSlower = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_service [--engine-out FILE] "
                   "[--baseline FILE] [--clients N] [--per-client N] "
                   "[--threads N] [--smoke] [--fail-if-slower]\n");
      return 2;
    }
  }

  //===--------------------------------------------------------------------===//
  // Corpus + references (before the clock starts)
  //===--------------------------------------------------------------------===//

  constexpr unsigned NumPrograms = 8;
  std::vector<CorpusProgram> Corpus(NumPrograms);
  for (unsigned Index = 0; Index < NumPrograms; ++Index) {
    CorpusProgram &P = Corpus[Index];
    P.Source = corpusSource(Index);
    P.Input = corpusInput(Index, 2048);
    CompileResult Compiled = compileBaseline(P.Source, CompileOptions());
    if (!Compiled.ok()) {
      std::fprintf(stderr, "bench error: corpus compile failed: %s\n",
                   Compiled.Error.c_str());
      return 1;
    }
    ExecRequest Req;
    Req.Input = P.Input;
    P.Reference = executeModule(*Compiled.M, Interpreter::Mode::Tree, Req);
    Pass1Result P1 = runPass1(P.Source, P.Input, CompileOptions());
    if (!P1.ok()) {
      std::fprintf(stderr, "bench error: corpus pass 1 failed: %s\n",
                   P1.Error.c_str());
      return 1;
    }
    P.ProfileBlob = P1.Profile.serializeBinary();
  }

  ServiceOptions Options;
  Options.Threads = Threads;
  InProcessService Daemon(Options);
  if (!Daemon.ok()) {
    std::fprintf(stderr, "bench error: daemon failed to start: %s\n",
                 Daemon.error().c_str());
    return 1;
  }

  // Learn the daemon's program keys (and warm nothing else: these specs
  // reappear only as the k%8==5 compile slice of the mixed loop).
  {
    std::unique_ptr<ServiceClient> Client = Daemon.connect();
    for (CorpusProgram &P : Corpus) {
      ServiceRequest Request;
      Request.Kind = RequestKind::Compile;
      Request.Spec.Source = P.Source;
      ServiceResponse Response;
      std::string Error;
      if (!Client->roundTripRetrying(Request, Response, &Error) ||
          !Response.ok()) {
        std::fprintf(stderr, "bench error: corpus compile request: %s\n",
                     Response.ok() ? Error.c_str()
                                   : Response.Error.c_str());
        return 1;
      }
      P.ProgramKey = Response.ProgramKey;
    }
  }

  std::printf("bench_service: %u clients x %u requests, daemon threads %s\n",
              Clients, PerClient,
              Threads ? std::to_string(Threads).c_str() : "hw");

  //===--------------------------------------------------------------------===//
  // Phase 1+2: cold vs warm compile latency
  //===--------------------------------------------------------------------===//

  // One never-seen source per client; both rounds run at identical
  // concurrency, so the only difference between the distributions is the
  // artifact cache.  Round 2 rotates sources across clients: the warm
  // hit each client measures was compiled by a *different* client.
  std::vector<std::string> FreshSources(Clients);
  for (unsigned Index = 0; Index < Clients; ++Index)
    FreshSources[Index] = corpusSource(1000 + Index);

  std::vector<double> ColdLatencies(Clients), WarmLatencies(Clients);
  std::atomic<unsigned> CompileErrors{0}, ColdCacheHits{0},
      WarmCacheMisses{0};
  auto CompileRound = [&](bool Warm) {
    std::vector<std::thread> Pool;
    for (unsigned Index = 0; Index < Clients; ++Index)
      Pool.emplace_back([&, Index] {
        std::unique_ptr<ServiceClient> Client = Daemon.connect();
        if (!Client) {
          ++CompileErrors;
          return;
        }
        ServiceRequest Request;
        Request.Kind = RequestKind::Compile;
        Request.Spec.Source =
            FreshSources[Warm ? (Index + 1) % Clients : Index];
        ServiceResponse Response;
        bool Ok = false;
        double Seconds = timedRoundTrip(*Client, Request, Response, Ok);
        if (!Ok || !Response.ok()) {
          ++CompileErrors;
          return;
        }
        if (Warm) {
          WarmLatencies[Index] = Seconds;
          if (!Response.CompileCacheHit)
            ++WarmCacheMisses;
        } else {
          ColdLatencies[Index] = Seconds;
          if (Response.CompileCacheHit)
            ++ColdCacheHits;
        }
      });
    for (std::thread &T : Pool)
      T.join();
  };
  CompileRound(/*Warm=*/false);
  CompileRound(/*Warm=*/true);
  if (CompileErrors || ColdCacheHits || WarmCacheMisses) {
    std::fprintf(stderr,
                 "bench error: compile rounds saw %u errors, %u unexpected "
                 "cold hits, %u warm misses\n",
                 CompileErrors.load(), ColdCacheHits.load(),
                 WarmCacheMisses.load());
    return 1;
  }
  std::vector<double> ColdSorted = ColdLatencies, WarmSorted = WarmLatencies;
  std::sort(ColdSorted.begin(), ColdSorted.end());
  std::sort(WarmSorted.begin(), WarmSorted.end());
  const double ColdP50 = percentile(ColdSorted, 0.50);
  const double WarmP50 = percentile(WarmSorted, 0.50);
  std::printf("  compile p50: cold %.2fms, warm %.2fms (%.1fx)\n",
              ColdP50 * 1e3, WarmP50 * 1e3,
              WarmP50 > 0.0 ? ColdP50 / WarmP50 : 0.0);

  //===--------------------------------------------------------------------===//
  // Phase 3: the mixed closed loop
  //===--------------------------------------------------------------------===//

  std::atomic<uint64_t> Mismatches{0}, TransportErrors{0}, RequestErrors{0};
  std::atomic<uint64_t> Executes{0}, Compiles{0}, Merges{0}, Exports{0},
      StatsReqs{0};
  std::mutex LatencyMutex;
  std::vector<double> Latencies;
  Latencies.reserve(static_cast<size_t>(Clients) * PerClient);

  auto MixedStart = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> Pool;
    for (unsigned ClientIdx = 0; ClientIdx < Clients; ++ClientIdx)
      Pool.emplace_back([&, ClientIdx] {
        std::unique_ptr<ServiceClient> Client = Daemon.connect();
        if (!Client) {
          ++TransportErrors;
          return;
        }
        std::vector<double> Local;
        Local.reserve(PerClient);
        for (unsigned Iter = 0; Iter < PerClient; ++Iter) {
          const CorpusProgram &P = Corpus[(ClientIdx + Iter) % NumPrograms];
          ServiceRequest Request;
          const unsigned Slot = Iter % 8;
          if (Slot < 5) {
            Request.Kind = RequestKind::Execute;
            Request.Spec.Source = P.Source;
            Request.Input = P.Input;
            Request.Mode = static_cast<uint8_t>(Interpreter::Mode::Fused);
          } else if (Slot == 5) {
            Request.Kind = RequestKind::Compile;
            Request.Spec.Source = P.Source;
          } else if (Slot == 6) {
            if ((ClientIdx + Iter) % 2) {
              Request.Kind = RequestKind::ProfileMerge;
              Request.ProgramKey = P.ProgramKey;
              Request.ProfileData = P.ProfileBlob;
            } else {
              Request.Kind = RequestKind::ProfileExport;
              Request.ProgramKey = P.ProgramKey;
            }
          } else {
            Request.Kind = RequestKind::Stats;
          }
          ServiceResponse Response;
          bool Ok = false;
          Local.push_back(timedRoundTrip(*Client, Request, Response, Ok));
          if (!Ok) {
            ++TransportErrors;
            continue;
          }
          if (!Response.ok()) {
            ++RequestErrors;
            continue;
          }
          switch (Request.Kind) {
          case RequestKind::Execute:
            ++Executes;
            if (Response.Output != P.Reference.Output ||
                Response.ExitValue != P.Reference.ExitValue ||
                Response.Trapped != P.Reference.Trapped ||
                Response.TotalInsts != P.Reference.Counts.TotalInsts ||
                Response.CondBranches != P.Reference.Counts.CondBranches)
              ++Mismatches;
            break;
          case RequestKind::Compile:
            ++Compiles;
            break;
          case RequestKind::ProfileMerge:
            ++Merges;
            break;
          case RequestKind::ProfileExport:
            ++Exports;
            break;
          default:
            ++StatsReqs;
            break;
          }
        }
        std::lock_guard<std::mutex> Lock(LatencyMutex);
        Latencies.insert(Latencies.end(), Local.begin(), Local.end());
      });
    for (std::thread &T : Pool)
      T.join();
  }
  const double MixedSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    MixedStart)
          .count();
  const uint64_t TotalRequests =
      static_cast<uint64_t>(Clients) * PerClient + 2 * Clients;
  const double Throughput =
      MixedSeconds > 0.0
          ? static_cast<double>(Latencies.size()) / MixedSeconds
          : 0.0;
  std::sort(Latencies.begin(), Latencies.end());
  std::printf("  mixed loop: %zu requests in %.2fs (%.0f req/s), "
              "p50 %.2fms, p99 %.2fms, %llu mismatches\n",
              Latencies.size(), MixedSeconds, Throughput,
              percentile(Latencies, 0.50) * 1e3,
              percentile(Latencies, 0.99) * 1e3,
              (unsigned long long)Mismatches.load());

  const ServiceStats DaemonStats = Daemon.service().stats();

  //===--------------------------------------------------------------------===//
  // Phase 4: backpressure on a deliberately tiny daemon
  //===--------------------------------------------------------------------===//

  const char *SlowSource = R"(
int main() {
  int i = 0;
  int s = 0;
  while (i < 400000) {
    i = i + 1;
    if (i - i / 3 * 3 == 0) { s = s + 2; } else { s = s + 1; }
  }
  printint(s);
  return 0;
}
)";
  ServiceOptions TinyOptions;
  TinyOptions.Threads = 1;
  TinyOptions.QueueHighWater = 2;
  TinyOptions.RetryAfterMillis = 5;
  InProcessService Tiny(TinyOptions);
  if (!Tiny.ok()) {
    std::fprintf(stderr, "bench error: tiny daemon failed to start: %s\n",
                 Tiny.error().c_str());
    return 1;
  }
  {
    // Pre-compile so the flood below queues executions, not one compile.
    std::unique_ptr<ServiceClient> Client = Tiny.connect();
    ServiceRequest Request;
    Request.Kind = RequestKind::Compile;
    Request.Spec.Source = SlowSource;
    ServiceResponse Response;
    std::string Error;
    if (!Client->roundTripRetrying(Request, Response, &Error) ||
        !Response.ok()) {
      std::fprintf(stderr, "bench error: tiny daemon compile failed\n");
      return 1;
    }
  }
  std::atomic<uint64_t> FloodOk{0}, FloodRejected{0}, FloodErrors{0};
  {
    std::vector<std::thread> Pool;
    for (unsigned Index = 0; Index < 16; ++Index)
      Pool.emplace_back([&] {
        std::unique_ptr<ServiceClient> Client = Tiny.connect();
        if (!Client) {
          ++FloodErrors;
          return;
        }
        for (unsigned Iter = 0; Iter < 4; ++Iter) {
          ServiceRequest Request;
          Request.Kind = RequestKind::Execute;
          Request.Spec.Source = SlowSource;
          Request.Mode = static_cast<uint8_t>(Interpreter::Mode::Tree);
          ServiceResponse Response;
          // Plain roundTrip: rejections must be observed, not retried
          // away.
          if (!Client->roundTrip(Request, Response)) {
            ++FloodErrors;
            return;
          }
          if (Response.Status == ResponseStatus::Rejected)
            ++FloodRejected;
          else if (Response.ok())
            ++FloodOk;
          else
            ++FloodErrors;
        }
      });
    for (std::thread &T : Pool)
      T.join();
  }
  const ServiceStats TinyStats = Tiny.service().stats();
  std::printf("  backpressure: %llu ok, %llu rejected, high water %llu\n",
              (unsigned long long)FloodOk.load(),
              (unsigned long long)FloodRejected.load(),
              (unsigned long long)TinyStats.QueueHighWaterSeen);

  //===--------------------------------------------------------------------===//
  // JSON section + gates
  //===--------------------------------------------------------------------===//

  const std::string ExistingJson = readFileIfAny(EngineOutPath);
  const double Baseline = baselineThroughput(
      BaselinePath.empty() ? ExistingJson : readFileIfAny(BaselinePath));

  std::ostringstream Section;
  Section << "  \"service\": {\n";
  Section << "    \"clients\": " << Clients << ",\n";
  Section << "    \"daemon_threads\": "
          << (Threads ? Threads : std::thread::hardware_concurrency())
          << ",\n";
  Section << "    \"requests_total\": " << TotalRequests << ",\n";
  Section << "    \"mix\": {\"execute\": " << Executes
          << ", \"compile\": " << Compiles << ", \"profile_merge\": "
          << Merges << ", \"profile_export\": " << Exports
          << ", \"stats\": " << StatsReqs << "},\n";
  Section << "    \"mismatches\": " << Mismatches << ",\n";
  Section << "    \"transport_errors\": " << TransportErrors << ",\n";
  Section << "    \"request_errors\": " << RequestErrors << ",\n";
  Section << "    \"latency_seconds\": ";
  writeLatency(Section, Latencies);
  Section << ",\n";
  Section << "    \"throughput_rps\": " << Throughput << ",\n";
  Section << "    \"compile_latency_seconds\": {\"cold_p50\": " << ColdP50
          << ", \"warm_p50\": " << WarmP50
          << ", \"cold_over_warm\": "
          << (WarmP50 > 0.0 ? ColdP50 / WarmP50 : 0.0) << "},\n";
  Section << "    \"daemon\": {\"requests_completed\": "
          << DaemonStats.RequestsCompleted
          << ", \"compile_hits\": " << DaemonStats.CompileHits
          << ", \"compile_misses\": " << DaemonStats.CompileMisses
          << ", \"profile_merges\": " << DaemonStats.ProfileMerges
          << ", \"profile_merge_conflicts\": "
          << DaemonStats.ProfileMergeConflicts
          << ", \"queue_high_water_seen\": "
          << DaemonStats.QueueHighWaterSeen
          << ", \"queue_wait_micros_max\": "
          << DaemonStats.QueueWaitMicrosMax
          << ", \"dropped_connections\": "
          << DaemonStats.DroppedConnections << "},\n";
  Section << "    \"backpressure\": {\"queue_high_water\": "
          << TinyOptions.QueueHighWater
          << ", \"rejected\": " << FloodRejected
          << ", \"completed\": " << FloodOk
          << ", \"daemon_rejections\": " << TinyStats.RequestsRejected
          << "}\n";
  Section << "  }";

  std::ofstream Out(EngineOutPath, std::ios::binary);
  if (!Out) {
    std::fprintf(stderr, "bench error: cannot write '%s'\n",
                 EngineOutPath.c_str());
    return 1;
  }
  Out << mergeServiceSection(ExistingJson, Section.str());
  Out.close();
  std::printf("merged service section into %s\n", EngineOutPath.c_str());

  // Hard gates — the ISSUE's acceptance bars, enforced on every run.
  bool Failed = false;
  if (Mismatches || TransportErrors || RequestErrors || FloodErrors) {
    std::fprintf(stderr,
                 "bench error: %llu mismatches, %llu transport errors, "
                 "%llu request errors, %llu flood errors\n",
                 (unsigned long long)Mismatches.load(),
                 (unsigned long long)TransportErrors.load(),
                 (unsigned long long)RequestErrors.load(),
                 (unsigned long long)FloodErrors.load());
    Failed = true;
  }
  if (!FloodRejected) {
    std::fprintf(stderr, "bench error: backpressure never engaged\n");
    Failed = true;
  }
  if (WarmP50 >= ColdP50) {
    std::fprintf(stderr,
                 "bench error: warm compile p50 (%.3fms) not below cold "
                 "(%.3fms)\n",
                 WarmP50 * 1e3, ColdP50 * 1e3);
    Failed = true;
  }
  // Throughput vs the committed baseline.  Generous tolerance: CI
  // machines differ wildly; the gate exists to catch the service
  // collapsing (serialization, lost concurrency), not 10% noise.
  if (FailIfSlower && Baseline > 0.0 && Throughput < 0.5 * Baseline) {
    std::fprintf(stderr,
                 "bench error: throughput %.0f req/s below half the "
                 "baseline %.0f req/s\n",
                 Throughput, Baseline);
    Failed = true;
  }
  return Failed ? 1 : 0;
}
