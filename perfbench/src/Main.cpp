//===- perfbench/src/Main.cpp - Benchmark entry point ---------------------===//
//
//   perfbench --workload pgo-interp|daemon-mix --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [--scratch DIR]
//
// Prints one line of run details (host, workload reason, sample spreads,
// broken guards), then the result line: every end-to-end metric with
// --trace 0, every per-layer metric with --trace 1.  Exits 1 when any
// output differs from its reference or any guard breaks, 2 on bad usage
// or a set-up failure (no result line then).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "codegen/NativeRunner.h"
#include "sim/Fuse.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <set>
#include <thread>

using namespace perfbench;

namespace {

struct WorkloadEntry {
  const char *Name;
  const char *Why;
  void (*Run)(const Options &, Tracer &, Report &);
};

const WorkloadEntry Workloads[] = {
    {"pgo-interp",
     "two-pass compile plus fused runs with the paper predictor: profiling "
     "and the fused engine do nearly all the work",
     runPgoInterp},
    {"daemon-mix",
     "broptd serving many short executes plus compiles and profile traffic: "
     "framing, admission and the artifact cache dominate",
     runDaemonMix},
};

[[noreturn]] void usage(const char *Message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--scratch DIR]\n",
               Message);
  std::exit(2);
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

std::string hostJson() {
#if defined(__clang__)
  const char *Compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char *Compiler = "gcc " __VERSION__;
#else
  const char *Compiler = "unknown";
#endif
  JsonObject Host;
  Host.num("nproc", std::thread::hardware_concurrency())
      .str("cpu", cpuModel())
      .str("compiler", Compiler)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("fused_dispatch",
           bropt::fusedDispatchIsThreaded() ? "computed-goto" : "switch")
      .str("native_host_cc",
           bropt::NativeRunner::shared().compilerCommand());
  return Host.text();
}

std::string metricsJson(const std::vector<MetricSpec> &Catalog,
                        const std::map<std::string, double> &Values) {
  JsonObject Metrics;
  for (const MetricSpec &M : Catalog) {
    auto It = Values.find(M.Name);
    JsonObject Entry;
    Entry.num("value", It == Values.end() ? 0.0 : It->second)
        .str("unit", M.Unit);
    Metrics.raw(M.Name, Entry.text());
  }
  return Metrics.text();
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int Index = 1; Index < Argc; ++Index) {
    std::string Arg = Argv[Index];
    if (Index + 1 >= Argc)
      usage(("missing value after " + Arg).c_str());
    std::string Value = Argv[++Index];
    char *End = nullptr;
    if (Arg == "--workload") {
      O.Workload = Value;
    } else if (Arg == "--seed") {
      O.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = *End == '\0' && !Value.empty();
    } else if (Arg == "--seconds") {
      O.Seconds = std::strtod(Value.c_str(), &End);
      HaveSeconds = *End == '\0' && O.Seconds > 0;
    } else if (Arg == "--trace") {
      HaveTrace = Value == "0" || Value == "1";
      O.Trace = Value == "1";
    } else if (Arg == "--trace-out") {
      O.TraceOut = Value;
    } else if (Arg == "--scratch") {
      O.ScratchDir = Value;
    } else {
      usage(("unknown option " + Arg).c_str());
    }
  }
  const WorkloadEntry *W = nullptr;
  for (const WorkloadEntry &Entry : Workloads)
    if (O.Workload == Entry.Name)
      W = &Entry;
  if (!W)
    usage("--workload expects pgo-interp or daemon-mix");
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--seed, --seconds and --trace are required");

  Tracer T(false);
  Report R;
  try {
    W->Run(O, T, R);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 2;
  }
  if (O.Trace && !O.TraceOut.empty() && !T.write(O.TraceOut))
    std::fprintf(stderr, "perfbench: cannot write %s\n", O.TraceOut.c_str());

  std::string Problems = "[";
  std::set<std::string> Seen;
  for (const std::string &P : R.Problems)
    if (Seen.insert(P).second && Seen.size() <= 20)
      Problems += (Seen.size() > 1 ? ", " : "") + jsonString(P);
  Problems += "]";
  JsonObject Run;
  Run.str("workload", W->Name)
      .str("why", W->Why)
      .num("seed", static_cast<double>(O.Seed))
      .num("seconds", O.Seconds)
      .num("trace", O.Trace)
      .raw("host", hostJson())
      .raw("details", R.Details.text())
      .num("problem_count", static_cast<double>(R.Problems.size()))
      .raw("problems", Problems);
  std::printf("%s\n", Run.text().c_str());

  JsonObject Result;
  Result.raw("correct", R.correct() ? "true" : "false")
      .num("attempted", static_cast<double>(R.Attempted))
      .num("failed", static_cast<double>(R.Failed))
      .raw("metrics", O.Trace ? metricsJson(perLayerMetrics(), R.PerLayer)
                              : metricsJson(endToEndMetrics(), R.EndToEnd));
  std::printf("%s\n", Result.text().c_str());
  std::fflush(stdout);
  for (const std::string &P : Seen)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", P.c_str());
  return R.correct() ? 0 : 1;
}
