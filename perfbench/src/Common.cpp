//===- perfbench/src/Common.cpp - Shared benchmark plumbing ---------------===//

#include "Common.h"

#include "exec/ExecBackend.h"
#include "workloads/Inputs.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <sys/resource.h>

using namespace bropt;

namespace perfbench {

namespace {

/// The generator each program's inputs come from in workloads/Workloads.cpp,
/// with its stock size.
enum class Gen { Prose, CSource, Roff, Tabular4, Tabular3, Words5k, Words6k };

struct Shape {
  const char *Name;
  Gen Train;
  Gen Test;
};

const Shape Shapes[] = {
    {"awk", Gen::Tabular4, Gen::Tabular4}, {"cb", Gen::CSource, Gen::CSource},
    {"cpp", Gen::CSource, Gen::CSource},   {"ctags", Gen::CSource, Gen::CSource},
    {"deroff", Gen::Roff, Gen::Roff},      {"grep", Gen::Prose, Gen::Prose},
    {"hyphen", Gen::Prose, Gen::Words5k},  {"join", Gen::Tabular3, Gen::Tabular3},
    {"lex", Gen::CSource, Gen::CSource},   {"nroff", Gen::Roff, Gen::Roff},
    {"pr", Gen::Prose, Gen::Prose},        {"ptx", Gen::Prose, Gen::Prose},
    {"sdiff", Gen::Prose, Gen::Prose},     {"sed", Gen::Prose, Gen::Prose},
    {"sort", Gen::Words6k, Gen::Words6k},  {"wc", Gen::Prose, Gen::Prose},
    {"yacc", Gen::CSource, Gen::CSource},
};
constexpr size_t NumShapes = sizeof(Shapes) / sizeof(Shapes[0]);

std::string generate(Gen G, unsigned Seed, double Scale) {
  auto Sized = [Scale](double Stock) {
    return static_cast<size_t>(std::max(1.0, std::round(Stock * Scale)));
  };
  switch (G) {
  case Gen::Prose:
    return proseText(Seed, Sized(40000));
  case Gen::CSource:
    return cSourceText(Seed, Sized(40000));
  case Gen::Roff:
    return roffText(Seed, Sized(40000));
  case Gen::Tabular4:
    return tabularText(Seed, Sized(2500), 4);
  case Gen::Tabular3:
    return tabularText(Seed, Sized(3000), 3);
  case Gen::Words5k:
    return wordList(Seed, Sized(5000));
  case Gen::Words6k:
    return wordList(Seed, Sized(6000));
  }
  return {};
}

} // namespace

uint64_t SeedStream::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

std::vector<Program> makePrograms(uint64_t Seed, double TrainScale,
                                  double TestScale) {
  const std::vector<Workload> &Stock = standardWorkloads();
  if (Stock.size() != NumShapes)
    throw std::runtime_error("perfbench: expected 17 standard workloads");
  SeedStream Seeds(Seed);
  std::vector<Program> Programs;
  for (size_t Index = 0; Index < NumShapes; ++Index) {
    if (Stock[Index].Name != Shapes[Index].Name)
      throw std::runtime_error("perfbench: workload order changed at " +
                               Stock[Index].Name);
    unsigned TrainSeed = Seeds.nextSeed();
    unsigned TestSeed = Seeds.nextSeed();
    Programs.push_back(
        Program{Stock[Index].Name, Stock[Index].Source,
                generate(Shapes[Index].Train, TrainSeed, TrainScale),
                generate(Shapes[Index].Test, TestSeed, TestScale)});
  }
  return Programs;
}

std::string programInput(size_t Index, unsigned Seed, double Scale,
                         bool Training) {
  return generate(Training ? Shapes[Index].Train : Shapes[Index].Test, Seed,
                  Scale);
}

CompileOptions paperOptions() {
  CompileOptions Options;
  Options.HeuristicSet = SwitchHeuristicSet::SetIV;
  Options.Predictor = "paper";
  return Options;
}

bool sameObservables(const RunResult &Run, const RunResult &Ref) {
  return Run.Trapped == Ref.Trapped && Run.ExitValue == Ref.ExitValue &&
         Run.Output == Ref.Output;
}

std::vector<std::vector<RunResult>>
referenceRuns(const std::vector<Program> &Programs,
              const std::vector<std::vector<std::string_view>> &Inputs) {
  std::vector<std::vector<RunResult>> Refs(Programs.size());
  for (size_t Index = 0; Index < Programs.size(); ++Index) {
    const Program &P = Programs[Index];
    CompileResult Baseline = compileBaseline(P.Source, paperOptions());
    if (!Baseline.ok())
      throw std::runtime_error("perfbench: baseline build of " + P.Name +
                               " failed: " + Baseline.Error);
    for (std::string_view Input : Inputs[Index]) {
      ExecRequest Req;
      Req.Input = Input;
      Refs[Index].push_back(
          executeModule(*Baseline.M, Interpreter::Mode::Tree, Req));
    }
  }
  return Refs;
}

double minOf(const std::vector<double> &V) {
  return V.empty() ? 0.0 : *std::min_element(V.begin(), V.end());
}

double median(std::vector<double> V) { return percentile(std::move(V), 0.5); }

double percentile(std::vector<double> V, double Fraction) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  if (Fraction == 0.5 && V.size() % 2 == 0)
    return (V[V.size() / 2 - 1] + V[V.size() / 2]) / 2;
  size_t Rank = static_cast<size_t>(
      std::ceil(Fraction * static_cast<double>(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

std::pair<double, double> quartiles(std::vector<double> V) {
  if (V.size() < 2) {
    double Only = V.empty() ? 0.0 : V[0];
    return {Only, Only};
  }
  // Python's statistics.quantiles(V, n=4), method "exclusive".
  std::sort(V.begin(), V.end());
  long Size = static_cast<long>(V.size()), M = Size + 1;
  auto At = [&](long I) {
    long J = I * M / 4, Delta = I * M - J * 4;
    double Below = V[static_cast<size_t>((J - 1 + Size) % Size)];
    double Above = V[static_cast<size_t>(std::min(J, Size - 1))];
    return (Below * static_cast<double>(4 - Delta) +
            Above * static_cast<double>(Delta)) /
           4;
  };
  return {At(1), At(3)};
}

double peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Ec == std::errc() ? std::string(Buf, End) : "null";
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Esc[8];
      std::snprintf(Esc, sizeof(Esc), "\\u%04x", C);
      Out += Esc;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

JsonObject &JsonObject::raw(const std::string &Key, const std::string &Json) {
  if (!Body.empty())
    Body += ", ";
  Body += jsonString(Key) + ": " + Json;
  return *this;
}

JsonObject &JsonObject::num(const std::string &Key, double V) {
  return raw(Key, jsonNumber(V));
}

JsonObject &JsonObject::str(const std::string &Key, const std::string &V) {
  return raw(Key, jsonString(V));
}

JsonObject &JsonObject::samples(const std::string &Key,
                                const std::vector<double> &Samples) {
  auto [Q1, Q3] = quartiles(Samples);
  JsonObject S;
  S.num("min", minOf(Samples))
      .num("q1", Q1)
      .num("median", median(Samples))
      .num("q3", Q3)
      .num("n", static_cast<double>(Samples.size()));
  return raw(Key, S.text());
}

std::string JsonObject::text() const { return "{" + Body + "}"; }

const std::vector<MetricSpec> &endToEndMetrics() {
  static const std::vector<MetricSpec> Metrics = {
      {"setup_s", "s"},
      {"compile_s", "s"},
      {"run_s", "s"},
      {"latency_p50_ms", "ms"},
      {"compile_p50_ms", "ms"},
      {"capacity_rps", "req/s"},
      {"dyn_insts", "count"},
      {"dyn_branches", "count"},
      {"mispredictions", "count"},
      {"static_insts", "count"},
      {"ok_ratio", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return Metrics;
}

const std::vector<MetricSpec> &perLayerMetrics() {
  static const std::vector<MetricSpec> Metrics = [] {
    std::vector<MetricSpec> M = {
        {"lang.front_s", "s"},
        {"opt.cleanup_s", "s"},
        {"opt.finalize_s", "s"},
        {"opt.layout_s", "s"},
        {"ir.verify_s", "s"},
        {"opt.fall_through_weight", "count"},
        {"core.detect_s", "s"},
        {"core.instrument_s", "s"},
        {"core.reorder_s", "s"},
        {"core.sequences_detected", "count"},
        {"core.sequences_reordered", "count"},
        {"cost.optimal_trees", "count"},
        {"cost.chain_model_cost", "cycles"},
        {"cost.chosen_model_cost", "cycles"},
        {"profile.roundtrip_s", "s"},
        {"profile.load_s", "s"},
        {"profile.bytes", "bytes"},
        {"profile.merge_p50_ms", "ms"},
        {"predict.miss_rate", "ratio"},
        {"sim.train_s", "s"},
        {"sim.edge_profile_s", "s"},
        {"sim.fuse_s", "s"},
        {"sim.exec_s", "s"},
        {"sim.minsts_per_s", "Minst/s"},
        {"sim.fused_chains", "count"},
        {"sim.reference_s", "s"},
        {"codegen.emit_s", "s"},
        {"codegen.c_bytes", "bytes"},
        {"codegen.cc_s", "s"},
        {"codegen.exec_s", "s"},
        {"codegen.compiles", "count"},
        {"codegen.cache_hits", "count"},
        {"runtime.execute_p50_ms", "ms"},
        {"runtime.tier_ups", "count"},
        {"runtime.swaps", "count"},
        {"runtime.recompile_s", "s"},
        {"service.execute_p50_ms", "ms"},
        {"service.queue_wait_p50_ms", "ms"},
        {"service.overhead_p50_ms", "ms"},
        {"service.compile_hit_ratio", "ratio"},
        {"service.rejected", "count"},
        {"service.queue_high_water", "count"},
        {"service.warm_starts", "count"},
        {"service.learned_exports", "count"},
        {"service.latency_p90_ms", "ms"},
        {"service.latency_p99_ms", "ms"},
        {"service.gen_late_max_ms", "ms"},
        {"workloads.inputs_s", "s"},
    };
    static std::vector<std::string> OverheadNames;
    for (const MetricSpec &E : endToEndMetrics())
      OverheadNames.push_back(std::string("trace.overhead.") + E.Name);
    for (size_t Index = 0; Index < OverheadNames.size(); ++Index)
      M.push_back({OverheadNames[Index].c_str(),
                   endToEndMetrics()[Index].Unit});
    return M;
  }();
  return Metrics;
}

void finishReport(Report &R) {
  R.EndToEnd["ok_ratio"] =
      R.Attempted ? static_cast<double>(R.Attempted - R.Failed) / R.Attempted
                  : 0.0;
  R.EndToEnd["peak_rss_mb"] = peakRssMb();
}

void reportSpanMinima(Report &R,
                      const std::vector<std::map<std::string, double>> &Reps) {
  std::map<std::string, double> Minima;
  for (const auto &Rep : Reps)
    for (const auto &[Name, Seconds] : Rep) {
      auto [It, New] = Minima.emplace(Name, Seconds);
      if (!New)
        It->second = std::min(It->second, Seconds);
    }
  for (const auto &[Name, Seconds] : Minima)
    R.PerLayer[Name + "_s"] = Seconds;
}

void reportTraceOverhead(Report &R,
                         const std::map<std::string, double> &Untraced,
                         const std::map<std::string, double> &Traced) {
  for (const MetricSpec &E : endToEndMetrics()) {
    auto U = Untraced.find(E.Name), T = Traced.find(E.Name);
    if (U != Untraced.end() && T != Traced.end())
      R.PerLayer[std::string("trace.overhead.") + E.Name] =
          T->second - U->second;
  }
}

} // namespace perfbench
