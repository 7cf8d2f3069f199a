//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Inputs, statistics, metric catalogs and the report every workload fills.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "driver/Driver.h"
#include "sim/Interpreter.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}
inline double secondsSince(Clock::time_point A) {
  return secondsBetween(A, Clock::now());
}

/// Command line of one benchmark run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut; ///< where the spans go at exit (empty: nowhere)
  /// Directory for the daemon's socket; a short relative path keeps the
  /// socket path under the sun_path limit wherever the checkout lives.
  std::string ScratchDir = ".";
};

/// One of the seventeen paper programs with inputs generated from the
/// workload seed.
struct Program {
  std::string Name;
  std::string Source;
  std::string Train;
  std::string Test;
};

/// The seventeen programs of workloads/Workloads.h with fresh inputs: the
/// same generator and shape each program gets there, sized \p TrainScale
/// and \p TestScale times the stock size, from seeds derived from \p Seed
/// (training and test seeds differ, as in the paper).
std::vector<Program> makePrograms(uint64_t Seed, double TrainScale,
                                  double TestScale);

/// Another input for program \p Index of makePrograms(), shaped like its
/// test input (or its training input), \p Scale times the stock size, from
/// seed \p Seed.
std::string programInput(size_t Index, unsigned Seed, double Scale,
                         bool Training = false);

/// A deterministic seed stream (splitmix64).
class SeedStream {
public:
  explicit SeedStream(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  unsigned nextSeed() { return static_cast<unsigned>(next() >> 33); }

private:
  uint64_t State;
};

/// The paper's flow as `broptc --set IV --predictor paper` configures it.
bropt::CompileOptions paperOptions();

/// True when \p Run's output, exit value and trap state equal \p Ref's.
bool sameObservables(const bropt::RunResult &Run,
                     const bropt::RunResult &Ref);

/// Tree-walker runs of program i's baseline (unreordered) build on each of
/// \p Inputs[i]: the reference every engine is checked against.
std::vector<std::vector<bropt::RunResult>>
referenceRuns(const std::vector<Program> &Programs,
              const std::vector<std::vector<std::string_view>> &Inputs);

// Statistics over samples.  All take a copy and sort it.
double minOf(const std::vector<double> &V);
double median(std::vector<double> V);
/// Nearest-rank percentile, \p Fraction in [0, 1].
double percentile(std::vector<double> V, double Fraction);
/// (first quartile, third quartile), exclusive method.
std::pair<double, double> quartiles(std::vector<double> V);

double peakRssMb();

/// A JSON number with every digit of \p V (shortest round-trip form).
std::string jsonNumber(double V);
std::string jsonString(const std::string &S);

/// An ordered JSON object under construction.
class JsonObject {
public:
  JsonObject &num(const std::string &Key, double V);
  JsonObject &str(const std::string &Key, const std::string &V);
  JsonObject &raw(const std::string &Key, const std::string &Json);
  /// Median, quartiles, min and count of \p Samples.
  JsonObject &samples(const std::string &Key,
                      const std::vector<double> &Samples);
  std::string text() const;

private:
  std::string Body;
};

/// What one workload run hands back to main().  Metric values are keyed by
/// the catalog names below; main() prints every catalog entry.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems; ///< broken guards, one line each
  std::map<std::string, double> EndToEnd;
  std::map<std::string, double> PerLayer;
  JsonObject Details;

  /// Counts one operation; \p Ok false makes it a miss.
  void op(bool Ok) {
    ++Attempted;
    if (!Ok)
      ++Failed;
  }
  void fail(std::string Why) { Problems.push_back(std::move(Why)); }
  bool correct() const { return Failed == 0 && Problems.empty(); }
};

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics (measured with tracing off), and the per-layer
/// metrics of a traced run.  BENCHMARK.json lists the same names and units.
const std::vector<MetricSpec> &endToEndMetrics();
const std::vector<MetricSpec> &perLayerMetrics();

/// Repetitions a batch workload runs even when --seconds has passed: three
/// with tracing off, and three more with it on in a traced run.
inline unsigned minReps(const Options &O) { return O.Trace ? 6 : 3; }

/// Sets ok_ratio and peak_rss_mb.
void finishReport(Report &R);

/// Fills the per-layer "trace.overhead.<metric>" entries: the traced value
/// minus the untraced value of every end-to-end metric.
void reportTraceOverhead(Report &R,
                         const std::map<std::string, double> &Untraced,
                         const std::map<std::string, double> &Traced);

/// Per-layer "<span>_s" entries: for each span name, the smallest of its
/// per-repetition self-time sums in \p Reps.
void reportSpanMinima(Report &R,
                      const std::vector<std::map<std::string, double>> &Reps);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
