//===- perfbench/src/Bench.h - The workloads --------------------*- C++ -*-===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Common.h"
#include "Trace.h"

namespace perfbench {

/// Each workload measures with tracing off and fills Report::EndToEnd; a
/// traced run (Options::Trace) also measures with tracing on, fills
/// Report::PerLayer and the tracing overhead.
void runPgoInterp(const Options &O, Tracer &T, Report &R);
void runDaemonMix(const Options &O, Tracer &T, Report &R);

/// Set-up runs this many times per benchmark run; setup_s is the median.
/// A traced run alternates tracing off and on, one more time.
constexpr unsigned SetupRepeats = 5;

/// Builds the workload's set-up SetupRepeats times (SetupRepeats + 1 in a
/// traced run, alternating tracing off and on), reports setup_s and the
/// set-up spans of the last traced build, and returns the last build.
template <typename MakeFn>
auto repeatedSetup(const Options &O, Tracer &T, Report &R,
                   std::map<std::string, double> &Traced, MakeFn Make) {
  std::vector<double> Plain, WithSpans;
  unsigned Repeats = O.Trace ? SetupRepeats + 1 : SetupRepeats;
  decltype(Make()) Last;
  for (unsigned Index = 0; Index < Repeats; ++Index) {
    bool Tracing = O.Trace && Index % 2 == 1;
    T.setEnabled(Tracing);
    size_t FirstSpan = T.size();
    Last = decltype(Make())(); // free the previous build before timing
    Clock::time_point Start = Clock::now();
    Last = Make();
    (Tracing ? WithSpans : Plain).push_back(secondsSince(Start));
    if (Tracing)
      for (auto &[Name, Seconds] : T.selfSeconds(FirstSpan))
        R.PerLayer[Name + "_s"] = Seconds;
  }
  T.setEnabled(false);
  R.EndToEnd["setup_s"] = median(Plain);
  if (O.Trace)
    Traced["setup_s"] = median(WithSpans);
  R.Details.samples("setup_s", Plain);
  return Last;
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
