//===- runtime/HotnessSampler.h - Sampled branch-bias collection -*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight per-branch and per-function counters the adaptive runtime's
/// tier 0 feeds from sampled execution (sim/Interpreter.h AdaptiveHooks).
/// The branch bias drives the fuser's hot-first layout; the per-function
/// sample counts drive the tier-up decision.
///
/// Also exposes collectBranchHotness(), an offline convenience that runs a
/// module once with every-branch sampling to produce exact taken/total
/// counts — the benchmark harness uses it to feed the layout the same
/// measured bias the online controller would converge to.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_RUNTIME_HOTNESSSAMPLER_H
#define BROPT_RUNTIME_HOTNESSSAMPLER_H

#include "profile/ProfileDB.h"
#include "sim/Fuse.h"

#include <cstdint>
#include <string_view>
#include <vector>

namespace bropt {

class Module;

/// Accumulates sampled branch outcomes and attributes them to functions.
struct HotnessSampler {
  /// Per-branch-id taken/total counts (the layout's input).
  BranchHotness Hotness;
  /// Per-function number of samples observed.
  std::vector<uint64_t> FuncSamples;
  /// Samples that could not be attributed because the branch or function
  /// index was out of range.  Such a sample means the hooks and the
  /// decoded program disagree about the id space — profile quality is
  /// degraded, so the count is surfaced (RuntimeStats::DroppedSamples)
  /// instead of silently ignored.
  uint64_t DroppedSamples = 0;

  void init(uint32_t NumBranchIds, size_t NumFunctions) {
    Hotness.Taken.assign(NumBranchIds, 0);
    Hotness.Total.assign(NumBranchIds, 0);
    FuncSamples.assign(NumFunctions, 0);
    DroppedSamples = 0;
  }

  /// Records one sample.  \returns the function's updated sample count.
  uint64_t observe(uint32_t FuncIndex, uint32_t BranchId, bool Taken) {
    const bool BranchKnown = BranchId < Hotness.Total.size();
    const bool FuncKnown = FuncIndex < FuncSamples.size();
    if (!BranchKnown || !FuncKnown)
      ++DroppedSamples;
    if (BranchKnown) {
      ++Hotness.Total[BranchId];
      Hotness.Taken[BranchId] += Taken;
    }
    return FuncKnown ? ++FuncSamples[FuncIndex] : 0;
  }
};

/// Runs \p M on \p Input in adaptive tier 0 with a sample interval of 1
/// and returns the exact per-branch taken/total counts.  Purely a
/// measurement: output and side effects of the run are discarded.
BranchHotness collectBranchHotness(const Module &M, std::string_view Input,
                                   uint64_t InstructionLimit = 0);

/// Records \p H — module-wide, branch-id indexed — into \p DB as one
/// hotness section per function, splitting the id space by \p M's branch
/// layout (one id per conditional branch, in module layout order,
/// contiguous per function).  Counts are multiplied by \p Scale so sampled
/// counts can be stored as estimated executions.
void exportHotnessToProfile(const Module &M, const BranchHotness &H,
                            ProfileDB &DB, uint64_t Scale = 1);

/// Rebuilds the module-wide BranchHotness from \p DB's per-function
/// records, the inverse of exportHotnessToProfile.  A function whose
/// recorded branch count disagrees with \p M's layout is skipped — stale
/// profiles degrade coverage, never misattribute.  \returns the number of
/// functions imported.
size_t importHotnessFromProfile(const Module &M, const ProfileDB &DB,
                                BranchHotness &H);

} // namespace bropt

#endif // BROPT_RUNTIME_HOTNESSSAMPLER_H
