//===- core/Instrumentation.h - Sequence profiling hooks --------*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pass-1 instrumentation (paper §5): at the head of each detected
/// sequence, a hook reports the current value of the branch variable; the
/// profile runtime attributes the execution to one of the sequence's bins.
/// Bin layout: the explicit conditions in original order, then the default
/// ranges ascending.  Because the ranges partition the value space, each
/// head execution lands in exactly one bin, which is exactly the per-range
/// exit probability the cost model wants (Definition 9).
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_CORE_INSTRUMENTATION_H
#define BROPT_CORE_INSTRUMENTATION_H

#include "core/SequenceDetection.h"
#include "profile/ProfileDB.h"

#include <functional>
#include <vector>

namespace bropt {

/// Maps a profiled value to a bin index for each instrumented sequence.
class ProfileBinner {
public:
  /// Registers the bins of \p Seq.
  void addSequence(const RangeSequence &Seq);

  /// \returns the bin for \p Value in sequence \p SequenceId.
  size_t binFor(unsigned SequenceId, int64_t Value) const;

  /// Number of bins of a registered sequence.
  size_t numBins(unsigned SequenceId) const;

  /// An Interpreter profile callback that counts into \p DB.
  /// \p DB must outlive the returned callable (and this binner too).
  std::function<void(unsigned, int64_t)> callback(ProfileDB &DB) const;

private:
  /// Per sequence: bins sorted by range lower bound for binary search.
  struct BinTable {
    std::vector<std::pair<Range, size_t>> SortedBins;
    size_t NumBins = 0;
  };
  /// Indexed by sequence id: the detector numbers sequences densely from
  /// 0, so a hook finds its table without hashing.  Ids never registered
  /// hold an empty table.
  std::vector<BinTable> Tables;
};

/// Inserts a Profile hook at the head of every sequence (directly before
/// the head's trailing compare, after any side-effect prefix such as the
/// `c = getchar()` of paper Figure 1), registers each sequence with
/// \p DB, and records its bins in \p Binner.
void instrumentSequences(const std::vector<RangeSequence> &Sequences,
                         ProfileDB &DB, ProfileBinner &Binner);

} // namespace bropt

#endif // BROPT_CORE_INSTRUMENTATION_H
