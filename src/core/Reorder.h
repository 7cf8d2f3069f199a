//===- core/Reorder.h - Apply the branch-reordering transformation -*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Applies the transformation of paper §8 (Figure 10) to detected
/// sequences: select the minimum-cost ordering from profile data, rebuild
/// the sequence at its head in that order (promoting chosen default ranges
/// to explicit conditions and demoting the new default target's ranges),
/// duplicate intervening side effects onto the exit edges that originally
/// executed them (Theorem 2), duplicate the default target's code up to the
/// next unconditional transfer so no new jumps execute (Figure 10d), and
/// order the two branches inside bounded Form-4 conditions by the
/// probability that the value lies below versus above the range (§7).
///
/// Original non-head condition blocks become unreachable unless they had
/// outside predecessors, exactly as in Figure 10(e), and are swept by the
/// clean-up pipeline afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_CORE_REORDER_H
#define BROPT_CORE_REORDER_H

#include "core/OrderingSelection.h"
#include "core/SequenceDetection.h"
#include "cost/BranchCostModel.h"
#include "opt/Passes.h"
#include "profile/ProfileDB.h"

namespace bropt {

/// Knobs for the transformation; the defaults reproduce the paper.
struct ReorderOptions {
  /// Duplicate default-target code up to an unconditional transfer
  /// (paper Figure 10d).  Off: fall out through a jump instead.
  bool DuplicateDefaultTarget = true;
  /// Order the two branches of a Form-4 condition by the probability mass
  /// below/above the range (paper §7).  Off: always test the lower bound
  /// first.
  bool OrderFormFourBranches = true;
  /// Use the exhaustive ordering search instead of the Figure 8 algorithm
  /// (only for sequences of <= 10 ranges; larger ones fall back).
  bool UseExhaustiveSelection = false;
  /// Sequences whose head executed fewer times than this in training are
  /// left untouched (the paper's dominant reason a detected sequence was
  /// not reordered).
  uint64_t MinExecutions = 1;

  /// §10 extension: semi-static search-method selection.  When enabled,
  /// each sequence is emitted as a bounds-checked jump table instead of a
  /// reordered linear search whenever the table's expected cost (priced by
  /// Cost.jumpTableCost) beats the best ordering's cost.
  bool EnableMethodSelection = false;

  /// Set IV (docs/LOWERING.md): also cost the optimal comparison tree over
  /// the sorted range partition (cost/OptimalTree.h) and emit whichever of
  /// {Figure-8 chain, tree} the profile says is cheaper.  Never worse than
  /// the chain on the modeled cost by construction.
  bool UseOptimalTree = false;

  /// The one pricing authority for every shape decision this pass makes —
  /// chain extras, tree parameters, jump-table dispatch, and the
  /// table-vs-chain margin all come from here (cost/BranchCostModel.h).
  /// Defaults reproduce the paper's SPARC-IPC-like numbers with
  /// misprediction awareness off.
  BranchCostModel Cost;
  /// Recompute block layout from measured edge weights after reordering
  /// (ext-TSP, opt/Passes.h).  Consumed by the driver — reorderSequence
  /// itself never moves blocks.
  bool ProfileGuidedLayout = true;
};

/// Outcome of one sequence's transformation attempt.
enum class SequenceOutcome {
  Reordered,       ///< transformation applied
  NeverExecuted,   ///< profile shows too few executions
  ProfileMissing,  ///< no profile record for this id
  ProfileMismatch, ///< signature differs: stale profile data
};

/// Aggregate statistics across a module.
struct ReorderStats {
  unsigned Detected = 0;
  unsigned Reordered = 0;
  unsigned NeverExecuted = 0;
  unsigned ProfileProblems = 0;
  /// Sequences emitted as jump tables by method selection (a subset of
  /// Reordered).
  unsigned JumpTables = 0;
  /// Sequences emitted as optimal comparison trees (a subset of Reordered;
  /// Set IV only).
  unsigned OptimalTrees = 0;
  /// Modeled expected cost summed over reordered sequences: what the
  /// Figure-8 chain would cost (taken-branch adjusted), and what the
  /// emitted shape costs.  Chosen <= Chain when UseOptimalTree is on —
  /// the differential never-worse guarantee the tests pin down.
  double ChainModelCost = 0.0;
  double ChosenModelCost = 0.0;
  /// What the profile-guided ext-TSP layout did (filled by the driver).
  LayoutStats Layout;
  /// (branches before, branches after) per reordered sequence.
  std::vector<std::pair<unsigned, unsigned>> Lengths;

  double averageLengthBefore() const;
  double averageLengthAfter() const;
};

/// Builds the ordering-selector inputs for \p Seq under profile record
/// \p Prof: one RangeInfo per explicit condition (profile bins in original
/// order) followed by one per default range, with probabilities normalized
/// by the head's total executions.  \p Prof must have one bin per range and
/// a nonzero total; callers check the signature and execution count first
/// (as reorderSequence does).  Exposed so oracles can evaluate Equations
/// 1-4 on exactly the inputs the transformation used.
std::vector<RangeInfo> buildRangeInfos(const RangeSequence &Seq,
                                       const ProfileEntry &Prof);

/// Transforms one sequence, reading its record at (\p Ordinal within the
/// function) from \p Profile — a missing, stale, or mis-shaped record is a
/// diagnosed skip.  The caller must not reuse \p Seq (or any other
/// sequence descriptor pointing into the same blocks) afterwards and
/// should run finalizeFunction on the function when done with it.
SequenceOutcome reorderSequence(const RangeSequence &Seq,
                                const ProfileDB &Profile,
                                const ReorderOptions &Opts,
                                ReorderStats *Stats = nullptr,
                                unsigned Ordinal = 0);

/// Transforms every sequence (computing per-function ordinals from the
/// detection order of \p Sequences) and finalizes each affected function.
ReorderStats reorderSequences(Module &M,
                              const std::vector<RangeSequence> &Sequences,
                              const ProfileDB &Profile,
                              const ReorderOptions &Opts = {});

} // namespace bropt

#endif // BROPT_CORE_REORDER_H
