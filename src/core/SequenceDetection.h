//===- core/SequenceDetection.h - Detect reorderable sequences --*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the detection algorithm of paper Figure 4: find consecutive
/// sequences of range conditions (Definition 3) testing a common variable
/// against constants with pairwise nonoverlapping ranges (Definition 4/5).
///
/// A range condition is one block ending in [cmp V, #c; condbr] (Forms 1-3
/// of Table 1) or a pair of such blocks forming a bounded range (Form 4).
/// A relational branch admits two readings — the taken interval exits and
/// the fall-through continues, or vice versa — so detection retries with
/// the inverse interval when the first reading does not extend into a
/// sequence, exactly like Find_First_Two_Conds in the paper.
///
/// Instructions preceding the compare in a non-head condition block are
/// intervening side effects (Definition 6).  They are recorded so the
/// transformation can move them out by duplication (Theorem 2); a prefix
/// that redefines the branch variable ends the sequence instead.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_CORE_SEQUENCEDETECTION_H
#define BROPT_CORE_SEQUENCEDETECTION_H

#include "core/Range.h"
#include "ir/Module.h"

#include <string>
#include <vector>

namespace bropt {

/// One range condition within a detected sequence.
struct RangeConditionDesc {
  /// Values for which the condition exits the sequence.
  Range R;
  /// Where control goes when the value is in the range.
  BasicBlock *Target = nullptr;
  /// The one or two blocks implementing the condition (Form 4 uses two).
  std::vector<BasicBlock *> Blocks;
  /// Number of instructions in the condition's compare/branch pairs:
  /// 2 for Forms 1-3, 4 for Form 4 (the paper's cost estimate, Def. 10;
  /// §7 notes both branches are assumed executed when estimating).
  unsigned Cost = 2;
  /// Number of instructions at the head of Blocks[0] that precede the
  /// compare: the condition's side-effect prefix.  Always 0 for the
  /// sequence head (its prefix simply stays put).
  size_t PrefixLength = 0;

  /// Conditional branches in this condition (1 or 2).
  unsigned branchCount() const {
    return static_cast<unsigned>(Blocks.size());
  }
};

/// A reorderable sequence of range conditions (paper Definition 4).
struct RangeSequence {
  /// Module-wide id in discovery order; stable across recompilations of
  /// the same source, which is how pass 2 matches profile data collected
  /// by pass 1.
  unsigned Id = 0;
  Function *F = nullptr;
  /// The common branch variable V.
  unsigned ValueReg = 0;
  /// The conditions in original order; at least two.
  std::vector<RangeConditionDesc> Conds;
  /// Where control goes when no explicit range matches.
  BasicBlock *DefaultTarget = nullptr;
  /// Minimal cover of the values no explicit condition checks, ascending.
  std::vector<Range> DefaultRanges;

  /// Head block: the sequence's unique entry point for reordering.
  BasicBlock *head() const { return Conds.front().Blocks.front(); }

  /// Total conditional branches across the explicit conditions.
  unsigned branchCount() const;

  /// Fingerprint of the sequence's shape, used to validate that profile
  /// data from pass 1 matches the sequence pass 2 re-detected.
  std::string signature() const;
};

/// Runs detection over every function of \p M.  Blocks join at most one
/// sequence.  Deterministic: iterates functions and blocks in layout order.
/// Only reads \p M, so threads sharing a finished module may detect on it
/// at once; the results point into it for a later pass 2 to rewrite.
std::vector<RangeSequence> detectSequences(const Module &M);

/// Detection over a single function; \p FirstId numbers the results.
std::vector<RangeSequence> detectSequences(const Function &F,
                                           unsigned FirstId = 0);

/// The values v for which `v Pred C` holds, as an inclusive interval:
/// empty when none do.  NE's truth set is not contiguous, so NE yields
/// an empty range too, and callers must treat it apart.
Range takenInterval(CondCode Pred, int64_t C);

} // namespace bropt

#endif // BROPT_CORE_SEQUENCEDETECTION_H
