//===- opt/Passes.h - Conventional optimization passes ----------*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "conventional optimizations" (paper §1, Figure 2) applied before
/// sequence detection, and the clean-up passes reinvoked after the
/// reordering transformation (paper §8: dead code elimination, branch
/// chaining, code repositioning).  Each pass is a free function returning
/// true if it changed the function.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_OPT_PASSES_H
#define BROPT_OPT_PASSES_H

#include "ir/Function.h"
#include "ir/Module.h"
#include "profile/EdgeProfile.h"

#include <functional>

namespace bropt {

/// Observer invoked after every individual pass application with the pass
/// name and the function it just transformed.  The differential-testing
/// harness installs a verifier here so structural damage is pinned to the
/// exact pass that caused it instead of surfacing at the pipeline end.
///
/// Each thread has its own observer, so it sees exactly the passes of the
/// compiles that thread runs: compiles on other threads (a daemon's
/// workers, the parallel evaluation harness) are neither observed by it
/// nor disturbed when it is installed or removed.
using PassObserver = std::function<void(const char *PassName, Function &F)>;

/// Installs \p Observer on the calling thread (replacing any previous one);
/// pass an empty function to remove it.
void setPassObserver(PassObserver Observer);

/// Invokes the installed observer, if any.  Pass implementations and the
/// pipelines below call this after each pass that ran.
void notifyPassObserver(const char *PassName, Function &F);

/// RAII installer that restores the empty observer on destruction.
class PassObserverScope {
public:
  explicit PassObserverScope(PassObserver Observer) {
    setPassObserver(std::move(Observer));
  }
  ~PassObserverScope() { setPassObserver({}); }
  PassObserverScope(const PassObserverScope &) = delete;
  PassObserverScope &operator=(const PassObserverScope &) = delete;
};

/// Evaluates constant-operand arithmetic, folds constant conditions into
/// unconditional jumps, and simplifies algebraic identities (x+0, x*1, ...).
bool foldConstants(Function &F);

/// Block-local copy and constant propagation: replaces register reads with
/// the immediate or register most recently moved into them.
bool propagateCopies(Function &F);

/// Removes pure instructions whose results are never used, including
/// comparisons whose condition codes are never consumed.
bool eliminateDeadCode(Function &F);

/// Removes blocks unreachable from the entry block.
bool removeUnreachableBlocks(Function &F);

/// Collapses jump-to-jump chains, turns conditional branches with equal
/// successors into jumps, and merges single-predecessor jump targets into
/// their predecessor.
bool chainBranches(Function &F);

/// Orders blocks to maximize fall-through, inverts branch conditions where
/// that saves a jump, inserts trampoline jumps where layout cannot satisfy
/// a fall-through edge, and flags layout-satisfied jumps as free
/// fall-throughs.  Run last; other passes invalidate its flags.
bool repositionCode(Function &F);

/// What the profile-guided layout did (satellite of the ext-TSP layout;
/// surfaced through ReorderStats, `broptc --stats` and perfbench's
/// `opt.fall_through_weight`).
struct LayoutStats {
  /// Functions whose layout was recomputed from measured edge weights.
  unsigned FunctionsLaidOut = 0;
  /// Chain-merge steps taken across those functions.
  unsigned ChainsMerged = 0;
  /// Blocks whose layout position changed.
  unsigned BlocksMoved = 0;
  /// Functions where the measured order lost to the incumbent hot-first
  /// order and was discarded (the keep-best rule).
  unsigned KeptIncumbent = 0;
  /// Total measured weight of layout-satisfied fall-through edges, before
  /// and after.  After >= Before by construction.
  uint64_t FallThroughWeightBefore = 0;
  uint64_t FallThroughWeightAfter = 0;

  void accumulate(const LayoutStats &Other) {
    FunctionsLaidOut += Other.FunctionsLaidOut;
    ChainsMerged += Other.ChainsMerged;
    BlocksMoved += Other.BlocksMoved;
    KeptIncumbent += Other.KeptIncumbent;
    FallThroughWeightBefore += Other.FallThroughWeightBefore;
    FallThroughWeightAfter += Other.FallThroughWeightAfter;
  }
};

/// Measured weight of \p F's layout-adjacent edges that the terminator can
/// satisfy for free: either successor of a conditional branch (invertible)
/// or the target of a jump.  The objective ext-TSP maximizes.
uint64_t layoutFallThroughWeight(const Function &F,
                                 const EdgeWeightMap &Weights);

/// ext-TSP-style layout (Newell & Pupyrev): greedily merges fall-through
/// chains along the heaviest measured edges, orders the chains by junction
/// weight, and keeps whichever of {new order, incumbent order} satisfies
/// more fall-through weight — never worse than the hot-first layout it
/// replaces.  Re-materializes branches afterwards like repositionCode.
/// \returns true if the layout changed.
bool repositionCodeExtTsp(Function &F, const EdgeWeightMap &Weights,
                          LayoutStats *Stats = nullptr);

/// Runs repositionCodeExtTsp on every function of \p M that has measured
/// edge weights.  \returns true if any layout changed.
bool applyProfileGuidedLayout(Module &M, const ModuleEdgeWeights &Weights,
                              LayoutStats *Stats = nullptr);

/// Removes comparisons that recompute the condition codes produced by an
/// identical comparison, either earlier in the same block or at the tail of
/// every predecessor (the paper's Figure 9 clean-up after reordering).
bool eliminateRedundantCompares(Function &F);

/// Runs {fold, propagate, DCE, chain, unreachable} to a fixpoint.
/// \returns true if anything changed.
bool runCleanupPipeline(Function &F);

/// Cleanup pipeline followed by redundant-compare elimination and final
/// repositioning; the function is in layout-finalized form afterwards.
void finalizeFunction(Function &F);

/// Runs the full conventional pipeline on every function and finalizes
/// layout — the state the paper's pass 1 reaches before detection.
void optimizeModule(Module &M);

} // namespace bropt

#endif // BROPT_OPT_PASSES_H
