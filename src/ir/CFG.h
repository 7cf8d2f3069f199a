//===- ir/CFG.h - Control-flow-graph utilities ------------------*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reachability, traversal orders, predecessor maps, the engines' branch
/// numbering, and the block-cloning machinery used by the reordering
/// transformation to replicate range conditions and default target code
/// (paper Figure 10).
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_IR_CFG_H
#define BROPT_IR_CFG_H

#include "ir/Function.h"

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace bropt {

class Module;

/// \returns the set of blocks reachable from the entry block.
std::unordered_set<const BasicBlock *> reachableBlocks(const Function &F);

/// \returns the blocks reachable from entry in reverse post order.
std::vector<BasicBlock *> reversePostOrder(Function &F);

/// Each block's predecessors.
using PredecessorMap =
    std::unordered_map<const BasicBlock *, std::vector<BasicBlock *>>;

/// \returns the predecessors of every block of \p F (blocks without any map
/// to an empty list), in the layout order of the branching blocks, one
/// entry per edge: a conditional branch whose two arms reach the same block
/// lists its block twice.  The map describes \p F as it is now; a pass that
/// changes edges computes a new one.
PredecessorMap predecessorMap(const Function &F);

/// The engines' conditional-branch numbering: one id per CondBr in module
/// layout order, which stands in for the branch's address when indexing
/// predictor tables, hotness counters and misprediction records.  The
/// decoder assigns the same ids as it decodes (sim/Decoded.h).
struct BranchNumbering {
  /// Each CondBr's id.
  std::unordered_map<const Instruction *, uint32_t> IdOf;
  /// FirstId[I] is the first id of the module's I-th function; one more
  /// entry at the end holds the total, so function I's branches are the
  /// half-open range [FirstId[I], FirstId[I + 1]).
  std::vector<uint32_t> FirstId;
};

/// Numbers \p M's conditional branches.
BranchNumbering numberBranches(const Module &M);

/// Clones \p BlocksToClone (in their given order) into \p F, appending the
/// clones at the end of the layout.  Terminator edges that point into the
/// cloned set are redirected to the corresponding clones; edges leaving the
/// set keep pointing at the original blocks.  Registers are not renamed:
/// the clones compute into the same virtual registers, which is correct in
/// this non-SSA IR because a clone executes *instead of* its original, never
/// in addition to it.
///
/// \returns the original-to-clone mapping.
std::unordered_map<BasicBlock *, BasicBlock *>
cloneBlocks(Function &F, const std::vector<BasicBlock *> &BlocksToClone);

/// Redirects every edge in \p F that points at \p From so it points at
/// \p To instead.
void replaceAllBranchesTo(Function &F, BasicBlock *From, BasicBlock *To);

} // namespace bropt

#endif // BROPT_IR_CFG_H
