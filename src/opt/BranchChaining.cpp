//===- opt/BranchChaining.cpp - Collapse jump chains and merge blocks ------===//

#include "ir/CFG.h"
#include "opt/Passes.h"

#include <unordered_set>

using namespace bropt;

namespace {

/// \returns the final destination of \p Block if it consists solely of an
/// unconditional jump, following chains but stopping on cycles.
BasicBlock *ultimateTarget(BasicBlock *Block) {
  std::unordered_set<BasicBlock *> Seen;
  BasicBlock *Current = Block;
  while (Current->size() == 1) {
    const auto *Jump = dyn_cast<JumpInst>(&Current->front());
    if (!Jump)
      break;
    if (!Seen.insert(Current).second)
      return Block; // infinite-jump cycle; leave it alone
    Current = Jump->getTarget();
  }
  return Current;
}

/// Merges \p Succ into \p Block when Block ends in an unconditional jump to
/// Succ and Succ has no other predecessors.
bool mergeIntoPredecessor(Function &F, BasicBlock *Block,
                          const PredecessorMap &Preds) {
  auto *Jump = dyn_cast<JumpInst>(Block->getTerminator());
  if (!Jump)
    return false;
  BasicBlock *Succ = Jump->getTarget();
  if (Succ == Block || Succ == &F.getEntryBlock())
    return false;
  if (Preds.at(Succ).size() != 1)
    return false;
  // Splice Succ's instructions into Block.
  size_t JumpIndex = Block->indexOf(Jump);
  Block->removeAt(JumpIndex);
  while (!Succ->empty())
    Block->append(Succ->removeAt(0));
  replaceAllBranchesTo(F, Succ, Block); // self-loops back to Succ
  F.eraseBlock(Succ);
  return true;
}

} // namespace

bool bropt::chainBranches(Function &F) {
  bool Changed = false;
  bool LocalChange = true;
  while (LocalChange) {
    LocalChange = false;

    // Retarget edges that point at jump-only blocks.
    for (auto &Block : F) {
      Instruction *Term = Block->getTerminator();
      if (!Term)
        continue;
      for (unsigned Index = 0, E = Term->getNumSuccessors(); Index != E;
           ++Index) {
        BasicBlock *Succ = Term->getSuccessor(Index);
        BasicBlock *Final = ultimateTarget(Succ);
        if (Final != Succ) {
          Term->setSuccessor(Index, Final);
          LocalChange = true;
        }
      }
      // A conditional branch with identical successors is a jump.
      if (auto *Br = dyn_cast<CondBrInst>(Term)) {
        if (Br->getTaken() == Br->getFallThrough()) {
          BasicBlock *Target = Br->getTaken();
          size_t TermIndex = Block->indexOf(Term);
          Block->removeAt(TermIndex);
          Block->insertAt(TermIndex, std::make_unique<JumpInst>(Target));
          LocalChange = true;
        }
      }
    }

    if (LocalChange) {
      Changed = true;
      continue;
    }

    // Merge single-predecessor jump targets.
    const PredecessorMap Preds = predecessorMap(F);
    for (auto &Block : F) {
      if (!Block->hasTerminator())
        continue;
      if (mergeIntoPredecessor(F, Block.get(), Preds)) {
        LocalChange = true;
        Changed = true;
        break; // blocks and edges changed; restart with a new map
      }
    }
  }
  return Changed;
}
