//===- opt/DeadCodeElimination.cpp - Remove dead defs and dead compares ---===//

#include "ir/CFG.h"
#include "opt/Liveness.h"
#include "opt/Passes.h"

using namespace bropt;

bool bropt::eliminateDeadCode(Function &F) {
  LivenessInfo Info = computeLiveness(F);
  bool Changed = false;

  for (auto &Block : F) {
    std::vector<bool> Live = Info.LiveOut[Block.get()];
    bool CCLive = Info.CCLiveOut[Block.get()];
    // Walk backward; erase pure instructions whose results are dead.
    for (size_t Index = Block->size(); Index-- > 0;) {
      Instruction *Inst = Block->getInstruction(Index);

      bool Removable = false;
      if (!Inst->hasSideEffects() && !Inst->isTerminator()) {
        if (Inst->writesCC())
          Removable = !CCLive;
        else if (auto Def = Inst->getDef())
          Removable = !Live[*Def];
      }
      if (Removable) {
        Block->removeAt(Index);
        Changed = true;
        continue;
      }

      if (auto Def = Inst->getDef())
        Live[*Def] = false;
      if (Inst->writesCC())
        CCLive = false;
      if (Inst->readsCC())
        CCLive = true;
      std::vector<unsigned> Uses;
      Inst->getUses(Uses);
      for (unsigned Reg : Uses)
        Live[Reg] = true;
    }
  }
  return Changed;
}

bool bropt::removeUnreachableBlocks(Function &F) {
  auto Reachable = reachableBlocks(F);
  std::vector<BasicBlock *> ToErase;
  for (auto &Block : F)
    if (!Reachable.count(Block.get()))
      ToErase.push_back(Block.get());
  if (ToErase.empty())
    return false;
  for (BasicBlock *Block : ToErase)
    F.eraseBlock(Block);
  return true;
}
