//===- opt/Liveness.cpp - Register and condition-code liveness ------------===//

#include "opt/Liveness.h"

using namespace bropt;

namespace {

/// Applies one block's transfer function backward from \p Live.
void transferBlock(const BasicBlock &Block, std::vector<bool> &Live,
                   bool &CCLive) {
  for (size_t Index = Block.size(); Index-- > 0;) {
    const Instruction *Inst = Block.getInstruction(Index);
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

} // namespace

LivenessInfo bropt::computeLiveness(const Function &F) {
  LivenessInfo Info;
  const size_t NumRegs = F.getNumRegs();
  for (const auto &Block : F) {
    Info.LiveOut[Block.get()].assign(NumRegs, false);
    Info.LiveIn[Block.get()].assign(NumRegs, false);
    Info.CCLiveOut[Block.get()] = false;
  }

  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Iterate in reverse layout order: a decent approximation of reverse
    // topological order that converges quickly on structured CFGs.
    for (size_t Index = F.size(); Index-- > 0;) {
      const BasicBlock *Block = F.getBlock(Index);
      std::vector<bool> Out(NumRegs, false);
      bool CCOut = false;
      for (const BasicBlock *Succ : Block->successors()) {
        const std::vector<bool> &SuccIn = Info.LiveIn[Succ];
        for (size_t Reg = 0; Reg < NumRegs; ++Reg)
          if (SuccIn[Reg])
            Out[Reg] = true;
        // CC live into a successor if the successor consumes CC before
        // writing it.
        bool SuccNeedsCC = false;
        for (const auto &Inst : *Succ) {
          if (Inst->writesCC())
            break;
          if (Inst->readsCC()) {
            SuccNeedsCC = true;
            break;
          }
        }
        // If the successor neither reads nor writes CC, CC liveness flows
        // through it; approximate with its own CCLiveOut.
        bool SuccTouchesCC = false;
        for (const auto &Inst : *Succ)
          if (Inst->writesCC() || Inst->readsCC()) {
            SuccTouchesCC = true;
            break;
          }
        if (SuccNeedsCC || (!SuccTouchesCC && Info.CCLiveOut[Succ]))
          CCOut = true;
      }

      std::vector<bool> In = Out;
      bool CCIn = CCOut;
      transferBlock(*Block, In, CCIn);

      if (Out != Info.LiveOut[Block] || In != Info.LiveIn[Block] ||
          CCOut != Info.CCLiveOut[Block]) {
        Info.LiveOut[Block] = std::move(Out);
        Info.LiveIn[Block] = std::move(In);
        Info.CCLiveOut[Block] = CCOut;
        Changed = true;
      }
    }
  }
  return Info;
}
