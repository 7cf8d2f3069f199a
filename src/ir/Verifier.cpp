//===- ir/Verifier.cpp - IR structural validity checks --------------------===//

#include "ir/Verifier.h"

#include "ir/CFG.h"
#include "support/Strings.h"

#include <unordered_map>

using namespace bropt;

namespace {

class VerifierImpl {
public:
  VerifierImpl(const Function &F, std::string *Errors)
      : F(F), Errors(Errors) {}

  bool run() {
    if (F.empty()) {
      fail("function has no blocks");
      return Ok;
    }
    for (const auto &Block : F)
      checkBlock(*Block);
    checkConditionCodes();
    return Ok;
  }

private:
  void fail(const std::string &Message) {
    Ok = false;
    if (Errors)
      *Errors += formatString("%s: %s\n", F.getName().c_str(),
                              Message.c_str());
  }

  void checkBlock(const BasicBlock &Block) {
    if (!Block.hasTerminator()) {
      fail(Block.getLabel() + " has no terminator");
      return;
    }
    for (size_t Index = 0; Index + 1 < Block.size(); ++Index)
      if (Block.getInstruction(Index)->isTerminator())
        fail(Block.getLabel() + " has a terminator before its last position");
    for (const auto &Inst : Block) {
      if (Inst->getParent() != &Block)
        fail(Block.getLabel() + " contains an instruction with a stale parent");
      checkRegisters(Block, *Inst);
      for (unsigned I = 0, E = Inst->getNumSuccessors(); I != E; ++I) {
        const BasicBlock *Succ = Inst->getSuccessor(I);
        if (!Succ)
          fail(Block.getLabel() + " has a null successor");
        else if (Succ->getParent() != &F)
          fail(Block.getLabel() + " branches outside the function");
      }
    }
  }

  void checkRegisters(const BasicBlock &Block, const Instruction &Inst) {
    if (auto Def = Inst.getDef())
      if (*Def >= F.getNumRegs())
        fail(formatString("%s defines out-of-range register r%u",
                          Block.getLabel().c_str(), *Def));
    std::vector<unsigned> Uses;
    Inst.getUses(Uses);
    for (unsigned Reg : Uses)
      if (Reg >= F.getNumRegs())
        fail(formatString("%s uses out-of-range register r%u",
                          Block.getLabel().c_str(), Reg));
  }

  /// Forward dataflow: a CondBr is valid if a Cmp precedes it in its block,
  /// or condition codes are definitely set on entry from every reachable
  /// predecessor.  Unreachable predecessors are excluded: a pass like
  /// branch chaining can orphan a jump-only block before the next
  /// unreachable-block sweep deletes it, and a dead edge cannot deliver
  /// condition codes (or anything else) at run time.
  void checkConditionCodes() {
    auto Reachable = reachableBlocks(F);
    // CCAtExit[B] = true if CC is definitely set when B's terminator runs.
    std::unordered_map<const BasicBlock *, bool> CCAtExit;
    for (const auto &Block : F)
      CCAtExit[Block.get()] = true; // optimistic for the fixpoint
    const PredecessorMap Preds = predecessorMap(F);

    // Entry state of a reachable block: it has at least one reachable
    // predecessor and all of them provide CC.
    auto ccOnEntry = [&](const BasicBlock &Block) {
      if (&Block == &F.getEntryBlock())
        return false;
      bool AnyPred = false;
      bool Entry = true;
      for (const BasicBlock *Pred : Preds.at(&Block)) {
        if (!Reachable.count(Pred))
          continue;
        AnyPred = true;
        Entry = Entry && CCAtExit[Pred];
      }
      return AnyPred && Entry;
    };

    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const auto &Block : F) {
        if (!Reachable.count(Block.get()))
          continue;
        bool Exit = ccOnEntry(*Block);
        for (const auto &Inst : *Block)
          if (Inst->writesCC())
            Exit = true;
        if (Exit != CCAtExit[Block.get()]) {
          CCAtExit[Block.get()] = Exit;
          Changed = true;
        }
      }
    }

    for (const auto &Block : F) {
      if (!Reachable.count(Block.get()))
        continue;
      const Instruction *Term = Block->getTerminator();
      if (!Term || !Term->readsCC())
        continue;
      bool SetLocally = false;
      for (const auto &Inst : *Block)
        if (Inst->writesCC())
          SetLocally = true;
      if (SetLocally)
        continue;
      if (!ccOnEntry(*Block))
        fail(Block->getLabel() +
             " ends in a conditional branch with no dominating cmp");
    }
  }

  const Function &F;
  std::string *Errors;
  bool Ok = true;
};

} // namespace

bool bropt::verifyFunction(const Function &F, std::string *Errors) {
  return VerifierImpl(F, Errors).run();
}

bool bropt::verifyModule(const Module &M, std::string *Errors) {
  bool Ok = true;
  for (const auto &F : M)
    Ok &= verifyFunction(*F, Errors);
  return Ok;
}
