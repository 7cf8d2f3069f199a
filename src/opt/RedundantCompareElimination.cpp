//===- opt/RedundantCompareElimination.cpp - Remove recomputed compares ---===//
//
// Implements the clean-up from paper Figure 9: after reordering, adjacent
// range conditions often compare the same register to the same constant; the
// second comparison recomputes condition codes that are already set, and can
// be deleted.  Two cases:
//
//  (1) within a block, a Cmp identical to an earlier Cmp with no intervening
//      redefinition of the compared registers (the intervening instructions
//      cannot write condition codes — only Cmp does — and an intervening Cmp
//      resets the chain);
//
//  (2) a Cmp at the head of a block all of whose predecessors end with an
//      identical Cmp immediately before their terminator.
//
//===----------------------------------------------------------------------===//

#include "ir/CFG.h"
#include "opt/Passes.h"

using namespace bropt;

namespace {

/// \returns true if \p Inst redefines any register that \p Cmp reads.
bool clobbersCompare(const Instruction &Inst, const CmpInst &Cmp) {
  auto Def = Inst.getDef();
  if (!Def)
    return false;
  return Cmp.getLhs().isRegister(*Def) || Cmp.getRhs().isRegister(*Def);
}

/// \returns the trailing compare of \p Block if its last two instructions
/// are [Cmp, terminator], else null.
const CmpInst *trailingCompare(const BasicBlock &Block) {
  if (Block.size() < 2)
    return nullptr;
  return dyn_cast<CmpInst>(Block.getInstruction(Block.size() - 2));
}

/// True if \p B consumes condition codes set by a predecessor.
bool needsCCOnEntry(const BasicBlock *B) {
  for (const auto &Inst : *B) {
    if (Inst->writesCC())
      return false;
    if (Inst->readsCC())
      return true;
  }
  return false;
}

/// Paper Figure 9: a relational test admits two encodings — v < c is
/// v <= c-1, v >= c is v > c-1, and so on.  If the trailing compare of
/// \p Pred can be re-encoded to test \p WantedConst (adjusting the branch
/// predicate to preserve the outcome), do so and return true.  Only legal
/// when the branch is the compare's sole consumer apart from \p Beneficiary:
/// any other successor inheriting the condition codes would observe the
/// changed constant.
bool reencodeTrailingCompare(BasicBlock &Pred, int64_t WantedConst,
                             const BasicBlock *Beneficiary) {
  if (Pred.size() < 2)
    return false;
  auto *Cmp = dyn_cast<CmpInst>(Pred.getInstruction(Pred.size() - 2));
  auto *Br = dyn_cast<CondBrInst>(Pred.getTerminator());
  if (!Cmp || !Br || !Cmp->getLhs().isReg() || !Cmp->getRhs().isImm())
    return false;
  for (BasicBlock *Succ : Pred.successors())
    if (Succ != Beneficiary && needsCCOnEntry(Succ))
      return false;

  int64_t C = Cmp->getRhs().getImm();
  CondCode PredCode = Br->getPred();
  // (C, <) == (C-1, <=); (C, <=) == (C+1, <); and the mirrored forms.
  CondCode NewPred;
  if (PredCode == CondCode::LT && WantedConst == C - 1)
    NewPred = CondCode::LE;
  else if (PredCode == CondCode::LE && C != INT64_MAX &&
           WantedConst == C + 1)
    NewPred = CondCode::LT;
  else if (PredCode == CondCode::GT && C != INT64_MAX &&
           WantedConst == C + 1)
    NewPred = CondCode::GE;
  else if (PredCode == CondCode::GE && WantedConst == C - 1)
    NewPred = CondCode::GT;
  else
    return false;
  Cmp->setRhs(Operand::imm(WantedConst));
  Br->setPred(NewPred);
  return true;
}

} // namespace

bool bropt::eliminateRedundantCompares(Function &F) {
  // Neither case changes an edge, so one map serves the whole walk.
  const PredecessorMap Preds = predecessorMap(F);
  bool Changed = false;

  for (auto &Block : F) {
    // Case 1: duplicates within the block.
    const CmpInst *Active = nullptr;
    for (size_t Index = 0; Index < Block->size();) {
      Instruction *Inst = Block->getInstruction(Index);
      if (auto *Cmp = dyn_cast<CmpInst>(Inst)) {
        if (Active && Cmp->isIdenticalTo(*Active)) {
          Block->removeAt(Index);
          Changed = true;
          continue;
        }
        Active = Cmp;
        ++Index;
        continue;
      }
      if (Inst->getKind() == InstKind::Call) {
        // Calls clobber condition codes on a real machine; model that.
        Active = nullptr;
      } else if (Active && clobbersCompare(*Inst, *Active)) {
        Active = nullptr;
      }
      ++Index;
    }

    // Case 2: the block's first instruction recomputes what every
    // predecessor just computed.
    if (Block->empty() || Block.get() == &F.getEntryBlock())
      continue;
    auto *LeadCmp = dyn_cast<CmpInst>(&Block->front());
    const std::vector<BasicBlock *> &BlockPreds = Preds.at(Block.get());
    if (!LeadCmp || BlockPreds.empty())
      continue;

    // Figure 9 re-encoding: when a predecessor's trailing compare tests
    // the same register against an adjacent constant, rewrite it (and its
    // branch) to test this block's constant, making this block's compare
    // redundant.  All predecessors must end up identical.
    if (LeadCmp->getLhs().isReg() && LeadCmp->getRhs().isImm()) {
      for (BasicBlock *Pred : BlockPreds) {
        const CmpInst *PredCmp = trailingCompare(*Pred);
        if (!PredCmp || PredCmp->isIdenticalTo(*LeadCmp))
          continue;
        if (PredCmp->getLhs() == LeadCmp->getLhs() &&
            PredCmp->getRhs().isImm() &&
            reencodeTrailingCompare(*Pred, LeadCmp->getRhs().getImm(),
                                    Block.get()))
          Changed = true;
      }
    }

    // Removal: every predecessor provides identical condition codes.
    bool AllPredsProvide = true;
    for (const BasicBlock *Pred : BlockPreds) {
      const CmpInst *PredCmp = trailingCompare(*Pred);
      if (!PredCmp || !PredCmp->isIdenticalTo(*LeadCmp)) {
        AllPredsProvide = false;
        break;
      }
    }
    if (AllPredsProvide) {
      Block->removeAt(0);
      Changed = true;
    }
  }
  return Changed;
}
