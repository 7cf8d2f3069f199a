//===- opt/ConstantFolding.cpp - Constant folding and simplification ------===//

#include "ir/IRBuilder.h"
#include "opt/Passes.h"
#include "support/Debug.h"

#include <optional>

using namespace bropt;

namespace {

std::optional<int64_t> foldBinaryOp(BinaryOp Op, int64_t L, int64_t R) {
  uint64_t UL = static_cast<uint64_t>(L), UR = static_cast<uint64_t>(R);
  switch (Op) {
  case BinaryOp::Add:
    return static_cast<int64_t>(UL + UR);
  case BinaryOp::Sub:
    return static_cast<int64_t>(UL - UR);
  case BinaryOp::Mul:
    return static_cast<int64_t>(UL * UR);
  case BinaryOp::Div:
    if (R == 0 || (L == INT64_MIN && R == -1))
      return std::nullopt; // preserve the trap
    return L / R;
  case BinaryOp::Rem:
    if (R == 0 || (L == INT64_MIN && R == -1))
      return std::nullopt;
    return L % R;
  case BinaryOp::And:
    return L & R;
  case BinaryOp::Or:
    return L | R;
  case BinaryOp::Xor:
    return L ^ R;
  case BinaryOp::Shl:
    return static_cast<int64_t>(UL << (UR & 63));
  case BinaryOp::Shr:
    return L >> (UR & 63);
  }
  BROPT_UNREACHABLE("unknown binary op");
}

/// Algebraic identities that turn a BinaryInst into a Move.
std::optional<Operand> simplifyBinary(const BinaryInst &Bin) {
  Operand Lhs = Bin.getLhs(), Rhs = Bin.getRhs();
  bool RhsZero = Rhs.isImm() && Rhs.getImm() == 0;
  bool RhsOne = Rhs.isImm() && Rhs.getImm() == 1;
  bool LhsZero = Lhs.isImm() && Lhs.getImm() == 0;
  switch (Bin.getOp()) {
  case BinaryOp::Add:
    if (RhsZero)
      return Lhs;
    if (LhsZero)
      return Rhs;
    return std::nullopt;
  case BinaryOp::Sub:
    if (RhsZero)
      return Lhs;
    return std::nullopt;
  case BinaryOp::Mul:
    if (RhsOne)
      return Lhs;
    if (Lhs.isImm() && Lhs.getImm() == 1)
      return Rhs;
    return std::nullopt;
  case BinaryOp::Div:
    if (RhsOne)
      return Lhs;
    return std::nullopt;
  case BinaryOp::Or:
  case BinaryOp::Xor:
    if (RhsZero)
      return Lhs;
    if (LhsZero)
      return Rhs;
    return std::nullopt;
  case BinaryOp::Shl:
  case BinaryOp::Shr:
    if (RhsZero)
      return Lhs;
    return std::nullopt;
  default:
    return std::nullopt;
  }
}

} // namespace

bool bropt::foldConstants(Function &F) {
  bool Changed = false;
  for (auto &Block : F) {
    for (size_t Index = 0; Index < Block->size(); ++Index) {
      Instruction *Inst = Block->getInstruction(Index);
      if (auto *Bin = dyn_cast<BinaryInst>(Inst)) {
        if (Bin->getLhs().isImm() && Bin->getRhs().isImm()) {
          auto Folded = foldBinaryOp(Bin->getOp(), Bin->getLhs().getImm(),
                                     Bin->getRhs().getImm());
          if (!Folded)
            continue;
          unsigned Dest = Bin->getDest();
          Block->removeAt(Index);
          Block->insertAt(Index,
                          std::make_unique<MoveInst>(
                              Dest, Operand::imm(*Folded)));
          Changed = true;
          continue;
        }
        if (auto Simplified = simplifyBinary(*Bin)) {
          unsigned Dest = Bin->getDest();
          Block->removeAt(Index);
          Block->insertAt(Index,
                          std::make_unique<MoveInst>(Dest, *Simplified));
          Changed = true;
          continue;
        }
      } else if (auto *Un = dyn_cast<UnaryInst>(Inst)) {
        if (!Un->getSrc().isImm())
          continue;
        int64_t Src = Un->getSrc().getImm();
        int64_t Value =
            Un->getOp() == UnaryOp::Neg
                ? static_cast<int64_t>(-static_cast<uint64_t>(Src))
                : (Src == 0 ? 1 : 0);
        unsigned Dest = Un->getDest();
        Block->removeAt(Index);
        Block->insertAt(Index,
                        std::make_unique<MoveInst>(Dest, Operand::imm(Value)));
        Changed = true;
      }
    }

    // Fold a branch over a constant comparison into a jump.  The Cmp itself
    // is left for DCE (its condition codes may feed other branches).
    Instruction *Term = Block->getTerminator();
    if (!Term || Term->getKind() != InstKind::CondBr || Block->size() < 2)
      continue;
    const auto *Cmp = dyn_cast<CmpInst>(Block->getInstruction(Block->size() - 2));
    if (!Cmp || !Cmp->getLhs().isImm() || !Cmp->getRhs().isImm())
      continue;
    auto *Br = cast<CondBrInst>(Term);
    bool Taken = evalCondCode(Br->getPred(), Cmp->getLhs().getImm(),
                              Cmp->getRhs().getImm());
    BasicBlock *Target = Taken ? Br->getTaken() : Br->getFallThrough();
    size_t TermIndex = Block->size() - 1;
    Block->removeAt(TermIndex);
    Block->insertAt(TermIndex, std::make_unique<JumpInst>(Target));
    Changed = true;
  }
  return Changed;
}
