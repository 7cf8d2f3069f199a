//===- sim/Decoded.cpp - Flattening a Module into decoded form ------------===//

#include "sim/Decoded.h"

#include "support/Debug.h"

#include <unordered_map>

using namespace bropt;

namespace {

/// Number of decoded instructions a block expands to: one per IR
/// instruction, plus a synthetic TrapFellOff when the block lacks a
/// terminator (matching the tree walker's fell-off-the-end trap).
size_t decodedSize(const BasicBlock &Block) {
  return Block.size() + (Block.hasTerminator() ? 0 : 1);
}

DecodedFunction
decodeFunction(const Function &F, uint32_t Index,
               const std::unordered_map<const Function *, uint32_t> &FuncIndex,
               uint32_t &NextBranchId, uint32_t &NextEdgeSlot,
               std::vector<EdgeSlot> *Edges) {
  DecodedFunction DF;
  DF.FuncIndex = Index;
  DF.Name = F.getName();
  DF.NumParams = F.getNumParams();
  DF.NumRegs = F.getNumRegs();
  DF.HasBody = !F.empty();
  if (!DF.HasBody)
    return DF;

  // Pass 1: assign every block its start index in the flat array.
  std::unordered_map<const BasicBlock *, uint32_t> BlockStart;
  uint32_t NextIndex = 0;
  for (const auto &Block : F) {
    BlockStart.emplace(Block.get(), NextIndex);
    NextIndex += static_cast<uint32_t>(decodedSize(*Block));
  }
  DF.Insts.reserve(NextIndex);

  auto startOf = [&](const BasicBlock *Block) {
    auto It = BlockStart.find(Block);
    assert(It != BlockStart.end() && "branch to a block outside the function");
    return It->second;
  };

  // Registers take frame slots [0, NumRegs); immediates are interned into
  // the constant pool occupying the slots after them.
  std::unordered_map<int64_t, uint32_t> ConstSlot;
  auto decodeOperand = [&](const Operand &Op) {
    DecodedOperand Result;
    if (Op.isImm()) {
      auto [It, Inserted] = ConstSlot.try_emplace(
          Op.getImm(),
          static_cast<uint32_t>(DF.NumRegs + DF.Constants.size()));
      if (Inserted)
        DF.Constants.push_back(Op.getImm());
      Result.Slot = It->second;
    } else {
      assert(Op.isReg() && "decoding a none operand");
      Result.Slot = Op.getReg();
    }
    return Result;
  };

  // Pass 2: decode, in the same module/block/instruction order the tree
  // interpreter numbers branches in, so branch ids line up.
  for (const auto &Block : F) {
    // Hands the next edge slot to a transfer from Block into \p Target.
    auto edgeSlot = [&](const BasicBlock *Target) {
      if (Edges)
        Edges->push_back(EdgeSlot{Index, Block->getId(), Target->getId()});
      return NextEdgeSlot++;
    };
    for (const auto &Inst : *Block) {
      DecodedInst DI;
      switch (Inst->getKind()) {
      case InstKind::Move: {
        const auto *Move = cast<MoveInst>(Inst.get());
        DI.Op = DecodedOp::Move;
        DI.Dest = Move->getDest();
        DI.A = decodeOperand(Move->getSrc());
        break;
      }
      case InstKind::Binary: {
        const auto *Bin = cast<BinaryInst>(Inst.get());
        DI.Op = DecodedOp::Binary;
        DI.SubOp = static_cast<uint8_t>(Bin->getOp());
        DI.Dest = Bin->getDest();
        DI.A = decodeOperand(Bin->getLhs());
        DI.B = decodeOperand(Bin->getRhs());
        break;
      }
      case InstKind::Unary: {
        const auto *Un = cast<UnaryInst>(Inst.get());
        DI.Op = DecodedOp::Unary;
        DI.SubOp = static_cast<uint8_t>(Un->getOp());
        DI.Dest = Un->getDest();
        DI.A = decodeOperand(Un->getSrc());
        break;
      }
      case InstKind::Load: {
        const auto *Load = cast<LoadInst>(Inst.get());
        DI.Op = DecodedOp::Load;
        DI.Dest = Load->getDest();
        DI.A = decodeOperand(Load->getBase());
        DI.Imm = Load->getOffset();
        break;
      }
      case InstKind::Store: {
        const auto *Store = cast<StoreInst>(Inst.get());
        DI.Op = DecodedOp::Store;
        DI.A = decodeOperand(Store->getBase());
        DI.B = decodeOperand(Store->getValue());
        DI.Imm = Store->getOffset();
        break;
      }
      case InstKind::Cmp: {
        const auto *Cmp = cast<CmpInst>(Inst.get());
        DI.Op = DecodedOp::Cmp;
        DI.A = decodeOperand(Cmp->getLhs());
        DI.B = decodeOperand(Cmp->getRhs());
        break;
      }
      case InstKind::Call: {
        const auto *Call = cast<CallInst>(Inst.get());
        DI.Op = DecodedOp::Call;
        DI.Dest = Call->getDef() ? *Call->getDef() : DecodedInst::NoReg;
        auto It = FuncIndex.find(Call->getCallee());
        assert(It != FuncIndex.end() && "call to a function outside module");
        DI.Target0 = It->second;
        DI.Extra = static_cast<uint32_t>(DF.CallArgs.size());
        DI.ExtraCount = static_cast<uint32_t>(Call->getArgs().size());
        for (const Operand &Arg : Call->getArgs())
          DF.CallArgs.push_back(decodeOperand(Arg));
        break;
      }
      case InstKind::ReadChar:
        DI.Op = DecodedOp::ReadChar;
        DI.Dest = cast<ReadCharInst>(Inst.get())->getDest();
        break;
      case InstKind::PutChar:
        DI.Op = DecodedOp::PutChar;
        DI.A = decodeOperand(cast<PutCharInst>(Inst.get())->getSrc());
        break;
      case InstKind::PrintInt:
        DI.Op = DecodedOp::PrintInt;
        DI.A = decodeOperand(cast<PrintIntInst>(Inst.get())->getSrc());
        break;
      case InstKind::Profile: {
        const auto *Prof = cast<ProfileInst>(Inst.get());
        DI.Op = DecodedOp::Profile;
        DI.Dest = Prof->getSequenceId();
        DI.A = DecodedOperand{Prof->getValueReg()};
        break;
      }
      case InstKind::ComboProfile: {
        const auto *Prof = cast<ComboProfileInst>(Inst.get());
        DI.Op = DecodedOp::ComboProfile;
        DI.Dest = Prof->getSequenceId();
        DI.Extra = static_cast<uint32_t>(DF.Conditions.size());
        DI.ExtraCount = static_cast<uint32_t>(Prof->getConditions().size());
        for (const ComboProfileInst::Condition &Cond : Prof->getConditions())
          DF.Conditions.push_back(DecodedCondition{decodeOperand(Cond.Lhs),
                                                   decodeOperand(Cond.Rhs),
                                                   Cond.Pred});
        break;
      }
      case InstKind::CondBr: {
        const auto *Br = cast<CondBrInst>(Inst.get());
        DI.Op = DecodedOp::CondBr;
        DI.SubOp = static_cast<uint8_t>(Br->getPred());
        DI.Dest = NextBranchId++;
        DI.Target0 = startOf(Br->getTaken());
        DI.Target1 = startOf(Br->getFallThrough());
        DI.Imm = edgeSlot(Br->getTaken());
        edgeSlot(Br->getFallThrough());
        break;
      }
      case InstKind::Jump: {
        const auto *Jump = cast<JumpInst>(Inst.get());
        DI.Op = Jump->isFallThrough() ? DecodedOp::FallThrough
                                      : DecodedOp::Jump;
        DI.Target0 = startOf(Jump->getTarget());
        DI.Imm = edgeSlot(Jump->getTarget());
        break;
      }
      case InstKind::Switch: {
        const auto *Sw = cast<SwitchInst>(Inst.get());
        DI.Op = DecodedOp::Switch;
        DI.A = decodeOperand(Sw->getValue());
        DI.Target0 = startOf(Sw->getDefault());
        DI.Extra = static_cast<uint32_t>(DF.Cases.size());
        DI.ExtraCount = static_cast<uint32_t>(Sw->getCases().size());
        DI.Imm = NextEdgeSlot;
        for (const SwitchInst::Case &Case : Sw->getCases()) {
          DF.Cases.push_back(DecodedCase{Case.Value, startOf(Case.Target)});
          edgeSlot(Case.Target);
        }
        edgeSlot(Sw->getDefault());
        break;
      }
      case InstKind::IndirectJump: {
        const auto *Ind = cast<IndirectJumpInst>(Inst.get());
        DI.Op = DecodedOp::IndirectJump;
        DI.A = decodeOperand(Ind->getIndex());
        DI.Extra = static_cast<uint32_t>(DF.JumpTables.size());
        DI.ExtraCount = static_cast<uint32_t>(Ind->getTable().size());
        DI.Imm = NextEdgeSlot;
        for (const BasicBlock *Target : Ind->getTable()) {
          DF.JumpTables.push_back(startOf(Target));
          edgeSlot(Target);
        }
        break;
      }
      case InstKind::Ret: {
        const auto *Ret = cast<RetInst>(Inst.get());
        DI.Op = DecodedOp::Ret;
        DI.SubOp = Ret->hasValue() ? 1 : 0;
        if (Ret->hasValue())
          DI.A = decodeOperand(Ret->getValue());
        break;
      }
      }
      DF.Insts.push_back(DI);
    }
    if (!Block->hasTerminator()) {
      DecodedInst DI;
      DI.Op = DecodedOp::TrapFellOff;
      DI.Dest = static_cast<uint32_t>(DF.Labels.size());
      DF.Labels.push_back(Block->getLabel());
      DF.Insts.push_back(DI);
    }
  }
  assert(DF.Insts.size() == NextIndex && "block start indices out of sync");
  return DF;
}

} // namespace

DecodedModule DecodedModule::decode(const Module &M,
                                    std::vector<EdgeSlot> *Edges) {
  DecodedModule DM;
  std::unordered_map<const Function *, uint32_t> FuncIndex;
  uint32_t Next = 0;
  for (const auto &F : M)
    FuncIndex.emplace(F.get(), Next++);

  DM.Functions.reserve(FuncIndex.size());
  uint32_t NextBranchId = 0, NextEdgeSlot = 0;
  for (const auto &F : M) {
    const auto Index = static_cast<uint32_t>(DM.Functions.size());
    DM.Index.emplace(F->getName(), Index);
    DM.Functions.push_back(decodeFunction(*F, Index, FuncIndex, NextBranchId,
                                          NextEdgeSlot, Edges));
  }
  DM.NumBranchIds = NextBranchId;
  return DM;
}
