//===- ir/Function.cpp - Functions ---------------------------------------===//

#include "ir/Function.h"

#include "support/Debug.h"

using namespace bropt;

BasicBlock *Function::createBlock(std::string BlockName) {
  Blocks.push_back(
      std::make_unique<BasicBlock>(this, NextBlockId++, std::move(BlockName)));
  return Blocks.back().get();
}

BasicBlock *Function::createBlockWithId(unsigned Id, std::string BlockName) {
  for ([[maybe_unused]] const auto &Block : Blocks)
    assert(Block->getId() != Id && "block id already in use");
  Blocks.push_back(
      std::make_unique<BasicBlock>(this, Id, std::move(BlockName)));
  if (Id >= NextBlockId)
    NextBlockId = Id + 1;
  return Blocks.back().get();
}

BasicBlock *Function::createBlockAfter(BasicBlock *After,
                                       std::string BlockName) {
  size_t Index = blockIndex(After);
  auto Block =
      std::make_unique<BasicBlock>(this, NextBlockId++, std::move(BlockName));
  BasicBlock *Result = Block.get();
  Blocks.insert(Blocks.begin() + static_cast<ptrdiff_t>(Index) + 1,
                std::move(Block));
  return Result;
}

size_t Function::blockIndex(const BasicBlock *B) const {
  for (size_t Index = 0, E = Blocks.size(); Index != E; ++Index)
    if (Blocks[Index].get() == B)
      return Index;
  BROPT_UNREACHABLE("block not in this function");
}

BasicBlock *Function::getNextBlock(const BasicBlock *B) {
  size_t Index = blockIndex(B);
  if (Index + 1 >= Blocks.size())
    return nullptr;
  return Blocks[Index + 1].get();
}

void Function::moveBlockAfter(BasicBlock *B, BasicBlock *After) {
  assert(B != After && "cannot move a block after itself");
  size_t From = blockIndex(B);
  std::unique_ptr<BasicBlock> Holder = std::move(Blocks[From]);
  Blocks.erase(Blocks.begin() + static_cast<ptrdiff_t>(From));
  size_t To = blockIndex(After);
  Blocks.insert(Blocks.begin() + static_cast<ptrdiff_t>(To) + 1,
                std::move(Holder));
}

void Function::setLayout(const std::vector<BasicBlock *> &Order) {
  assert(Order.size() == Blocks.size() && "layout must cover every block");
  assert(!Order.empty() && Order.front() == Blocks.front().get() &&
         "the entry block must stay first");
  std::vector<std::unique_ptr<BasicBlock>> NewBlocks;
  NewBlocks.reserve(Blocks.size());
  for (BasicBlock *Block : Order) {
    size_t Index = blockIndex(Block);
    assert(Blocks[Index] && "duplicate block in the new layout");
    NewBlocks.push_back(std::move(Blocks[Index]));
  }
  Blocks = std::move(NewBlocks);
}

void Function::eraseBlock(BasicBlock *B) {
  size_t Index = blockIndex(B);
  Blocks.erase(Blocks.begin() + static_cast<ptrdiff_t>(Index));
}

size_t Function::instructionCount() const {
  size_t Count = 0;
  for (const auto &Block : Blocks)
    Count += Block->size();
  return Count;
}

size_t Function::codeSize() const {
  size_t Count = 0;
  for (const auto &Block : Blocks)
    for (const auto &Inst : *Block) {
      if (Inst->getKind() == InstKind::Profile)
        continue;
      if (const auto *Jump = dyn_cast<JumpInst>(Inst.get()))
        if (Jump->isFallThrough())
          continue;
      ++Count;
    }
  return Count;
}
