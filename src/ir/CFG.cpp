//===- ir/CFG.cpp - Control-flow-graph utilities -------------------------===//

#include "ir/CFG.h"

#include "ir/Module.h"
#include "support/Debug.h"

#include <algorithm>

using namespace bropt;

std::unordered_set<const BasicBlock *>
bropt::reachableBlocks(const Function &F) {
  std::unordered_set<const BasicBlock *> Reached;
  if (F.empty())
    return Reached;
  std::vector<const BasicBlock *> Worklist{&F.getEntryBlock()};
  Reached.insert(&F.getEntryBlock());
  while (!Worklist.empty()) {
    const BasicBlock *Block = Worklist.back();
    Worklist.pop_back();
    for (BasicBlock *Succ : Block->successors())
      if (Reached.insert(Succ).second)
        Worklist.push_back(Succ);
  }
  return Reached;
}

namespace {

void postOrderVisit(BasicBlock *Block,
                    std::unordered_set<BasicBlock *> &Visited,
                    std::vector<BasicBlock *> &Order) {
  // Iterative DFS to avoid deep recursion on long block chains.
  struct Frame {
    BasicBlock *Block;
    std::vector<BasicBlock *> Succs;
    size_t NextSucc = 0;
  };
  std::vector<Frame> Stack;
  Stack.push_back({Block, Block->successors()});
  Visited.insert(Block);
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.NextSucc == Top.Succs.size()) {
      Order.push_back(Top.Block);
      Stack.pop_back();
      continue;
    }
    BasicBlock *Succ = Top.Succs[Top.NextSucc++];
    if (Visited.insert(Succ).second)
      Stack.push_back({Succ, Succ->successors()});
  }
}

} // namespace

std::vector<BasicBlock *> bropt::reversePostOrder(Function &F) {
  std::vector<BasicBlock *> Order;
  if (F.empty())
    return Order;
  std::unordered_set<BasicBlock *> Visited;
  postOrderVisit(&F.getEntryBlock(), Visited, Order);
  std::reverse(Order.begin(), Order.end());
  return Order;
}

PredecessorMap bropt::predecessorMap(const Function &F) {
  PredecessorMap Preds;
  for (const auto &Block : F)
    Preds[Block.get()];
  for (const auto &Block : F)
    for (const BasicBlock *Succ : Block->successors())
      Preds[Succ].push_back(Block.get());
  return Preds;
}

BranchNumbering bropt::numberBranches(const Module &M) {
  BranchNumbering Numbering;
  uint32_t NextId = 0;
  for (const auto &F : M) {
    Numbering.FirstId.push_back(NextId);
    for (const auto &Block : *F)
      for (const auto &Inst : *Block)
        if (Inst->getKind() == InstKind::CondBr)
          Numbering.IdOf.emplace(Inst.get(), NextId++);
  }
  Numbering.FirstId.push_back(NextId);
  return Numbering;
}

std::unordered_map<BasicBlock *, BasicBlock *>
bropt::cloneBlocks(Function &F,
                   const std::vector<BasicBlock *> &BlocksToClone) {
  std::unordered_map<BasicBlock *, BasicBlock *> CloneMap;
  for (BasicBlock *Block : BlocksToClone) {
    assert(Block->getParent() == &F && "cloning a block from another function");
    BasicBlock *Clone = F.createBlock(Block->getName());
    CloneMap.emplace(Block, Clone);
    for (const auto &Inst : *Block)
      Clone->append(Inst->clone());
  }
  // Redirect intra-set edges to the clones.
  for (BasicBlock *Block : BlocksToClone) {
    Instruction *Term = CloneMap[Block]->getTerminator();
    if (!Term)
      continue;
    for (unsigned I = 0, E = Term->getNumSuccessors(); I != E; ++I) {
      auto It = CloneMap.find(Term->getSuccessor(I));
      if (It != CloneMap.end())
        Term->setSuccessor(I, It->second);
    }
  }
  return CloneMap;
}

void bropt::replaceAllBranchesTo(Function &F, BasicBlock *From,
                                 BasicBlock *To) {
  for (auto &Block : F) {
    Instruction *Term = Block->getTerminator();
    if (Term)
      Term->replaceSuccessor(From, To);
  }
}
