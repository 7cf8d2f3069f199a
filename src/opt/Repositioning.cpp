//===- opt/Repositioning.cpp - Fall-through-maximizing code layout ---------===//
//
// Two layout strategies share one back end here.  repositionCode lays
// blocks out greedily along static fall-through chains — what vpo's code
// repositioning achieves with no profile.  repositionCodeExtTsp replaces
// that heuristic with an ext-TSP-style layout (Newell & Pupyrev, "Improved
// Basic Block Reordering"): chains are merged along the *measured*
// heaviest edges, ordered by junction weight, and the result is kept only
// if it satisfies at least as much fall-through weight as the incumbent
// order, so it is never worse than hot-first by construction.
//
// Both end the same way: invert conditional branches when the taken
// successor is the layout successor, insert trampoline jumps when neither
// successor can be adjacent, and flag jumps to the next block as free
// fall-throughs.  This models real machine code, so the simulator's jump
// counts are faithful (the paper's transformation goes out of its way not
// to add unconditional jumps — Figure 10d duplicates the default target
// instead).
//
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include "cost/BranchCostModel.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

using namespace bropt;

namespace {

/// \returns the successor we would most like to place right after \p Block.
BasicBlock *preferredSuccessor(BasicBlock *Block) {
  Instruction *Term = Block->getTerminator();
  if (!Term)
    return nullptr;
  if (auto *Br = dyn_cast<CondBrInst>(Term))
    return Br->getFallThrough();
  if (auto *Jump = dyn_cast<JumpInst>(Term))
    return Jump->getTarget();
  return nullptr;
}

/// Second choice: the taken successor of a conditional branch (we can
/// invert the branch to make it the fall-through).
BasicBlock *alternateSuccessor(BasicBlock *Block) {
  if (auto *Br = dyn_cast<CondBrInst>(Block->getTerminator()))
    return Br->getTaken();
  return nullptr;
}

/// True if layout can make the \p From -> \p To edge a free fall-through:
/// either successor of a conditional branch qualifies (the branch can be
/// inverted), and so does a jump's target (phase 3 flags it free).
bool canFallThrough(const BasicBlock *From, const BasicBlock *To) {
  const Instruction *Term = From->getTerminator();
  if (!Term)
    return false;
  if (const auto *Br = dyn_cast<CondBrInst>(Term))
    return Br->getTaken() == To || Br->getFallThrough() == To;
  if (const auto *Jump = dyn_cast<JumpInst>(Term))
    return Jump->getTarget() == To;
  return false;
}

/// Fall-through weight of an explicit block order (see
/// layoutFallThroughWeight).
uint64_t orderFallThroughWeight(const std::vector<BasicBlock *> &Order,
                                const EdgeWeightMap &Weights) {
  uint64_t Total = 0;
  for (size_t Index = 0; Index + 1 < Order.size(); ++Index)
    if (canFallThrough(Order[Index], Order[Index + 1]))
      Total += Weights.weight(Order[Index]->getId(),
                              Order[Index + 1]->getId());
  return Total;
}

/// Phases shared by both layout strategies: make every conditional
/// branch's fall-through edge physical (inverting or adding trampolines),
/// then flag layout-satisfied jumps as free.  \returns true if any jump
/// flag changed (repositionCode's historical change signal).
bool materializeFallThroughs(Function &F) {
  // Iterate by index because trampoline insertion grows the block list.
  for (size_t Index = 0; Index < F.size(); ++Index) {
    BasicBlock *Block = F.getBlock(Index);
    auto *Br = dyn_cast<CondBrInst>(Block->getTerminator());
    if (!Br)
      continue;
    BasicBlock *Next = F.getNextBlock(Block);
    if (Br->getFallThrough() == Next)
      continue;
    if (Br->getTaken() == Next) {
      Br->invert();
      continue;
    }
    // Neither successor is adjacent: route the fall-through edge through a
    // trampoline jump placed right behind the branch.
    BasicBlock *Trampoline = F.createBlockAfter(Block, "tramp");
    Trampoline->append(std::make_unique<JumpInst>(Br->getFallThrough()));
    Br->setFallThrough(Trampoline);
  }

  bool Changed = false;
  for (auto &Block : F) {
    auto *Jump = dyn_cast<JumpInst>(Block->getTerminator());
    if (!Jump)
      continue;
    bool IsAdjacent = F.getNextBlock(Block.get()) == Jump->getTarget();
    if (Jump->isFallThrough() != IsAdjacent) {
      Jump->setIsFallThrough(IsAdjacent);
      Changed = true;
    }
  }
  return Changed;
}

} // namespace

bool bropt::repositionCode(Function &F) {
  if (F.empty())
    return false;

  // Phase 1: greedy chain placement.
  std::vector<BasicBlock *> Order;
  std::unordered_set<BasicBlock *> Placed;
  std::vector<BasicBlock *> Original;
  for (auto &Block : F)
    Original.push_back(Block.get());

  BasicBlock *Current = &F.getEntryBlock();
  size_t NextFresh = 0;
  while (Order.size() < Original.size()) {
    if (!Current) {
      while (NextFresh < Original.size() && Placed.count(Original[NextFresh]))
        ++NextFresh;
      if (NextFresh == Original.size())
        break;
      Current = Original[NextFresh];
    }
    Order.push_back(Current);
    Placed.insert(Current);
    BasicBlock *Next = preferredSuccessor(Current);
    if (Next && !Placed.count(Next)) {
      Current = Next;
      continue;
    }
    Next = alternateSuccessor(Current);
    Current = (Next && !Placed.count(Next)) ? Next : nullptr;
  }
  F.setLayout(Order);

  return materializeFallThroughs(F);
}

uint64_t bropt::layoutFallThroughWeight(const Function &F,
                                        const EdgeWeightMap &Weights) {
  uint64_t Total = 0;
  const BasicBlock *Prev = nullptr;
  for (const auto &Block : F) {
    if (Prev && canFallThrough(Prev, Block.get()))
      Total += Weights.weight(Prev->getId(), Block->getId());
    Prev = Block.get();
  }
  return Total;
}

bool bropt::repositionCodeExtTsp(Function &F, const EdgeWeightMap &Weights,
                                 LayoutStats *Stats) {
  if (F.empty())
    return false;

  std::vector<BasicBlock *> Incumbent;
  for (auto &Block : F)
    Incumbent.push_back(Block.get());
  BasicBlock *Entry = &F.getEntryBlock();

  // Candidate edges: every measured transition the layout could turn into
  // a fall-through.  Sorted heaviest first; ties break on stable block ids
  // so the result is deterministic.
  struct CandidateEdge {
    BasicBlock *From;
    BasicBlock *To;
    uint64_t Weight;
  };
  std::vector<CandidateEdge> Edges;
  for (BasicBlock *Block : Incumbent) {
    Instruction *Term = Block->getTerminator();
    if (!Term)
      continue;
    std::vector<BasicBlock *> Targets;
    if (auto *Br = dyn_cast<CondBrInst>(Term)) {
      Targets.push_back(Br->getFallThrough());
      Targets.push_back(Br->getTaken());
    } else if (auto *Jump = dyn_cast<JumpInst>(Term)) {
      Targets.push_back(Jump->getTarget());
    }
    for (BasicBlock *Target : Targets) {
      if (Target == Block || Target == Entry)
        continue;
      uint64_t W = Weights.weight(Block->getId(), Target->getId());
      if (W > 0)
        Edges.push_back({Block, Target, W});
    }
  }
  std::sort(Edges.begin(), Edges.end(),
            [](const CandidateEdge &A, const CandidateEdge &B) {
              if (A.Weight != B.Weight)
                return A.Weight > B.Weight;
              if (A.From->getId() != B.From->getId())
                return A.From->getId() < B.From->getId();
              return A.To->getId() < B.To->getId();
            });

  // Greedy chain merging: an edge joins two chains when its source is a
  // chain tail and its destination a chain head.
  std::vector<std::vector<BasicBlock *>> Chains;
  std::unordered_map<BasicBlock *, size_t> ChainOf;
  for (BasicBlock *Block : Incumbent) {
    ChainOf[Block] = Chains.size();
    Chains.push_back({Block});
  }
  unsigned Merged = 0;
  for (const CandidateEdge &Edge : Edges) {
    size_t FromChain = ChainOf[Edge.From];
    size_t ToChain = ChainOf[Edge.To];
    if (FromChain == ToChain)
      continue;
    if (Chains[FromChain].back() != Edge.From ||
        Chains[ToChain].front() != Edge.To)
      continue;
    for (BasicBlock *Block : Chains[ToChain])
      ChainOf[Block] = FromChain;
    Chains[FromChain].insert(Chains[FromChain].end(),
                             Chains[ToChain].begin(), Chains[ToChain].end());
    Chains[ToChain].clear();
    ++Merged;
  }

  // Chain concatenation with one-edge lookahead: starting from the entry
  // chain, repeatedly append the chain whose head receives the most weight
  // from the current tail; with no weighted junction, fall back to the
  // chain earliest in the incumbent layout (preserving hot-first's cold
  // ordering).
  std::unordered_map<BasicBlock *, size_t> IncumbentIndex;
  for (size_t Index = 0; Index < Incumbent.size(); ++Index)
    IncumbentIndex[Incumbent[Index]] = Index;

  size_t EntryChain = ChainOf[Entry];
  std::vector<size_t> Pending;
  for (size_t Index = 0; Index < Chains.size(); ++Index)
    if (!Chains[Index].empty() && Index != EntryChain)
      Pending.push_back(Index);

  std::vector<BasicBlock *> Candidate;
  Candidate.insert(Candidate.end(), Chains[EntryChain].begin(),
                   Chains[EntryChain].end());
  while (!Pending.empty()) {
    BasicBlock *Tail = Candidate.back();
    size_t BestPos = 0;
    uint64_t BestWeight = 0;
    size_t BestIncumbent = SIZE_MAX;
    for (size_t Pos = 0; Pos < Pending.size(); ++Pos) {
      BasicBlock *Head = Chains[Pending[Pos]].front();
      uint64_t W = canFallThrough(Tail, Head)
                       ? Weights.weight(Tail->getId(), Head->getId())
                       : 0;
      size_t Orig = IncumbentIndex[Head];
      if (W > BestWeight || (W == BestWeight && Orig < BestIncumbent)) {
        BestWeight = W;
        BestIncumbent = Orig;
        BestPos = Pos;
      }
    }
    size_t Chosen = Pending[BestPos];
    Pending.erase(Pending.begin() + BestPos);
    Candidate.insert(Candidate.end(), Chains[Chosen].begin(),
                     Chains[Chosen].end());
  }

  uint64_t Before = orderFallThroughWeight(Incumbent, Weights);
  uint64_t After = orderFallThroughWeight(Candidate, Weights);

  if (Stats) {
    ++Stats->FunctionsLaidOut;
    Stats->ChainsMerged += Merged;
    Stats->FallThroughWeightBefore += Before;
  }

  // Keep-best via the shared layout tie-break (cost/BranchCostModel.h):
  // the measured order must beat the incumbent strictly, so the
  // profile-guided layout is never worse than what it replaces.
  if (!BranchCostModel::layoutPrefers(static_cast<double>(After),
                                      static_cast<double>(Before))) {
    if (Stats) {
      ++Stats->KeptIncumbent;
      Stats->FallThroughWeightAfter += Before;
    }
    return false;
  }

  unsigned Moved = 0;
  for (size_t Index = 0; Index < Candidate.size(); ++Index)
    if (Candidate[Index] != Incumbent[Index])
      ++Moved;
  if (Stats) {
    Stats->BlocksMoved += Moved;
    Stats->FallThroughWeightAfter += After;
  }

  F.setLayout(Candidate);
  materializeFallThroughs(F);
  return true;
}

bool bropt::applyProfileGuidedLayout(Module &M,
                                     const ModuleEdgeWeights &Weights,
                                     LayoutStats *Stats) {
  bool Changed = false;
  for (auto &F : M) {
    auto It = Weights.find(F->getName());
    if (It == Weights.end() || It->second.empty())
      continue;
    if (repositionCodeExtTsp(*F, It->second, Stats))
      Changed = true;
    notifyPassObserver("ext-tsp-layout", *F);
  }
  return Changed;
}
