//===- opt/SwitchLowering.cpp - Heuristic switch translation ---------------===//

#include "opt/SwitchLowering.h"

#include "ir/IRBuilder.h"
#include "opt/Passes.h"
#include "support/Debug.h"

#include <algorithm>

using namespace bropt;

const char *bropt::switchHeuristicSetName(SwitchHeuristicSet Set) {
  switch (Set) {
  case SwitchHeuristicSet::SetI:
    return "I";
  case SwitchHeuristicSet::SetII:
    return "II";
  case SwitchHeuristicSet::SetIII:
    return "III";
  case SwitchHeuristicSet::SetIV:
    return "IV";
  }
  BROPT_UNREACHABLE("unknown heuristic set");
}

SwitchShape bropt::classifySwitch(SwitchHeuristicSet Set, size_t NumCases,
                                  uint64_t Span) {
  // Density rule from the pcc heuristics (paper Table 2): a jump table is
  // worthwhile when the value span is at most three times the case count.
  bool Dense = Span <= 3 * static_cast<uint64_t>(NumCases);
  switch (Set) {
  case SwitchHeuristicSet::SetI:
    if (NumCases >= 4 && Dense)
      return SwitchShape::JumpTable;
    if (NumCases >= 8)
      return SwitchShape::BinarySearch;
    return SwitchShape::LinearSearch;
  case SwitchHeuristicSet::SetII:
    if (NumCases >= 16 && Dense)
      return SwitchShape::JumpTable;
    if (NumCases >= 8)
      return SwitchShape::BinarySearch;
    return SwitchShape::LinearSearch;
  case SwitchHeuristicSet::SetIII:
    return SwitchShape::LinearSearch;
  case SwitchHeuristicSet::SetIV:
    // Maximum detector exposure, like Set III; the optimal comparison
    // tree (or a profile-chosen jump table) is rebuilt in pass 2 where
    // the range counts exist.
    return SwitchShape::LinearSearch;
  }
  BROPT_UNREACHABLE("unknown heuristic set");
}

namespace {

class SwitchExpander {
public:
  SwitchExpander(Function &F, SwitchHeuristicSet Set,
                 SwitchLoweringStats *Stats)
      : F(F), Set(Set), Stats(Stats) {}

  bool run() {
    bool Changed = false;
    // Collect first: expansion adds blocks.
    std::vector<BasicBlock *> WithSwitch;
    for (auto &Block : F)
      if (Block->hasTerminator() &&
          Block->getTerminator()->getKind() == InstKind::Switch)
        WithSwitch.push_back(Block.get());
    for (BasicBlock *Block : WithSwitch) {
      expand(Block);
      Changed = true;
    }
    return Changed;
  }

private:
  void expand(BasicBlock *Block) {
    auto Switch = Block->removeAt(Block->size() - 1);
    const auto *Sw = cast<SwitchInst>(Switch.get());
    Operand Value = Sw->getValue();
    BasicBlock *Default = Sw->getDefault();

    std::vector<SwitchInst::Case> Cases = Sw->getCases();
    std::sort(Cases.begin(), Cases.end(),
              [](const SwitchInst::Case &A, const SwitchInst::Case &B) {
                return A.Value < B.Value;
              });

    IRBuilder Builder(Block);
    if (Cases.empty()) {
      Builder.emitJump(Default);
      return;
    }

    // A constant selector folds to a direct jump.
    if (Value.isImm()) {
      BasicBlock *Target = Default;
      for (const SwitchInst::Case &Case : Cases)
        if (Case.Value == Value.getImm())
          Target = Case.Target;
      Builder.emitJump(Target);
      return;
    }

    uint64_t Span = static_cast<uint64_t>(Cases.back().Value) -
                    static_cast<uint64_t>(Cases.front().Value) + 1;
    switch (classifySwitch(Set, Cases.size(), Span)) {
    case SwitchShape::JumpTable:
      if (Stats)
        ++Stats->JumpTables;
      emitJumpTable(Block, Value, Cases, Default);
      return;
    case SwitchShape::BinarySearch:
      if (Stats)
        ++Stats->BinarySearches;
      emitBinarySearch(Block, Value, Cases, 0, Cases.size(), Default);
      return;
    case SwitchShape::LinearSearch:
      if (Stats)
        ++Stats->LinearSearches;
      emitLinearChain(Block, Value, Cases, 0, Cases.size(), Default);
      return;
    }
    BROPT_UNREACHABLE("unknown switch shape");
  }

  /// Emits eq-tests for Cases[Begin, End) starting in \p Block; control
  /// falls through to \p Default when none matches.
  void emitLinearChain(BasicBlock *Block, Operand Value,
                       const std::vector<SwitchInst::Case> &Cases,
                       size_t Begin, size_t End, BasicBlock *Default) {
    assert(Begin < End && "empty linear chain");
    IRBuilder Builder(Block);
    for (size_t Index = Begin; Index != End; ++Index) {
      bool Last = Index + 1 == End;
      BasicBlock *Next =
          Last ? Default : F.createBlockAfter(Block, "case.next");
      Builder.emitCmp(Value, Operand::imm(Cases[Index].Value));
      Builder.emitCondBr(CondCode::EQ, Cases[Index].Target, Next);
      Block = Next;
      Builder.setInsertionPoint(Block);
    }
  }

  /// Emits a binary-search tree over Cases[Begin, End) starting in
  /// \p Block.  Small partitions degenerate to linear chains, mirroring
  /// what compilers emit at the leaves.
  void emitBinarySearch(BasicBlock *Block, Operand Value,
                        const std::vector<SwitchInst::Case> &Cases,
                        size_t Begin, size_t End, BasicBlock *Default) {
    size_t Count = End - Begin;
    if (Count <= 3) {
      emitLinearChain(Block, Value, Cases, Begin, End, Default);
      return;
    }
    size_t Mid = Begin + Count / 2;
    IRBuilder Builder(Block);
    // cmp v,c; beq case; then reuse the condition codes for the direction
    // test — one comparison feeds both branches, as on SPARC.
    Builder.emitCmp(Value, Operand::imm(Cases[Mid].Value));
    BasicBlock *Direction = F.createBlockAfter(Block, "bsearch.dir");
    Builder.emitCondBr(CondCode::EQ, Cases[Mid].Target, Direction);
    BasicBlock *Left = F.createBlockAfter(Direction, "bsearch.lt");
    BasicBlock *Right = F.createBlockAfter(Left, "bsearch.ge");
    Builder.setInsertionPoint(Direction);
    Builder.emitCondBr(CondCode::LT, Left, Right);
    emitBinarySearch(Left, Value, Cases, Begin, Mid, Default);
    emitBinarySearch(Right, Value, Cases, Mid + 1, End, Default);
  }

  /// Emits a bounds-checked indirect jump through a dense table.
  void emitJumpTable(BasicBlock *Block, Operand Value,
                     const std::vector<SwitchInst::Case> &Cases,
                     BasicBlock *Default) {
    int64_t Lo = Cases.front().Value;
    int64_t Hi = Cases.back().Value;
    IRBuilder Builder(Block);
    Builder.emitCmp(Value, Operand::imm(Lo));
    BasicBlock *HighCheck = F.createBlockAfter(Block, "jt.high");
    Builder.emitCondBr(CondCode::LT, Default, HighCheck);
    Builder.setInsertionPoint(HighCheck);
    Builder.emitCmp(Value, Operand::imm(Hi));
    BasicBlock *Dispatch = F.createBlockAfter(HighCheck, "jt.dispatch");
    Builder.emitCondBr(CondCode::GT, Default, Dispatch);
    Builder.setInsertionPoint(Dispatch);

    Operand Index = Value;
    if (Lo != 0) {
      unsigned IndexReg = F.newReg();
      Builder.emitBinary(BinaryOp::Sub, IndexReg, Value, Operand::imm(Lo));
      Index = Operand::reg(IndexReg);
    }
    std::vector<BasicBlock *> Table(
        static_cast<size_t>(static_cast<uint64_t>(Hi) -
                            static_cast<uint64_t>(Lo) + 1),
        Default);
    for (const SwitchInst::Case &Case : Cases)
      Table[static_cast<size_t>(Case.Value - Lo)] = Case.Target;
    Builder.emitIndirectJump(Index, std::move(Table));
  }

  Function &F;
  SwitchHeuristicSet Set;
  SwitchLoweringStats *Stats;
};

} // namespace

bool bropt::lowerSwitches(Function &F, SwitchHeuristicSet Set,
                          SwitchLoweringStats *Stats) {
  if (!SwitchExpander(F, Set, Stats).run())
    return false;
  notifyPassObserver("switch-lowering", F);
  return true;
}

bool bropt::lowerSwitches(Module &M, SwitchHeuristicSet Set,
                          SwitchLoweringStats *Stats) {
  bool Changed = false;
  for (auto &F : M)
    Changed |= lowerSwitches(*F, Set, Stats);
  return Changed;
}
