//===- core/SequenceDetection.cpp - Detect reorderable sequences ----------===//

#include "core/SequenceDetection.h"

#include "ir/CFG.h"
#include "support/Debug.h"
#include "support/Strings.h"

#include <unordered_set>

using namespace bropt;

unsigned RangeSequence::branchCount() const {
  unsigned Count = 0;
  for (const RangeConditionDesc &Cond : Conds)
    Count += Cond.branchCount();
  return Count;
}

std::string RangeSequence::signature() const {
  std::string Text = F->getName() + "/r" + formatString("%u", ValueReg);
  for (const RangeConditionDesc &Cond : Conds)
    Text += Cond.R.toString();
  return Text;
}

namespace {

/// A compare/branch pair in canonical reg-vs-constant form.
struct BranchShape {
  unsigned Reg = 0;
  int64_t Constant = 0;
  CondCode Pred = CondCode::EQ;
  BasicBlock *Taken = nullptr;
  BasicBlock *Fall = nullptr;
  size_t PrefixLength = 0; ///< instructions before the compare
  bool OwnCmp = true;      ///< false when the compare lives in every pred
};

/// One way of reading a block (or block pair) as a range condition.
struct CondParse {
  RangeConditionDesc Desc;
  BasicBlock *Next = nullptr; ///< continuation when the value is not in R
  unsigned Reg = 0;
};

/// Extracts the canonical compare/branch shape of \p B, if it has one.
/// A block may carry its own compare, or — like the direction blocks of a
/// lowered binary search, and chains after redundant-compare elimination —
/// reuse condition codes set identically at the tail of every predecessor.
std::optional<BranchShape> parseBranchShape(const BasicBlock *B,
                                            const PredecessorMap &Preds) {
  const auto *Br = dyn_cast_or_null<CondBrInst>(B->getTerminator());
  if (!Br)
    return std::nullopt;

  const CmpInst *Cmp = nullptr;
  BranchShape Shape;
  if (B->size() >= 2) {
    Cmp = dyn_cast<CmpInst>(B->getInstruction(B->size() - 2));
    if (Cmp)
      Shape.PrefixLength = B->size() - 2;
  }
  if (!Cmp) {
    // Look for an identical compare at the tail of every predecessor.
    const std::vector<BasicBlock *> &BPreds = Preds.at(B);
    if (BPreds.empty())
      return std::nullopt;
    const CmpInst *Shared = nullptr;
    for (const BasicBlock *Pred : BPreds) {
      if (Pred->size() < 2)
        return std::nullopt;
      const auto *PredCmp =
          dyn_cast<CmpInst>(Pred->getInstruction(Pred->size() - 2));
      if (!PredCmp)
        return std::nullopt;
      if (Shared && !Shared->isIdenticalTo(*PredCmp))
        return std::nullopt;
      Shared = PredCmp;
    }
    // Everything before the branch would sit between the predecessors'
    // compare and this branch; only a branch-only block is safe to read
    // this way.
    if (B->size() != 1)
      return std::nullopt;
    Cmp = Shared;
    Shape.OwnCmp = false;
    Shape.PrefixLength = 0;
  }

  Operand Lhs = Cmp->getLhs(), Rhs = Cmp->getRhs();
  CondCode Pred = Br->getPred();
  if (Lhs.isImm() && Rhs.isReg()) {
    std::swap(Lhs, Rhs);
    Pred = swapCondCode(Pred);
  }
  if (!Lhs.isReg() || !Rhs.isImm())
    return std::nullopt;

  Shape.Reg = Lhs.getReg();
  Shape.Constant = Rhs.getImm();
  Shape.Pred = Pred;
  Shape.Taken = Br->getTaken();
  Shape.Fall = Br->getFallThrough();
  return Shape;
}

} // namespace

Range bropt::takenInterval(CondCode Pred, int64_t C) {
  switch (Pred) {
  case CondCode::EQ:
    return Range::single(C);
  case CondCode::NE:
    return Range(); // handled by the caller; NE has no contiguous interval
  case CondCode::LT:
    return C == Range::MinValue ? Range() : Range::upTo(C - 1);
  case CondCode::LE:
    return Range::upTo(C);
  case CondCode::GT:
    return C == Range::MaxValue ? Range() : Range::from(C + 1);
  case CondCode::GE:
    return Range::from(C);
  }
  BROPT_UNREACHABLE("unknown condition code");
}

namespace {

/// Complement interval of takenInterval for a relational predicate.
Range fallInterval(CondCode Pred, int64_t C) {
  switch (Pred) {
  case CondCode::LT:
    return Range::from(C);
  case CondCode::LE:
    return C == Range::MaxValue ? Range() : Range::from(C + 1);
  case CondCode::GT:
    return Range::upTo(C);
  case CondCode::GE:
    return C == Range::MinValue ? Range() : Range::upTo(C - 1);
  default:
    BROPT_UNREACHABLE("not a relational predicate");
  }
}

bool isRelational(CondCode Pred) {
  return Pred != CondCode::EQ && Pred != CondCode::NE;
}

/// True if \p B consumes condition codes set by its predecessors (its
/// first CC event is a read).  Such a block must not become an exit
/// boundary of a reordered sequence: the reordered code would reach it
/// with condition codes from a different compare.
bool needsCCOnEntry(const BasicBlock *B) {
  for (const auto &Inst : *B) {
    if (Inst->writesCC())
      return false;
    if (Inst->readsCC())
      return true;
  }
  return false;
}

/// \returns true if \p Shape's side-effect prefix is movable under
/// Theorem 2: it must not redefine the branch variable.
bool prefixMovable(const BasicBlock *B, const BranchShape &Shape) {
  for (size_t Index = 0; Index < Shape.PrefixLength; ++Index) {
    auto Def = B->getInstruction(Index)->getDef();
    if (Def && *Def == Shape.Reg)
      return false;
  }
  return true;
}

/// The sequence detector for one function (paper Figure 4).
class Detector {
public:
  Detector(const Function &F, unsigned FirstId)
      : F(F), Preds(predecessorMap(F)), NextId(FirstId) {}

  std::vector<RangeSequence> run() {
    std::vector<RangeSequence> Sequences;
    for (const auto &Candidate : F) {
      BasicBlock *Head = Candidate.get();
      if (Marked.count(Head))
        continue;
      RangeSequence Seq;
      if (!findSequence(Head, Seq))
        continue;
      Seq.Id = NextId++;
      Seq.F = Head->getParent();
      Seq.DefaultRanges = computeDefaultRanges(explicitRanges(Seq));
      for (const RangeConditionDesc &Cond : Seq.Conds)
        for (BasicBlock *Block : Cond.Blocks)
          Marked.insert(Block);
      Sequences.push_back(std::move(Seq));
    }
    return Sequences;
  }

private:
  static std::vector<Range> explicitRanges(const RangeSequence &Seq) {
    std::vector<Range> Ranges;
    Ranges.reserve(Seq.Conds.size());
    for (const RangeConditionDesc &Cond : Seq.Conds)
      Ranges.push_back(Cond.R);
    return Ranges;
  }

  /// Enumerates the readings of \p B as a range condition on \p KnownReg
  /// (or any register when IsHead).  Order matters: the paper's algorithm
  /// prefers the pair (Form 4) reading, then the taken interval, then the
  /// inverse interval.
  std::vector<CondParse> parseCondition(BasicBlock *B, bool IsHead,
                                        unsigned KnownReg) {
    std::vector<CondParse> Result;
    auto Shape = parseBranchShape(B, Preds);
    if (!Shape)
      return Result;
    if (!IsHead && Shape->Reg != KnownReg)
      return Result;
    if (Marked.count(B))
      return Result;
    // Non-head prefixes are intervening side effects; Theorem 2 lets us
    // move them unless they write the branch variable.  The head's prefix
    // stays in place and constrains nothing.
    if (!IsHead && !prefixMovable(B, *Shape))
      return Result;
    size_t Prefix = IsHead ? 0 : Shape->PrefixLength;

    auto addParse = [&](Range R, BasicBlock *Target,
                        std::vector<BasicBlock *> Blocks, unsigned Cost,
                        BasicBlock *Next) {
      // An exit target that reads its predecessor's condition codes cannot
      // be branched to from reordered code, which compares against a
      // different constant by then.
      if (needsCCOnEntry(Target))
        return;
      CondParse Parse;
      Parse.Desc.R = R;
      Parse.Desc.Target = Target;
      Parse.Desc.Blocks = std::move(Blocks);
      Parse.Desc.Cost = Cost;
      Parse.Desc.PrefixLength = Prefix;
      Parse.Next = Next;
      Parse.Reg = Shape->Reg;
      Result.push_back(std::move(Parse));
    };

    if (Shape->Pred == CondCode::EQ) {
      addParse(Range::single(Shape->Constant), Shape->Taken, {B}, 2,
               Shape->Fall);
      return Result;
    }
    if (Shape->Pred == CondCode::NE) {
      addParse(Range::single(Shape->Constant), Shape->Fall, {B}, 2,
               Shape->Taken);
      return Result;
    }

    // Form 4: this branch plus a successor's branch bound a range, and the
    // two blocks share the "continue" successor (paper Figure 4).
    for (bool ViaTaken : {false, true}) {
      BasicBlock *S = ViaTaken ? Shape->Taken : Shape->Fall;
      BasicBlock *Other = ViaTaken ? Shape->Fall : Shape->Taken;
      if (S == B || Marked.count(S) || S->size() != 2)
        continue;
      auto SShape = parseBranchShape(S, Preds);
      if (!SShape || !SShape->OwnCmp || SShape->Reg != Shape->Reg ||
          !isRelational(SShape->Pred))
        continue;
      Range Into = ViaTaken ? takenInterval(Shape->Pred, Shape->Constant)
                            : fallInterval(Shape->Pred, Shape->Constant);
      for (bool STaken : {true, false}) {
        BasicBlock *Target = STaken ? SShape->Taken : SShape->Fall;
        BasicBlock *Exit = STaken ? SShape->Fall : SShape->Taken;
        if (Exit != Other)
          continue;
        Range Inner = STaken
                          ? takenInterval(SShape->Pred, SShape->Constant)
                          : fallInterval(SShape->Pred, SShape->Constant);
        Range R = Into.intersect(Inner);
        if (R.isEmpty() || !R.isBounded() || R.isSingle())
          continue;
        addParse(R, Target, {B, S}, 4, Other);
      }
      if (!Result.empty())
        break;
    }

    // Single relational branch: both readings.  The cost stays 2 even for
    // shared-compare blocks — reordering will re-materialize the compare,
    // and the paper uses conservative estimates when cost depends on the
    // ordering chosen (Def. 10).
    Range Taken = takenInterval(Shape->Pred, Shape->Constant);
    Range Fall = fallInterval(Shape->Pred, Shape->Constant);
    const unsigned Cost = 2;
    if (!Taken.isEmpty())
      addParse(Taken, Shape->Taken, {B}, Cost, Shape->Fall);
    if (!Fall.isEmpty())
      addParse(Fall, Shape->Fall, {B}, Cost, Shape->Taken);
    return Result;
  }

  /// First nonoverlapping reading of \p B, given ranges already claimed.
  std::optional<CondParse> firstFit(BasicBlock *B, unsigned Reg,
                                    const std::vector<Range> &Claimed,
                                    const std::unordered_set<BasicBlock *>
                                        &InSequence) {
    for (CondParse &Parse : parseCondition(B, /*IsHead=*/false, Reg)) {
      if (!nonoverlapping(Parse.Desc.R, Claimed))
        continue;
      bool Clashes = false;
      for (BasicBlock *Block : Parse.Desc.Blocks)
        if (InSequence.count(Block))
          Clashes = true;
      if (!Clashes)
        return std::move(Parse);
    }
    return std::nullopt;
  }

  /// The paper's Find_First_Two_Conds plus the extension loop.
  bool findSequence(BasicBlock *Head, RangeSequence &Seq) {
    for (CondParse &First : parseCondition(Head, /*IsHead=*/true, 0)) {
      std::vector<Range> Claimed{First.Desc.R};
      std::unordered_set<BasicBlock *> InSequence(First.Desc.Blocks.begin(),
                                                  First.Desc.Blocks.end());
      auto Second = firstFit(First.Next, First.Reg, Claimed, InSequence);
      if (!Second)
        continue;

      Seq.ValueReg = First.Reg;
      Seq.Conds = {First.Desc, Second->Desc};
      Claimed.push_back(Second->Desc.R);
      for (BasicBlock *Block : Second->Desc.Blocks)
        InSequence.insert(Block);

      BasicBlock *Next = Second->Next;
      while (true) {
        if (InSequence.count(Next))
          break; // looped back into the sequence
        auto More = firstFit(Next, First.Reg, Claimed, InSequence);
        if (!More)
          break;
        Seq.Conds.push_back(More->Desc);
        Claimed.push_back(More->Desc.R);
        for (BasicBlock *Block : More->Desc.Blocks)
          InSequence.insert(Block);
        Next = More->Next;
      }

      // The block default traffic falls into becomes a branch target of
      // the reordered code, so it must not depend on inherited condition
      // codes.  Trim trailing conditions until the boundary is clean.
      while (needsCCOnEntry(Next)) {
        if (Seq.Conds.size() <= 2) {
          Seq.Conds.clear();
          break;
        }
        Next = Seq.Conds.back().Blocks.front();
        Seq.Conds.pop_back();
      }
      if (Seq.Conds.size() < 2)
        continue; // try the next reading of the head

      Seq.DefaultTarget = Next;
      return true;
    }
    return false;
  }

  const Function &F;
  const PredecessorMap Preds;
  unsigned NextId;
  std::unordered_set<BasicBlock *> Marked;
};

} // namespace

std::vector<RangeSequence> bropt::detectSequences(const Function &F,
                                                  unsigned FirstId) {
  return Detector(F, FirstId).run();
}

std::vector<RangeSequence> bropt::detectSequences(const Module &M) {
  std::vector<RangeSequence> All;
  unsigned NextId = 0;
  for (auto &F : M) {
    std::vector<RangeSequence> Found = detectSequences(*F, NextId);
    NextId += static_cast<unsigned>(Found.size());
    for (RangeSequence &Seq : Found)
      All.push_back(std::move(Seq));
  }
  return All;
}
