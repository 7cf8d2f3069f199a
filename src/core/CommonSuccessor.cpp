//===- core/CommonSuccessor.cpp - §10 common-successor reordering ---------===//

#include "core/CommonSuccessor.h"

#include "ir/Printer.h"
#include "support/Debug.h"
#include "support/Strings.h"

#include <algorithm>

using namespace bropt;

std::string CommonSuccessorSequence::signature() const {
  std::string Text = F->getName() + "/cs";
  for (unsigned Size : GroupSizes)
    Text += formatString("g%u", Size);
  for (const CommonBranchDesc &Branch : Branches) {
    auto operandText = [](const Operand &Op) {
      return Op.isReg() ? formatString("r%u", Op.getReg())
                        : formatString("%lld",
                                       static_cast<long long>(Op.getImm()));
    };
    Text += formatString("(%s,%s,%s)", operandText(Branch.Lhs).c_str(),
                         condCodeName(Branch.ExitPred),
                         operandText(Branch.Rhs).c_str());
  }
  return Text;
}

namespace {

/// True if \p B consumes condition codes set by its predecessors.
bool needsCCOnEntry(const BasicBlock *B) {
  for (const auto &Inst : *B) {
    if (Inst->writesCC())
      return false;
    if (Inst->readsCC())
      return true;
  }
  return false;
}

/// Reads a block ending in [cmp, condbr]; \p PureOnly additionally demands
/// the block contain nothing else (no side effects, Figure 14's rule).
std::optional<CommonBranchDesc> parseBranch(BasicBlock *B, bool PureOnly) {
  if (PureOnly && B->size() != 2)
    return std::nullopt;
  if (B->size() < 2)
    return std::nullopt;
  const auto *Br = dyn_cast<CondBrInst>(B->getTerminator());
  const auto *Cmp = dyn_cast<CmpInst>(B->getInstruction(B->size() - 2));
  if (!Br || !Cmp)
    return std::nullopt;
  CommonBranchDesc Desc;
  Desc.Block = B;
  Desc.Lhs = Cmp->getLhs();
  Desc.Rhs = Cmp->getRhs();
  Desc.ExitPred = Br->getPred(); // caller orients toward the common succ
  return Desc;
}

class CommonSuccessorDetector {
public:
  CommonSuccessorDetector(
      Function &F, unsigned FirstId,
      const std::unordered_set<const BasicBlock *> &ClaimedBlocks)
      : F(F), NextId(FirstId), Claimed(ClaimedBlocks) {}

  std::vector<CommonSuccessorSequence> run() {
    std::vector<CommonSuccessorSequence> Groups;
    for (size_t Index = 0; Index < F.size(); ++Index) {
      BasicBlock *Head = F.getBlock(Index);
      if (isClaimed(Head))
        continue;
      CommonSuccessorSequence Seq;
      if (!findSequence(Head, Seq))
        continue;
      Seq.F = &F;
      for (const CommonBranchDesc &Branch : Seq.Branches)
        Marked.insert(Branch.Block);
      Groups.push_back(std::move(Seq));
    }
    return mergeChains(std::move(Groups));
  }

private:
  /// Figure 14 d/e: groups whose exits feed the next group's head, with a
  /// shared fall-out block, merge into one chain unit — the paper's
  /// "sequence of sequences", each group acting as a single super-branch.
  std::vector<CommonSuccessorSequence>
  mergeChains(std::vector<CommonSuccessorSequence> Groups) {
    std::unordered_map<const BasicBlock *, size_t> ByHead;
    for (size_t Index = 0; Index < Groups.size(); ++Index)
      ByHead.emplace(Groups[Index].head(), Index);

    std::vector<bool> Consumed(Groups.size(), false);
    std::vector<CommonSuccessorSequence> Units;
    for (size_t Index = 0; Index < Groups.size(); ++Index) {
      if (Consumed[Index])
        continue;
      CommonSuccessorSequence Unit = std::move(Groups[Index]);
      Consumed[Index] = true;
      while (Unit.Branches.size() < 7) {
        auto It = ByHead.find(Unit.CommonTarget);
        if (It == ByHead.end() || Consumed[It->second])
          break;
        CommonSuccessorSequence &Next = Groups[It->second];
        if (Next.FallOut != Unit.FallOut ||
            Unit.Branches.size() + Next.Branches.size() > 7)
          break;
        Consumed[It->second] = true;
        Unit.Branches.insert(Unit.Branches.end(), Next.Branches.begin(),
                             Next.Branches.end());
        Unit.GroupSizes.push_back(
            static_cast<unsigned>(Next.Branches.size()));
        Unit.CommonTarget = Next.CommonTarget;
      }
      Unit.Id = NextId++;
      Units.push_back(std::move(Unit));
    }
    return Units;
  }

private:
  bool isClaimed(const BasicBlock *B) const {
    return Marked.count(B) || Claimed.count(B);
  }

  bool findSequence(BasicBlock *Head, CommonSuccessorSequence &Seq) {
    auto HeadDesc = parseBranch(Head, /*PureOnly=*/false);
    if (!HeadDesc)
      return false;
    const auto *HeadBr = cast<CondBrInst>(Head->getTerminator());

    // Either successor of the head may be the common target.
    for (bool ExitViaTaken : {true, false}) {
      BasicBlock *Common =
          ExitViaTaken ? HeadBr->getTaken() : HeadBr->getFallThrough();
      BasicBlock *Next =
          ExitViaTaken ? HeadBr->getFallThrough() : HeadBr->getTaken();
      if (needsCCOnEntry(Common) || Common == Head)
        continue;

      Seq.Branches.clear();
      CommonBranchDesc First = *HeadDesc;
      if (!ExitViaTaken)
        First.ExitPred = invertCondCode(First.ExitPred);
      Seq.Branches.push_back(First);

      std::unordered_set<BasicBlock *> InChain{Head};
      while (Seq.Branches.size() < 7) {
        if (Next == Common || InChain.count(Next) || isClaimed(Next))
          break;
        auto Desc = parseBranch(Next, /*PureOnly=*/true);
        if (!Desc)
          break;
        const auto *Br = cast<CondBrInst>(Next->getTerminator());
        BasicBlock *Continue;
        if (Br->getTaken() == Common) {
          Continue = Br->getFallThrough();
        } else if (Br->getFallThrough() == Common) {
          Desc->ExitPred = invertCondCode(Desc->ExitPred);
          Continue = Br->getTaken();
        } else {
          break; // does not share the common successor
        }
        InChain.insert(Next);
        Seq.Branches.push_back(*Desc);
        Next = Continue;
      }

      if (Seq.Branches.size() < 2)
        continue;
      if (needsCCOnEntry(Next) || InChain.count(Next))
        continue;
      Seq.GroupSizes = {static_cast<unsigned>(Seq.Branches.size())};
      Seq.CommonTarget = Common;
      Seq.FallOut = Next;
      return true;
    }
    return false;
  }

  Function &F;
  unsigned NextId;
  const std::unordered_set<const BasicBlock *> &Claimed;
  std::unordered_set<const BasicBlock *> Marked;
};

} // namespace

std::vector<CommonSuccessorSequence> bropt::detectCommonSuccessorSequences(
    Function &F, unsigned FirstId,
    const std::unordered_set<const BasicBlock *> &ClaimedBlocks) {
  return CommonSuccessorDetector(F, FirstId, ClaimedBlocks).run();
}

std::vector<CommonSuccessorSequence> bropt::detectCommonSuccessorSequences(
    Module &M, unsigned FirstId,
    const std::unordered_set<const BasicBlock *> &ClaimedBlocks) {
  std::vector<CommonSuccessorSequence> All;
  unsigned NextId = FirstId;
  for (auto &F : M) {
    std::vector<CommonSuccessorSequence> Found =
        detectCommonSuccessorSequences(*F, NextId, ClaimedBlocks);
    NextId += static_cast<unsigned>(Found.size());
    for (CommonSuccessorSequence &Seq : Found)
      All.push_back(std::move(Seq));
  }
  return All;
}

void bropt::instrumentCommonSuccessorSequences(
    const std::vector<CommonSuccessorSequence> &Sequences,
    ProfileDB &DB) {
  for (const CommonSuccessorSequence &Seq : Sequences) {
    DB.registerSequence(ProfileKind::ComboOutcomes, Seq.Id,
                        Seq.F->getName(), Seq.signature(),
                        size_t{1} << Seq.Branches.size());
    std::vector<ComboProfileInst::Condition> Conditions;
    for (const CommonBranchDesc &Branch : Seq.Branches)
      Conditions.push_back({Branch.Lhs, Branch.Rhs, Branch.ExitPred});

    BasicBlock *Head = Seq.head();
    size_t InsertAt = Head->size() - 1;
    if (Head->size() >= 2 &&
        isa<CmpInst>(Head->getInstruction(Head->size() - 2)))
      InsertAt = Head->size() - 2;
    Head->insertAt(InsertAt, std::make_unique<ComboProfileInst>(
                                 Seq.Id, std::move(Conditions)));
  }
}

double bropt::expectedChainBranches(const CommonSuccessorSequence &Seq,
                                    const ProfileEntry &Prof,
                                    const ChainOrder &Order) {
  const double Total = static_cast<double>(Prof.totalExecutions());
  double Expected = 0.0;
  for (size_t Mask = 0; Mask < Prof.BinCounts.size(); ++Mask) {
    if (!Prof.BinCounts[Mask])
      continue;
    double P = static_cast<double>(Prof.BinCounts[Mask]) / Total;
    size_t Executed = 0;
    for (const std::vector<size_t> &Group : Order) {
      bool Exited = false;
      for (size_t Branch : Group) {
        ++Executed;
        if (Mask & (size_t{1} << Branch)) {
          Exited = true; // leave this group for the next one
          break;
        }
      }
      if (!Exited)
        break; // every branch fell through: the shared fall-out is reached
    }
    Expected += P * static_cast<double>(Executed);
  }
  return Expected;
}

namespace {

/// The chain's original order: groups and branches as detected.
ChainOrder identityOrder(const CommonSuccessorSequence &Seq) {
  ChainOrder Order;
  size_t Next = 0;
  for (unsigned Size : Seq.GroupSizes) {
    std::vector<size_t> Group;
    for (unsigned Index = 0; Index < Size; ++Index)
      Group.push_back(Next++);
    Order.push_back(std::move(Group));
  }
  return Order;
}

/// Enumerates group permutations crossed with within-group permutations,
/// calling \p Visit on each candidate.  Bounded by 7 total branches.
template <typename VisitorT>
void enumerateChainOrders(const CommonSuccessorSequence &Seq,
                          VisitorT Visit) {
  ChainOrder Groups = identityOrder(Seq);
  std::vector<size_t> GroupPerm(Groups.size());
  for (size_t Index = 0; Index < Groups.size(); ++Index)
    GroupPerm[Index] = Index;

  // Sort each group's members so next_permutation spans every order.
  for (std::vector<size_t> &Group : Groups)
    std::sort(Group.begin(), Group.end());

  std::sort(GroupPerm.begin(), GroupPerm.end());
  do {
    // Recursively enumerate within-group permutations.
    ChainOrder Candidate(Groups.size());
    auto Recurse = [&](auto &&Self, size_t Position) -> void {
      if (Position == GroupPerm.size()) {
        Visit(Candidate);
        return;
      }
      std::vector<size_t> Members = Groups[GroupPerm[Position]];
      std::sort(Members.begin(), Members.end());
      do {
        Candidate[Position] = Members;
        Self(Self, Position + 1);
      } while (std::next_permutation(Members.begin(), Members.end()));
    };
    Recurse(Recurse, 0);
  } while (std::next_permutation(GroupPerm.begin(), GroupPerm.end()));
}

} // namespace

ChainOrder bropt::selectChainOrder(const CommonSuccessorSequence &Seq,
                                   const ProfileEntry &Prof,
                                   double *ExpectedBefore,
                                   double *ExpectedAfter) {
  assert(Prof.BinCounts.size() == (size_t{1} << Seq.Branches.size()) &&
         "combination profile shape mismatch");
  ChainOrder Identity = identityOrder(Seq);
  double BestExpected = expectedChainBranches(Seq, Prof, Identity);
  if (ExpectedBefore)
    *ExpectedBefore = BestExpected;
  ChainOrder Best = Identity;
  enumerateChainOrders(Seq, [&](const ChainOrder &Candidate) {
    double Expected = expectedChainBranches(Seq, Prof, Candidate);
    if (Expected + 1e-12 < BestExpected) {
      BestExpected = Expected;
      Best = Candidate;
    }
  });
  if (ExpectedAfter)
    *ExpectedAfter = BestExpected;
  return Best;
}

std::vector<size_t> bropt::selectCommonSuccessorOrder(
    const CommonSuccessorSequence &Seq, const ProfileEntry &Prof,
    double *ExpectedBefore, double *ExpectedAfter) {
  assert(Seq.groupCount() == 1 &&
         "use selectChainOrder for multi-group chains");
  return selectChainOrder(Seq, Prof, ExpectedBefore, ExpectedAfter)
      .front();
}

namespace {

/// Rebuilds the chain at its head in the chosen order.  Each group's
/// branches exit to the *next* group's first block (the last group's
/// exits leave through the original chain exit), and a group whose
/// branches all fall through reaches the shared fall-out block.
void rewriteSequence(const CommonSuccessorSequence &Seq,
                     const ChainOrder &Order) {
  Function &F = *Seq.F;
  BasicBlock *Head = Seq.head();

  // Drop this sequence's profiling hook if present, then the old tail.
  for (size_t Index = 0; Index < Head->size();) {
    const auto *Prof =
        dyn_cast<ComboProfileInst>(Head->getInstruction(Index));
    if (Prof && Prof->getSequenceId() == Seq.Id)
      Head->removeAt(Index);
    else
      ++Index;
  }
  assert(Head->size() >= 2 && "head must end in cmp+branch");
  Head->truncateFrom(Head->size() - 2);

  // Pre-create the entry block of every group after the first.
  std::vector<BasicBlock *> GroupEntries(Order.size());
  GroupEntries[0] = Head;
  for (size_t GroupIndex = 1; GroupIndex < Order.size(); ++GroupIndex)
    GroupEntries[GroupIndex] = F.createBlock("csreord.group");

  for (size_t GroupIndex = 0; GroupIndex < Order.size(); ++GroupIndex) {
    BasicBlock *Current = GroupEntries[GroupIndex];
    BasicBlock *Exit = GroupIndex + 1 < Order.size()
                           ? GroupEntries[GroupIndex + 1]
                           : Seq.CommonTarget;
    const std::vector<size_t> &Group = Order[GroupIndex];
    for (size_t Position = 0; Position < Group.size(); ++Position) {
      const CommonBranchDesc &Branch = Seq.Branches[Group[Position]];
      BasicBlock *Next = Position + 1 < Group.size()
                             ? F.createBlock("csreord")
                             : Seq.FallOut;
      Current->append(std::make_unique<CmpInst>(Branch.Lhs, Branch.Rhs));
      Current->append(
          std::make_unique<CondBrInst>(Branch.ExitPred, Exit, Next));
      Current = Next;
    }
  }
}

} // namespace

CommonSuccessorStats bropt::reorderCommonSuccessorSequences(
    const std::vector<CommonSuccessorSequence> &Sequences,
    const ProfileDB &Profile, uint64_t MinExecutions) {
  CommonSuccessorStats Stats;
  SequenceKeyer Keyer;
  for (const CommonSuccessorSequence &Seq : Sequences) {
    ++Stats.Detected;
    const ProfileEntry *Prof = Profile.lookupSequence(
        ProfileKind::ComboOutcomes, Seq.F->getName(), Seq.signature(),
        size_t{1} << Seq.Branches.size(),
        Keyer.next(ProfileKind::ComboOutcomes, Seq.F->getName()));
    if (!Prof) {
      ++Stats.ProfileProblems;
      continue;
    }
    if (Prof->totalExecutions() < MinExecutions) {
      ++Stats.NeverExecuted;
      continue;
    }
    double Before = 0.0, After = 0.0;
    ChainOrder Order = selectChainOrder(Seq, *Prof, &Before, &After);
    rewriteSequence(Seq, Order);
    ++Stats.Reordered;
    Stats.SumExpectedBefore += Before;
    Stats.SumExpectedAfter += After;
  }
  return Stats;
}
