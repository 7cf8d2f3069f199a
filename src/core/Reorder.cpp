//===- core/Reorder.cpp - Apply the branch-reordering transformation ------===//

#include "core/Reorder.h"

#include "cost/OptimalTree.h"
#include "ir/IRBuilder.h"
#include "opt/Passes.h"
#include "support/Debug.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>
#include <unordered_set>

using namespace bropt;

double ReorderStats::averageLengthBefore() const {
  if (Lengths.empty())
    return 0.0;
  double Total = 0.0;
  for (const auto &[Before, After] : Lengths)
    Total += Before;
  return Total / static_cast<double>(Lengths.size());
}

double ReorderStats::averageLengthAfter() const {
  if (Lengths.empty())
    return 0.0;
  double Total = 0.0;
  for (const auto &[Before, After] : Lengths)
    Total += After;
  return Total / static_cast<double>(Lengths.size());
}

std::vector<RangeInfo> bropt::buildRangeInfos(const RangeSequence &Seq,
                                              const ProfileEntry &Prof) {
  std::vector<RangeInfo> Infos;
  const double Total = static_cast<double>(Prof.totalExecutions());
  size_t Bin = 0;
  // ExitClass counts the prefix-bearing conditions whose side effects an
  // exit owes; exits owing different side effects must not share a
  // default continuation.
  size_t PrefixClass = 0;
  for (size_t Index = 0; Index < Seq.Conds.size(); ++Index, ++Bin) {
    const RangeConditionDesc &Cond = Seq.Conds[Index];
    if (Index > 0 && Cond.PrefixLength > 0)
      ++PrefixClass;
    RangeInfo Info;
    Info.R = Cond.R;
    Info.Target = Cond.Target;
    Info.P = static_cast<double>(Prof.BinCounts[Bin]) / Total;
    Info.C = Cond.Cost;
    Info.WasExplicit = true;
    Info.OrigIndex = Index;
    Info.ExitClass = PrefixClass;
    Infos.push_back(Info);
  }
  for (const Range &R : Seq.DefaultRanges) {
    RangeInfo Info;
    Info.R = R;
    Info.Target = Seq.DefaultTarget;
    Info.P = static_cast<double>(Prof.BinCounts[Bin++]) / Total;
    // Cost a default range the same way an emitted condition will cost:
    // one compare+branch for single values and half-open ranges, two
    // pairs for bounded multi-value ranges (Table 1).
    Info.C = R.branchCount() * 2;
    Info.WasExplicit = false;
    Info.OrigIndex = SIZE_MAX;
    Info.ExitClass = PrefixClass; // default traffic owes everything
    Infos.push_back(Info);
  }
  return Infos;
}

namespace {

/// Cap on instructions cloned when duplicating the default target.
constexpr size_t MaxDefaultCloneInsts = 48;
/// Jump tables wider than this are never considered.
constexpr uint64_t MaxTableSpan = 512;

/// Emits the rebuilt sequence for one transformation.
class SequenceRewriter {
public:
  SequenceRewriter(const RangeSequence &Seq, const ProfileEntry &Prof,
                   const ReorderOptions &Opts)
      : Seq(Seq), F(*Seq.F), Opts(Opts) {
    for (const RangeConditionDesc &Cond : Seq.Conds)
      for (BasicBlock *Block : Cond.Blocks)
        SequenceBlocks.insert(Block);
    Infos = buildRangeInfos(Seq, Prof);
  }

  struct RewriteOutcome {
    unsigned Branches = 0;
    bool UsedJumpTable = false;
    bool UsedTree = false;
    /// Taken-branch-adjusted cost of the Figure-8 chain, and of whatever
    /// shape was actually emitted (tree cost when UsedTree).
    double ChainCost = 0.0;
    double ChosenCost = 0.0;
  };

  /// \returns branches in the rebuilt sequence and which shape method
  /// selection chose (reordered chain, optimal tree, or jump table).
  RewriteOutcome run() {
    Decision = (Opts.UseExhaustiveSelection && Infos.size() <= 10)
                   ? selectOrderingExhaustive(Infos)
                   : selectOrdering(Infos);
    RewriteOutcome Outcome;
    Outcome.ChainCost = Decision.Cost;
    if (Opts.UseOptimalTree) {
      // Equations 1-2 count executed instructions; a chain additionally
      // takes one taken branch per tested-and-matched exit (and, when the
      // model is misprediction-aware, the expected mispredict charge of
      // testing the exits in this order).  The cost layer charges both
      // exactly once; Decision.Cost stays the pure Equations 1-4 count.
      // Only Set IV charges extras, so Sets I-III keep the paper's exact
      // cost semantics.
      std::vector<double> OrderedExitProbs;
      OrderedExitProbs.reserve(Decision.Order.size());
      for (size_t Index : Decision.Order)
        OrderedExitProbs.push_back(Infos[Index].P);
      Outcome.ChainCost += Opts.Cost.chainExtras(OrderedExitProbs);
    }
    Outcome.ChosenCost = Outcome.ChainCost;
    std::optional<TreePlan> Tree;
    if (Opts.UseOptimalTree) {
      Tree = planTree();
      if (Tree && Tree->Cost < Outcome.ChainCost)
        Outcome.ChosenCost = Tree->Cost;
      else
        Tree.reset(); // chain is at least as good: keep the paper's shape
    }
    if (Opts.EnableMethodSelection) {
      // The linear-search cost (Equations 1-4) is conservative — it
      // charges bounded conditions for both branches even though §7's
      // intra-condition ordering often answers with one — so the model
      // demands a clear margin before preferring the table.
      if (auto Plan = planJumpTable()) {
        if (Opts.Cost.tablePreferred(Plan->Cost, Outcome.ChosenCost)) {
          rewriteHead();
          emitJumpTable(*Plan);
          Outcome.Branches = 2;
          Outcome.UsedJumpTable = true;
          Outcome.ChosenCost = Plan->Cost;
          return Outcome;
        }
      }
    }
    rewriteHead();
    if (Tree) {
      Outcome.Branches = emitTree(*Tree);
      Outcome.UsedTree = true;
      return Outcome;
    }
    Outcome.Branches = emitConditions();
    return Outcome;
  }

private:
  /// Side-effect prefixes that ran, in original order, before control
  /// could exit past original condition \p UpTo (paper Theorem 2).
  std::vector<std::pair<BasicBlock *, size_t>>
  prefixesThrough(size_t UpTo) const {
    std::vector<std::pair<BasicBlock *, size_t>> Result;
    for (size_t Index = 1; Index <= UpTo && Index < Seq.Conds.size();
         ++Index) {
      const RangeConditionDesc &Cond = Seq.Conds[Index];
      if (Cond.PrefixLength > 0)
        Result.push_back({Cond.Blocks.front(), Cond.PrefixLength});
    }
    return Result;
  }

  /// Exiting via original condition j executes the prefixes of conditions
  /// 1..j; default traffic executes all of them.
  std::vector<std::pair<BasicBlock *, size_t>>
  prefixesForExit(const RangeInfo &Info) const {
    return prefixesThrough(Info.WasExplicit ? Info.OrigIndex
                                            : Seq.Conds.size() - 1);
  }

  /// Side effects the untested (default) traffic owes: those owed by the
  /// eliminated ranges, which all share one exit class by construction.
  std::vector<std::pair<BasicBlock *, size_t>> defaultPrefixes() const {
    assert(!Decision.Eliminated.empty() &&
           "a decision always leaves at least one range implicit");
    return prefixesForExit(Infos[Decision.Eliminated.front()]);
  }

  static void clonePrefixes(
      BasicBlock *Into,
      const std::vector<std::pair<BasicBlock *, size_t>> &Prefixes) {
    for (const auto &[Block, Length] : Prefixes)
      for (size_t Index = 0; Index < Length; ++Index)
        Into->append(Block->getInstruction(Index)->clone());
  }

  /// \returns the block an exit edge should branch to: the target itself,
  /// or a fresh block that replays the owed side effects first and then
  /// continues into (a duplicate of) the target, so the side effects do
  /// not cost an extra executed jump (paper Figure 10c: "T2 is also
  /// duplicated to avoid an extra unconditional jump").
  BasicBlock *exitEdge(const RangeInfo &Info) {
    return exitEdgeFor(Info.Target,
                       Info.WasExplicit ? Info.OrigIndex
                                        : Seq.Conds.size() - 1);
  }

  BasicBlock *exitEdgeFor(BasicBlock *Target, size_t PrefixUpTo) {
    auto Prefixes = prefixesThrough(PrefixUpTo);
    if (Prefixes.empty())
      return Target;
    BasicBlock *Edge = F.createBlock("reord.fx");
    clonePrefixes(Edge, Prefixes);
    appendContinuation(Edge, Target);
    return Edge;
  }

  /// Strips the head block down to its stay-in-place prefix.
  void rewriteHead() {
    BasicBlock *Head = Seq.head();
    // Drop a profiling hook for this sequence if the module is the
    // instrumented pass-1 binary (tests exercise that path).
    for (size_t Index = 0; Index < Head->size();) {
      const auto *Prof = dyn_cast<ProfileInst>(Head->getInstruction(Index));
      if (Prof && Prof->getSequenceId() == Seq.Id)
        Head->removeAt(Index);
      else
        ++Index;
    }
    size_t Tail = 1; // the branch
    if (Head->size() >= 2 &&
        isa<CmpInst>(Head->getInstruction(Head->size() - 2)))
      Tail = 2; // compare + branch
    Head->truncateFrom(Head->size() - Tail);
  }

  /// Emits the reordered conditions; \returns the branch count.
  unsigned emitConditions() {
    const unsigned V = Seq.ValueReg;
    unsigned Branches = 0;

    // Degenerate case: every range shares one target, so nothing needs
    // testing and the head falls straight through.
    if (Decision.Order.empty()) {
      emitDefaultContinuation(Seq.head());
      return 0;
    }

    // One block per tested condition, then the default continuation.
    std::vector<BasicBlock *> CondBlocks;
    CondBlocks.push_back(Seq.head());
    for (size_t K = 1; K < Decision.Order.size(); ++K)
      CondBlocks.push_back(F.createBlock("reord"));
    BasicBlock *DefaultCont = F.createBlock("reord.default");

    for (size_t K = 0; K < Decision.Order.size(); ++K) {
      const RangeInfo &Info = Infos[Decision.Order[K]];
      BasicBlock *Cur = CondBlocks[K];
      BasicBlock *Next = K + 1 < Decision.Order.size() ? CondBlocks[K + 1]
                                                       : DefaultCont;
      BasicBlock *Edge = exitEdge(Info);
      IRBuilder Builder(Cur);
      const Range &R = Info.R;

      if (R.isSingle()) {
        Builder.emitCmp(Operand::reg(V), Operand::imm(R.lo()));
        Builder.emitCondBr(CondCode::EQ, Edge, Next);
        Branches += 1;
      } else if (R.lo() == Range::MinValue) {
        Builder.emitCmp(Operand::reg(V), Operand::imm(R.hi()));
        Builder.emitCondBr(CondCode::LE, Edge, Next);
        Branches += 1;
      } else if (R.hi() == Range::MaxValue) {
        Builder.emitCmp(Operand::reg(V), Operand::imm(R.lo()));
        Builder.emitCondBr(CondCode::GE, Edge, Next);
        Branches += 1;
      } else {
        // Bounded Form-4 range: two compare/branch pairs.  Test first the
        // side (below the range vs. above it) more likely to disqualify,
        // judged over the conditions that have not been tested yet (§7).
        std::vector<size_t> Remaining(Decision.Order.begin() +
                                          static_cast<ptrdiff_t>(K) + 1,
                                      Decision.Order.end());
        Remaining.insert(Remaining.end(), Decision.Eliminated.begin(),
                         Decision.Eliminated.end());
        double Below = probabilityBelow(Infos, Remaining, R.lo());
        double Above = probabilityAbove(Infos, Remaining, R.hi());
        bool LowFirst = !Opts.OrderFormFourBranches || Below >= Above;
        BasicBlock *Second = F.createBlock("reord.hi");
        if (LowFirst) {
          Builder.emitCmp(Operand::reg(V), Operand::imm(R.lo()));
          Builder.emitCondBr(CondCode::LT, Next, Second);
          Builder.setInsertionPoint(Second);
          Builder.emitCmp(Operand::reg(V), Operand::imm(R.hi()));
          Builder.emitCondBr(CondCode::LE, Edge, Next);
        } else {
          Builder.emitCmp(Operand::reg(V), Operand::imm(R.hi()));
          Builder.emitCondBr(CondCode::GT, Next, Second);
          Builder.setInsertionPoint(Second);
          Builder.emitCmp(Operand::reg(V), Operand::imm(R.lo()));
          Builder.emitCondBr(CondCode::GE, Edge, Next);
        }
        Branches += 2;
      }
    }

    emitDefaultContinuation(DefaultCont);
    return Branches;
  }

  /// Fills the block default traffic falls into: owed side effects, then
  /// either a duplicate of the default target's code up to an
  /// unconditional transfer (Figure 10d) or a jump to it.
  void emitDefaultContinuation(BasicBlock *Cont) {
    clonePrefixes(Cont, defaultPrefixes());
    appendContinuation(Cont, Decision.DefaultTarget);
  }

  /// Continues \p Into with \p Target's code: either a duplicate of the
  /// fall-through chain starting at \p Target up to the first
  /// unconditional transfer (paper Figure 10d), or a plain jump when
  /// duplication is disabled, unsafe, or over budget.  Duplicated
  /// conditional branches keep their taken targets; duplication follows
  /// the fall-through edge.
  void appendContinuation(BasicBlock *Into, BasicBlock *Target) {
    if (!Opts.DuplicateDefaultTarget || SequenceBlocks.count(Target)) {
      Into->append(std::make_unique<JumpInst>(Target));
      return;
    }
    size_t Budget = MaxDefaultCloneInsts;
    BasicBlock *Source = Target;
    std::unordered_set<BasicBlock *> ChainSeen;
    while (true) {
      if (!ChainSeen.insert(Source).second ||
          SequenceBlocks.count(Source) || Source->size() > Budget) {
        Into->append(std::make_unique<JumpInst>(Source));
        return;
      }
      Budget -= Source->size();
      for (size_t Index = 0; Index + 1 < Source->size(); ++Index)
        Into->append(Source->getInstruction(Index)->clone());
      const Instruction *Term = Source->getTerminator();
      assert(Term && "duplicated block must be terminated");
      if (const auto *Br = dyn_cast<CondBrInst>(Term)) {
        BasicBlock *NextClone = F.createBlock("reord.dup");
        Into->append(std::make_unique<CondBrInst>(
            Br->getPred(), Br->getTaken(), NextClone));
        Source = Br->getFallThrough();
        Into = NextClone;
        continue;
      }
      Into->append(Term->clone());
      return;
    }
  }

  /// §10 extension: a bounds-checked jump table spanning the explicit
  /// ranges, considered when method selection is enabled.
  struct TablePlan {
    int64_t Lo = 0;
    int64_t Hi = 0;
    double Cost = 0.0;
  };

  std::optional<TablePlan> planJumpTable() const {
    if (Seq.Conds.empty())
      return std::nullopt;
    int64_t Lo = INT64_MAX, Hi = INT64_MIN;
    for (const RangeConditionDesc &Cond : Seq.Conds) {
      // A table needs finite bounds on every dispatched range.
      if (!Cond.R.isBounded())
        return std::nullopt;
      Lo = std::min(Lo, Cond.R.lo());
      Hi = std::max(Hi, Cond.R.hi());
    }
    uint64_t Span =
        static_cast<uint64_t>(Hi) - static_cast<uint64_t>(Lo) + 1;
    if (Span > MaxTableSpan)
      return std::nullopt;
    // Split the profile mass by where values fall; the cost layer prices
    // the three paths (bounds-check exits, index adjustment, indirect
    // dispatch) from there.
    double BelowMass = 0.0, AboveMass = 0.0, InMass = 0.0;
    for (const RangeInfo &Info : Infos) {
      if (Info.R.hi() < Lo)
        BelowMass += Info.P;
      else if (Info.R.lo() > Hi)
        AboveMass += Info.P;
      else if (Info.R.lo() >= Lo && Info.R.hi() <= Hi)
        InMass += Info.P;
      else
        InMass += Info.P; // straddling ranges: charge the full path
    }
    TablePlan Plan;
    Plan.Lo = Lo;
    Plan.Hi = Hi;
    Plan.Cost = Opts.Cost.jumpTableCost(BelowMass, AboveMass, InMass,
                                        /*NeedsBias=*/Lo != 0);
    return Plan;
  }

  void emitJumpTable(const TablePlan &Plan) {
    const unsigned V = Seq.ValueReg;
    BasicBlock *Head = Seq.head();

    // Default continuation: owed every side effect, like default ranges.
    BasicBlock *DC = F.createBlock("reord.default");
    clonePrefixes(DC, prefixesThrough(Seq.Conds.size() - 1));
    appendContinuation(DC, Seq.DefaultTarget);

    IRBuilder Builder(Head);
    Builder.emitCmp(Operand::reg(V), Operand::imm(Plan.Lo));
    BasicBlock *HighCheck = F.createBlock("reord.jt.hi");
    Builder.emitCondBr(CondCode::LT, DC, HighCheck);
    Builder.setInsertionPoint(HighCheck);
    Builder.emitCmp(Operand::reg(V), Operand::imm(Plan.Hi));
    BasicBlock *Dispatch = F.createBlock("reord.jt.dispatch");
    Builder.emitCondBr(CondCode::GT, DC, Dispatch);
    Builder.setInsertionPoint(Dispatch);
    Operand Index = Operand::reg(V);
    if (Plan.Lo != 0) {
      unsigned IndexReg = F.newReg();
      Builder.emitBinary(BinaryOp::Sub, IndexReg, Operand::reg(V),
                         Operand::imm(Plan.Lo));
      Index = Operand::reg(IndexReg);
    }

    // One shared exit edge per original condition, built lazily.
    std::vector<BasicBlock *> Edges(Seq.Conds.size(), nullptr);
    std::vector<BasicBlock *> Table;
    Table.reserve(static_cast<size_t>(Plan.Hi - Plan.Lo + 1));
    for (int64_t Value = Plan.Lo; Value <= Plan.Hi; ++Value) {
      BasicBlock *Entry = DC;
      for (size_t CondIndex = 0; CondIndex < Seq.Conds.size(); ++CondIndex)
        if (Seq.Conds[CondIndex].R.contains(Value)) {
          if (!Edges[CondIndex])
            Edges[CondIndex] =
                exitEdgeFor(Seq.Conds[CondIndex].Target, CondIndex);
          Entry = Edges[CondIndex];
          break;
        }
      Table.push_back(Entry);
    }
    Builder.emitIndirectJump(Index, std::move(Table));
  }

  /// Set IV: the cost-optimal comparison tree over the sorted range
  /// partition (cost/OptimalTree.h).  Sorted[K] is the Infos index of the
  /// K-th leaf in ascending value order.
  struct TreePlan {
    std::vector<size_t> Sorted;
    OptimalTree Tree;
    double Cost = 0.0;
  };

  /// Plans the optimal tree, or nothing when the ranges do not form a
  /// contiguous partition of the whole value space (they always should —
  /// explicit conditions are disjoint and the default ranges are computed
  /// as their complement — so this guard only rejects corrupt input).
  std::optional<TreePlan> planTree() const {
    const size_t N = Infos.size();
    if (N < 2)
      return std::nullopt;
    TreePlan Plan;
    Plan.Sorted.resize(N);
    std::iota(Plan.Sorted.begin(), Plan.Sorted.end(), size_t{0});
    std::sort(Plan.Sorted.begin(), Plan.Sorted.end(),
              [&](size_t A, size_t B) {
                return Infos[A].R.lo() < Infos[B].R.lo();
              });
    if (Infos[Plan.Sorted.front()].R.lo() != Range::MinValue ||
        Infos[Plan.Sorted.back()].R.hi() != Range::MaxValue)
      return std::nullopt;
    for (size_t K = 0; K + 1 < N; ++K) {
      int64_t Hi = Infos[Plan.Sorted[K]].R.hi();
      if (Hi == Range::MaxValue ||
          Infos[Plan.Sorted[K + 1]].R.lo() != Hi + 1)
        return std::nullopt;
    }
    std::vector<double> Weights(N);
    for (size_t K = 0; K < N; ++K)
      Weights[K] = Infos[Plan.Sorted[K]].P;
    // The DP prices nodes with the same compare, taken, and misprediction
    // charges as the chain, so the two shapes compete under one model.
    Plan.Tree = buildOptimalTree(Weights, Opts.Cost.treeParams());
    Plan.Cost = Plan.Tree.Cost;
    return Plan;
  }

  /// A leaf dispatches to its range's exit: owed side effects replayed,
  /// then the target (duplicated on fall-through edges, Figure 10d).
  void fillTreeLeaf(BasicBlock *Block, const RangeInfo &Info) {
    clonePrefixes(Block, prefixesForExit(Info));
    appendContinuation(Block, Info.Target);
  }

  /// Emits the planned tree rooted at the sequence head; \returns the
  /// branch count (always NumLeaves - 1: one bounded compare per internal
  /// node, never a Form-4 double test, because the partition is
  /// contiguous).  Each internal node compares the value against the
  /// highest value of its split leaf; the DP's orientation bit says which
  /// side is the taken edge (the lighter one — the heavy side falls
  /// through, which is why the cost model's taken-branch charge shapes
  /// the tree).
  unsigned emitTree(const TreePlan &Plan) {
    const unsigned V = Seq.ValueReg;
    unsigned Branches = 0;
    std::function<void(size_t, size_t, BasicBlock *)> Emit =
        [&](size_t Lo, size_t Hi, BasicBlock *Block) {
          if (Lo == Hi) {
            fillTreeLeaf(Block, Infos[Plan.Sorted[Lo]]);
            return;
          }
          size_t K = Plan.Tree.splitOf(Lo, Hi);
          bool TakenLeft = Plan.Tree.takenLeftOf(Lo, Hi);
          int64_t Boundary = Infos[Plan.Sorted[K]].R.hi();
          IRBuilder Builder(Block);
          Builder.emitCmp(Operand::reg(V), Operand::imm(Boundary));
          ++Branches;
          if (TakenLeft) {
            // value <= boundary branches left; the right half falls
            // through.  A single-leaf taken side exits directly.
            BasicBlock *Taken = Lo == K
                                    ? exitEdge(Infos[Plan.Sorted[Lo]])
                                    : F.createBlock("reord.t4");
            BasicBlock *Fall = F.createBlock("reord.t4");
            Builder.emitCondBr(CondCode::LE, Taken, Fall);
            if (Lo != K)
              Emit(Lo, K, Taken);
            Emit(K + 1, Hi, Fall);
          } else {
            BasicBlock *Taken = K + 1 == Hi
                                    ? exitEdge(Infos[Plan.Sorted[Hi]])
                                    : F.createBlock("reord.t4");
            BasicBlock *Fall = F.createBlock("reord.t4");
            Builder.emitCondBr(CondCode::GT, Taken, Fall);
            if (K + 1 != Hi)
              Emit(K + 1, Hi, Taken);
            Emit(Lo, K, Fall);
          }
        };
    Emit(0, Infos.size() - 1, Seq.head());
    return Branches;
  }

  const RangeSequence &Seq;
  Function &F;
  const ReorderOptions &Opts;
  std::vector<RangeInfo> Infos;
  OrderingDecision Decision;
  std::unordered_set<BasicBlock *> SequenceBlocks;
};

} // namespace

SequenceOutcome bropt::reorderSequence(const RangeSequence &Seq,
                                       const ProfileDB &Profile,
                                       const ReorderOptions &Opts,
                                       ReorderStats *Stats,
                                       unsigned Ordinal) {
  if (Stats)
    ++Stats->Detected;
  ProfileLookupStatus Status = ProfileLookupStatus::Found;
  const ProfileEntry *Prof = Profile.lookupSequence(
      ProfileKind::RangeBins, Seq.F->getName(), Seq.signature(),
      Seq.Conds.size() + Seq.DefaultRanges.size(), Ordinal, &Status);
  if (!Prof) {
    if (Stats)
      ++Stats->ProfileProblems;
    return Status == ProfileLookupStatus::Missing
               ? SequenceOutcome::ProfileMissing
               : SequenceOutcome::ProfileMismatch;
  }
  if (Prof->totalExecutions() < Opts.MinExecutions) {
    if (Stats)
      ++Stats->NeverExecuted;
    return SequenceOutcome::NeverExecuted;
  }

  unsigned Before = Seq.branchCount();
  SequenceRewriter Rewriter(Seq, *Prof, Opts);
  auto Outcome = Rewriter.run();
  notifyPassObserver("branch-reordering", *Seq.F);
  if (Stats) {
    ++Stats->Reordered;
    if (Outcome.UsedJumpTable)
      ++Stats->JumpTables;
    if (Outcome.UsedTree)
      ++Stats->OptimalTrees;
    Stats->ChainModelCost += Outcome.ChainCost;
    Stats->ChosenModelCost += Outcome.ChosenCost;
    Stats->Lengths.push_back({Before, Outcome.Branches});
  }
  return SequenceOutcome::Reordered;
}

ReorderStats bropt::reorderSequences(
    Module &M, const std::vector<RangeSequence> &Sequences,
    const ProfileDB &Profile, const ReorderOptions &Opts) {
  ReorderStats Stats;
  std::unordered_set<Function *> Touched;
  SequenceKeyer Keyer;
  for (const RangeSequence &Seq : Sequences) {
    unsigned Ordinal = Keyer.next(ProfileKind::RangeBins, Seq.F->getName());
    SequenceOutcome Outcome =
        reorderSequence(Seq, Profile, Opts, &Stats, Ordinal);
    if (Outcome == SequenceOutcome::Reordered)
      Touched.insert(Seq.F);
  }
  for (Function *F : Touched)
    finalizeFunction(*F);
  return Stats;
}
