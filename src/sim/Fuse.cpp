//===- sim/Fuse.cpp - Decode-time superinstruction fusion -----------------===//

#include "sim/Fuse.h"

#include "core/Range.h"
#include "core/SequenceDetection.h"
#include "cost/BranchCostModel.h"
#include "profile/ProfileDB.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

using namespace bropt;

namespace {

/// Mirrors the expansion rule in sim/Decoded.cpp: one decoded instruction
/// per IR instruction plus a synthetic TrapFellOff for terminator-less
/// blocks.
size_t decodedSize(const BasicBlock &Block) {
  return Block.size() + (Block.hasTerminator() ? 0 : 1);
}

/// Per-condition-block profile weights for one function, on final
/// (post-layout) compare instruction indices.
using CmpCountMap = std::unordered_map<uint32_t, uint64_t>;

/// Greedy hot-first block placement: follow each block's likely successor
/// (fall-through edge, conditional fall-through, unconditional target,
/// switch default) so the common case runs forward through the array.
/// Returns true if any block moved; rewrites DF in place and updates
/// \p StartOf (final start index per original block position).
bool layoutHotFirst(DecodedFunction &DF, std::vector<uint32_t> &StartOf,
                    const std::vector<uint32_t> &Sizes,
                    const BranchHotness *Hot, FuseStats &Stats) {
  const uint32_t NumBlocks = static_cast<uint32_t>(StartOf.size());
  std::unordered_map<uint32_t, uint32_t> StartToBlock;
  StartToBlock.reserve(NumBlocks);
  for (uint32_t B = 0; B < NumBlocks; ++B)
    StartToBlock.emplace(StartOf[B], B);

  auto likelySucc = [&](uint32_t B) -> int64_t {
    const DecodedInst &Term = DF.Insts[StartOf[B] + Sizes[B] - 1];
    uint32_t TargetStart;
    switch (Term.Op) {
    case DecodedOp::FallThrough:
    case DecodedOp::Jump:
    case DecodedOp::Switch: // default target is the likely continuation
      TargetStart = Term.Target0;
      break;
    case DecodedOp::CondBr:
      // Static guess: the fall-through edge — which the compiler's
      // repositioning pass already placed adjacent, so following it alone
      // reproduces the identity layout.  Measured counts override it:
      // when the branch is observed mostly taken, the taken target is the
      // hot continuation and gets placed next instead.
      TargetStart = Hot && Hot->mostlyTaken(Term.Dest) ? Term.Target0
                                                       : Term.Target1;
      break;
    default:
      return -1;
    }
    auto It = StartToBlock.find(TargetStart);
    return It == StartToBlock.end() ? -1 : static_cast<int64_t>(It->second);
  };

  std::vector<uint32_t> Order;
  Order.reserve(NumBlocks);
  std::vector<bool> Placed(NumBlocks, false);
  for (uint32_t Seed = 0; Seed < NumBlocks; ++Seed) {
    int64_t B = Seed;
    while (B >= 0 && !Placed[B]) {
      Placed[B] = true;
      Order.push_back(static_cast<uint32_t>(B));
      B = likelySucc(static_cast<uint32_t>(B));
    }
  }
  assert(Order.size() == NumBlocks && "layout dropped a block");
  assert((Order.empty() || Order[0] == 0) && "entry block must stay first");

  // With measured branch counts, also build an ext-TSP style candidate:
  // greedy chain merging along the heaviest edges, then chain
  // concatenation — the same algorithm the compiler's profile-guided
  // layout uses (opt/Repositioning.cpp), here over the decoded stream.
  // Keep whichever order places more measured weight on adjacent pairs,
  // so the upgrade is never worse than the greedy follow.
  if (Hot && !Hot->empty() && NumBlocks > 2) {
    struct BlockEdge {
      uint32_t From, To;
      uint64_t Weight;
    };
    std::unordered_map<uint64_t, uint64_t> WeightOf;
    std::vector<BlockEdge> Edges;
    auto blockOfStart = [&](uint32_t TargetStart) -> int64_t {
      auto It = StartToBlock.find(TargetStart);
      return It == StartToBlock.end() ? -1
                                      : static_cast<int64_t>(It->second);
    };
    auto addEdge = [&](uint32_t From, int64_t To, uint64_t Weight) {
      if (To < 0 || static_cast<uint32_t>(To) == From || Weight == 0)
        return;
      uint64_t Key = static_cast<uint64_t>(From) << 32 |
                     static_cast<uint32_t>(To);
      if (WeightOf.emplace(Key, Weight).second)
        Edges.push_back({From, static_cast<uint32_t>(To), Weight});
    };
    for (uint32_t B = 0; B < NumBlocks; ++B) {
      const DecodedInst &Term = DF.Insts[StartOf[B] + Sizes[B] - 1];
      switch (Term.Op) {
      case DecodedOp::FallThrough:
      case DecodedOp::Jump:
      case DecodedOp::Switch:
        addEdge(B, blockOfStart(Term.Target0), 1);
        break;
      case DecodedOp::CondBr: {
        const uint32_t Id = Term.Dest;
        const uint64_t Total =
            Id < Hot->Total.size() ? Hot->Total[Id] : 0;
        const uint64_t Taken =
            Id < Hot->Taken.size() ? Hot->Taken[Id] : 0;
        addEdge(B, blockOfStart(Term.Target0), Taken);
        addEdge(B, blockOfStart(Term.Target1),
                std::max<uint64_t>(Total - Taken, 1));
        break;
      }
      default:
        break;
      }
    }
    std::sort(Edges.begin(), Edges.end(),
              [](const BlockEdge &A, const BlockEdge &B) {
                if (A.Weight != B.Weight)
                  return A.Weight > B.Weight;
                if (A.From != B.From)
                  return A.From < B.From;
                return A.To < B.To;
              });

    std::vector<std::vector<uint32_t>> Chains(NumBlocks);
    std::vector<uint32_t> ChainOf(NumBlocks);
    for (uint32_t B = 0; B < NumBlocks; ++B) {
      Chains[B] = {B};
      ChainOf[B] = B;
    }
    for (const BlockEdge &Edge : Edges) {
      const uint32_t FC = ChainOf[Edge.From], TC = ChainOf[Edge.To];
      if (FC == TC || Edge.To == 0) // entry must head its chain forever
        continue;
      if (Chains[FC].back() != Edge.From || Chains[TC].front() != Edge.To)
        continue;
      for (uint32_t B : Chains[TC])
        ChainOf[B] = FC;
      Chains[FC].insert(Chains[FC].end(), Chains[TC].begin(),
                        Chains[TC].end());
      Chains[TC].clear();
    }

    // Concatenate: entry chain first, then repeatedly the chain whose head
    // is reached most heavily from the current tail (smallest head block
    // as the deterministic tiebreak).
    auto weightBetween = [&](uint32_t From, uint32_t To) -> uint64_t {
      auto It =
          WeightOf.find(static_cast<uint64_t>(From) << 32 | To);
      return It == WeightOf.end() ? 0 : It->second;
    };
    std::vector<uint32_t> Candidate;
    Candidate.reserve(NumBlocks);
    std::vector<bool> Taken(NumBlocks, false);
    uint32_t Cur = ChainOf[0];
    while (true) {
      Taken[Cur] = true;
      Candidate.insert(Candidate.end(), Chains[Cur].begin(),
                       Chains[Cur].end());
      int64_t Best = -1;
      uint64_t BestWeight = 0;
      for (uint32_t C = 0; C < NumBlocks; ++C) {
        if (Taken[C] || Chains[C].empty())
          continue;
        uint64_t W = weightBetween(Candidate.back(), Chains[C].front());
        if (Best < 0 || W > BestWeight) {
          Best = C;
          BestWeight = W;
        }
      }
      if (Best < 0)
        break;
      Cur = static_cast<uint32_t>(Best);
    }
    assert(Candidate.size() == NumBlocks && "chain merge dropped a block");

    auto adjacentWeight = [&](const std::vector<uint32_t> &O) {
      uint64_t Sum = 0;
      for (size_t I = 0; I + 1 < O.size(); ++I)
        Sum += weightBetween(O[I], O[I + 1]);
      return Sum;
    };
    // Keep-best via the shared layout tie-break (cost/BranchCostModel.h):
    // the merged chain must be strictly better or the hot-first order —
    // the deterministic incumbent — stays.
    if (BranchCostModel::layoutPrefers(
            static_cast<double>(adjacentWeight(Candidate)),
            static_cast<double>(adjacentWeight(Order))))
      Order = std::move(Candidate);
  }

  uint64_t Moved = 0;
  for (uint32_t Pos = 0; Pos < NumBlocks; ++Pos)
    if (Order[Pos] != Pos)
      ++Moved;
  if (!Moved)
    return false;

  // New start index per original block, and old start -> new start for
  // target remapping (every branch target is a block start).
  std::vector<uint32_t> NewStartOf(NumBlocks);
  std::unordered_map<uint32_t, uint32_t> OldToNewStart;
  OldToNewStart.reserve(NumBlocks);
  uint32_t Pos = 0;
  for (uint32_t B : Order) {
    NewStartOf[B] = Pos;
    OldToNewStart.emplace(StartOf[B], Pos);
    Pos += Sizes[B];
  }

  std::vector<DecodedInst> NewInsts;
  NewInsts.reserve(DF.Insts.size());
  for (uint32_t B : Order)
    NewInsts.insert(NewInsts.end(), DF.Insts.begin() + StartOf[B],
                    DF.Insts.begin() + StartOf[B] + Sizes[B]);

  auto Remap = [&](uint32_t Target) {
    auto It = OldToNewStart.find(Target);
    assert(It != OldToNewStart.end() && "branch target is not a block start");
    return It->second;
  };
  for (DecodedInst &DI : NewInsts) {
    switch (DI.Op) {
    case DecodedOp::CondBr:
      DI.Target0 = Remap(DI.Target0);
      DI.Target1 = Remap(DI.Target1);
      break;
    case DecodedOp::Jump:
    case DecodedOp::FallThrough:
    case DecodedOp::Switch: // cases remapped via the side table below
      DI.Target0 = Remap(DI.Target0);
      break;
    default: // Call::Target0 is a function index; leave everything else
      break;
    }
  }
  for (DecodedCase &Case : DF.Cases)
    Case.Target = Remap(Case.Target);
  for (uint32_t &Target : DF.JumpTables)
    Target = Remap(Target);

  DF.Insts = std::move(NewInsts);
  StartOf = std::move(NewStartOf);
  ++Stats.FunctionsLaidOut;
  Stats.BlocksMoved += Moved;
  return true;
}

/// Longest chain a single MultiCmp may swallow.
constexpr unsigned MaxChainArms = 24;

/// Rewrites [Cmp; CondBr] pairs and ladders of them into CmpBr / MultiCmp
/// macro-ops.  Every ladder suffix that is independently reachable gets its
/// own macro-op, so jumps into the middle of a chain stay valid.
void fuseFunction(DecodedFunction &DF, const CmpCountMap &CmpCount,
                  FuseStats &Stats) {
  const uint32_t NumInsts = static_cast<uint32_t>(DF.Insts.size());

  // Fall-through transfers are free and their targets are block starts, so
  // resolving through them is unobservable.  The hop cap guards pathological
  // fall-through cycles.
  auto Resolve = [&](uint32_t Target) {
    for (int Hop = 0; Hop < 64 && DF.Insts[Target].Op == DecodedOp::FallThrough;
         ++Hop)
      Target = DF.Insts[Target].Target0;
    return Target;
  };

  std::vector<FusedArm> ChainArms;
  std::vector<uint64_t> ArmCount;
  std::vector<bool> ArmHasCount;
  std::unordered_set<uint32_t> Visited;

  for (uint32_t Head = 0; Head + 1 < NumInsts; ++Head) {
    if (DF.Insts[Head].Op != DecodedOp::Cmp ||
        DF.Insts[Head + 1].Op != DecodedOp::CondBr)
      continue;

    ChainArms.clear();
    ArmCount.clear();
    ArmHasCount.clear();
    Visited.clear();

    // Walk the ladder: each pair's fall-through edge (with free
    // fall-throughs resolved) must land directly on the next pair.
    uint32_t Cur = Head;
    uint32_t DefaultTarget = 0;
    while (ChainArms.size() < MaxChainArms && Cur + 1 < NumInsts &&
           DF.Insts[Cur].Op == DecodedOp::Cmp &&
           DF.Insts[Cur + 1].Op == DecodedOp::CondBr &&
           Visited.insert(Cur).second) {
      const DecodedInst &Cmp = DF.Insts[Cur];
      const DecodedInst &Br = DF.Insts[Cur + 1];
      FusedArm Arm;
      Arm.Lhs = Cmp.A;
      Arm.Rhs = Cmp.B;
      Arm.Pred = static_cast<CondCode>(Br.SubOp);
      Arm.BranchId = Br.Dest;
      Arm.Target = Resolve(Br.Target0);
      ChainArms.push_back(Arm);
      auto CountIt = CmpCount.find(Cur);
      ArmHasCount.push_back(CountIt != CmpCount.end());
      ArmCount.push_back(CountIt != CmpCount.end() ? CountIt->second : 0);
      DefaultTarget = Resolve(Br.Target1);
      Cur = DefaultTarget;
    }
    assert(!ChainArms.empty() && "head pair must form at least one arm");
    const uint32_t NumArms = static_cast<uint32_t>(ChainArms.size());

    if (NumArms == 1) {
      const FusedArm &Arm = ChainArms.front();
      DecodedInst MacroOp;
      MacroOp.Op = DecodedOp::CmpBr;
      MacroOp.SubOp = static_cast<uint8_t>(Arm.Pred);
      MacroOp.Dest = Arm.BranchId;
      MacroOp.A = Arm.Lhs;
      MacroOp.B = Arm.Rhs;
      MacroOp.Target0 = Arm.Target;
      MacroOp.Target1 = DefaultTarget;
      DF.Insts[Head] = MacroOp;
      continue;
    }

    // Execution order: hottest-first when profile counts exist and the
    // reorder is provably sound — all arms test the same slot against
    // constants whose truth intervals are pairwise nonoverlapping (paper
    // Theorem 1), so at most one arm can be true and any test order finds
    // the unique logical winner.
    std::vector<uint32_t> Exec(NumArms);
    std::iota(Exec.begin(), Exec.end(), 0);
    bool AnyCount = false;
    for (bool Has : ArmHasCount)
      AnyCount |= Has;
    if (AnyCount) {
      bool CanReorder = true;
      std::vector<Range> Truth;
      Truth.reserve(NumArms);
      for (const FusedArm &Arm : ChainArms) {
        // NE's truth set is not contiguous: not reorderable.
        if (Arm.Lhs.Slot != ChainArms.front().Lhs.Slot ||
            Arm.Rhs.Slot < DF.NumRegs || Arm.Pred == CondCode::NE) {
          CanReorder = false;
          break;
        }
        Truth.push_back(
            takenInterval(Arm.Pred, DF.Constants[Arm.Rhs.Slot - DF.NumRegs]));
      }
      if (CanReorder)
        for (uint32_t I = 0; I < NumArms && CanReorder; ++I)
          for (uint32_t J = I + 1; J < NumArms; ++J)
            if (Truth[I].overlaps(Truth[J])) {
              CanReorder = false;
              break;
            }
      if (CanReorder) {
        std::stable_sort(Exec.begin(), Exec.end(),
                         [&](uint32_t A, uint32_t B) {
                           return ArmCount[A] > ArmCount[B];
                         });
        if (!std::is_sorted(Exec.begin(), Exec.end()))
          ++Stats.ProfileOrderedChains;
      }
    }

    DecodedInst MacroOp;
    MacroOp.Op = DecodedOp::MultiCmp;
    MacroOp.Target0 = DefaultTarget;
    MacroOp.Extra = static_cast<uint32_t>(DF.Arms.size());
    MacroOp.ExtraCount = NumArms;
    DF.Arms.insert(DF.Arms.end(), ChainArms.begin(), ChainArms.end());
    DF.ArmExec.insert(DF.ArmExec.end(), Exec.begin(), Exec.end());
    DF.Insts[Head] = MacroOp;
    ++Stats.FusedChains;
  }
}

/// Folds the straight-line instruction before each fused CmpBr into it.
/// After pair fusion a block that tests a freshly produced value looks
/// like [ops..., X, CmpBr, <stale CondBr>]; X sits mid-block (or at the
/// block start when the block is exactly the triple), so the only way to
/// reach it is fall-through from above or a branch to the block start —
/// both land on the rewritten macro-op.  The CmpBr slot it absorbs
/// becomes unreachable (branches only target block starts).
void fusePreOps(DecodedFunction &DF, const std::vector<uint32_t> &StartOf,
                const std::vector<uint32_t> &Sizes) {
  for (size_t B = 0; B < StartOf.size(); ++B) {
    // A fused pair block is [pre-ops..., CmpBr at Z-2, stale CondBr].
    if (Sizes[B] < 3)
      continue;
    const uint32_t BrIdx = StartOf[B] + Sizes[B] - 2;
    if (DF.Insts[BrIdx].Op != DecodedOp::CmpBr)
      continue;
    const DecodedInst Br = DF.Insts[BrIdx];
    const DecodedInst X = DF.Insts[BrIdx - 1];

    // Instrumented code interposes a Profile hook between the producer and
    // the compare; fold the hook (and a producing ReadChar before it) into
    // the CmpBr so profile collection runs fused too.
    if (X.Op == DecodedOp::Profile) {
      DecodedInst MacroOp;
      MacroOp.SubOp = Br.SubOp;
      MacroOp.A = Br.A;
      MacroOp.B = Br.B;
      MacroOp.Target0 = Br.Target0;
      MacroOp.Target1 = Br.Target1;
      MacroOp.Extra = X.Dest;        // sequence id
      MacroOp.ExtraCount = X.A.Slot; // profiled value slot
      if (Sizes[B] >= 4 && DF.Insts[BrIdx - 2].Op == DecodedOp::ReadChar) {
        MacroOp.Op = DecodedOp::ReadCharProfileCmpBr;
        MacroOp.Dest = DF.Insts[BrIdx - 2].Dest;
        MacroOp.Imm = Br.Dest; // branch id
        DF.Insts[BrIdx - 2] = MacroOp;
      } else {
        MacroOp.Op = DecodedOp::ProfileCmpBr;
        MacroOp.Dest = Br.Dest; // branch id
        DF.Insts[BrIdx - 1] = MacroOp;
      }
      continue;
    }

    DecodedInst MacroOp;
    MacroOp.SubOp = Br.SubOp;
    MacroOp.Extra = Br.Dest; // branch id
    MacroOp.Target0 = Br.Target0;
    MacroOp.Target1 = Br.Target1;
    switch (X.Op) {
    case DecodedOp::Move:
      MacroOp.Op = DecodedOp::MoveCmpBr;
      MacroOp.Dest = X.Dest;
      MacroOp.A = X.A;
      MacroOp.B = Br.A;
      MacroOp.ExtraCount = Br.B.Slot;
      break;
    case DecodedOp::Binary:
      MacroOp.Op = DecodedOp::BinCmpBr;
      MacroOp.SubOp = static_cast<uint8_t>(X.SubOp << 3 | Br.SubOp);
      MacroOp.Dest = X.Dest;
      MacroOp.A = X.A;
      MacroOp.B = X.B;
      MacroOp.Imm = Br.A.Slot;
      MacroOp.ExtraCount = Br.B.Slot;
      break;
    case DecodedOp::Load:
      MacroOp.Op = DecodedOp::LoadCmpBr;
      MacroOp.Dest = X.Dest;
      MacroOp.A = X.A;
      MacroOp.Imm = X.Imm;
      MacroOp.ExtraCount = Br.A.Slot;
      MacroOp.B = Br.B;
      break;
    case DecodedOp::ReadChar:
      MacroOp.Op = DecodedOp::ReadCharCmpBr;
      MacroOp.Dest = X.Dest;
      MacroOp.A = Br.A;
      MacroOp.B = Br.B;
      break;
    default:
      continue;
    }
    DF.Insts[BrIdx - 1] = MacroOp;
  }
}

/// Folds the straight-line instruction at the end of each Jump-terminated
/// block into the Jump itself.  Same reachability argument as fusePreOps:
/// the rewritten instruction sits at or after the block start, the
/// absorbed Jump slot is never a branch target (targets only land on block
/// starts), and the macro-op counts both logical instructions.
void fuseJumps(DecodedFunction &DF, const std::vector<uint32_t> &StartOf,
               const std::vector<uint32_t> &Sizes) {
  for (size_t B = 0; B < StartOf.size(); ++B) {
    if (Sizes[B] < 2)
      continue;
    const uint32_t JumpIdx = StartOf[B] + Sizes[B] - 1;
    if (DF.Insts[JumpIdx].Op != DecodedOp::Jump)
      continue;
    DecodedInst &X = DF.Insts[JumpIdx - 1];
    switch (X.Op) {
    case DecodedOp::Move:
      X.Op = DecodedOp::MoveJump;
      break;
    case DecodedOp::Binary:
      X.Op = DecodedOp::BinJump;
      break;
    case DecodedOp::Load:
      X.Op = DecodedOp::LoadJump;
      break;
    case DecodedOp::Store:
      X.Op = DecodedOp::StoreJump;
      break;
    default:
      continue;
    }
    X.Target0 = DF.Insts[JumpIdx].Target0;
  }
}

/// Greedy left-to-right fusion of adjacent straight-line pairs inside each
/// block: LoadBin, Bin2, BinStore, and — because fuseJumps has already
/// run — Binary + StoreJump into BinStoreJump.  The absorbed second slot
/// goes stale until compactFunction drops it; mid-block slots are never
/// branch targets.
void fuseStraightPairs(DecodedFunction &DF,
                       const std::vector<uint32_t> &StartOf,
                       const std::vector<uint32_t> &Sizes) {
  for (size_t B = 0; B < StartOf.size(); ++B) {
    const uint32_t End = StartOf[B] + Sizes[B];
    for (uint32_t I = StartOf[B]; I + 1 < End; ++I) {
      DecodedInst &X = DF.Insts[I];
      const DecodedInst &Y = DF.Insts[I + 1];
      if (X.Op == DecodedOp::Load && Y.Op == DecodedOp::Binary) {
        X.Op = DecodedOp::LoadBin;
        X.SubOp = Y.SubOp;
        X.Extra = Y.Dest;
        X.Target0 = Y.A.Slot;
        X.Target1 = Y.B.Slot;
        // Upgrade to the load/compute/store-back triple when the next
        // instruction stores exactly the binary's result and the store
        // offset survives the int32 packing.  A StoreJump tail upgrades
        // one step further — the read-modify-write-loop-back idiom — but
        // then the load offset must also fit in int32, because Imm has to
        // carry the jump target in its upper half.
        if (I + 2 < End &&
            (DF.Insts[I + 2].Op == DecodedOp::Store ||
             DF.Insts[I + 2].Op == DecodedOp::StoreJump) &&
            DF.Insts[I + 2].B.Slot == Y.Dest &&
            DF.Insts[I + 2].Imm ==
                static_cast<int32_t>(DF.Insts[I + 2].Imm) &&
            (DF.Insts[I + 2].Op == DecodedOp::Store ||
             X.Imm == static_cast<int32_t>(X.Imm))) {
          const DecodedInst &St = DF.Insts[I + 2];
          X.B.Slot = St.A.Slot; // store base
          X.ExtraCount =
              static_cast<uint32_t>(static_cast<int32_t>(St.Imm));
          if (St.Op == DecodedOp::Store) {
            X.Op = DecodedOp::LoadBinStore;
          } else {
            X.Op = DecodedOp::LoadBinStoreJump;
            X.Imm = static_cast<int64_t>(
                static_cast<uint64_t>(St.Target0) << 32 |
                static_cast<uint32_t>(static_cast<int32_t>(X.Imm)));
          }
          ++I; // skip the absorbed store as well
        }
      } else if (X.Op == DecodedOp::Move && Y.Op == DecodedOp::Move) {
        X.Op = DecodedOp::Move2;
        X.Extra = Y.Dest;
        X.ExtraCount = Y.A.Slot;
      } else if (X.Op == DecodedOp::Binary && Y.Op == DecodedOp::Binary) {
        X.Op = DecodedOp::Bin2;
        X.SubOp = static_cast<uint8_t>(X.SubOp | Y.SubOp << 4);
        X.Extra = Y.Dest;
        X.Target0 = Y.A.Slot;
        X.Target1 = Y.B.Slot;
      } else if (X.Op == DecodedOp::Binary &&
                 (Y.Op == DecodedOp::Store || Y.Op == DecodedOp::StoreJump)) {
        X.Op = Y.Op == DecodedOp::Store ? DecodedOp::BinStore
                                        : DecodedOp::BinStoreJump;
        X.Imm = Y.Imm;
        X.Extra = Y.A.Slot;
        X.ExtraCount = Y.B.Slot;
        X.Target0 = Y.Target0; // jump target (meaningful for StoreJump)
      } else if (X.Op == DecodedOp::Store && Y.Op == DecodedOp::Load &&
                 I + 2 < End && DF.Insts[I + 2].Op == DecodedOp::Binary &&
                 X.Imm == static_cast<int32_t>(X.Imm) &&
                 Y.Imm == static_cast<int32_t>(Y.Imm)) {
        // Store + Load + Binary.  Both offsets must survive int32 packing
        // because Imm carries store offset (high) and load offset (low).
        // The handler performs the store before the load, so a load that
        // reads the just-stored address still sees the new value.
        const DecodedInst &Bin = DF.Insts[I + 2];
        const uint32_t StoreBase = X.A.Slot;
        const uint32_t StoreValue = X.B.Slot;
        const uint64_t StoreOff =
            static_cast<uint32_t>(static_cast<int32_t>(X.Imm));
        X.Op = DecodedOp::StoreLoadBin;
        X.Dest = Y.Dest;
        X.A = Y.A;
        X.Imm = static_cast<int64_t>(
            StoreOff << 32 |
            static_cast<uint32_t>(static_cast<int32_t>(Y.Imm)));
        X.SubOp = Bin.SubOp;
        X.Target0 = Bin.A.Slot;
        X.Target1 = Bin.B.Slot;
        X.Extra = Bin.Dest;
        X.B.Slot = StoreBase;
        X.ExtraCount = StoreValue;
        ++I; // skip the absorbed binary as well
      } else if (X.Op == DecodedOp::PutChar && Y.Op == DecodedOp::Load &&
                 I + 2 < End && DF.Insts[I + 2].Op == DecodedOp::Binary) {
        // PutChar + Load + Binary — the output-then-advance idiom in the
        // character-processing workloads.
        const DecodedInst &Bin = DF.Insts[I + 2];
        const uint32_t CharSlot = X.A.Slot;
        X.Op = DecodedOp::PutCharLoadBin;
        X.Dest = Y.Dest;
        X.A = Y.A;
        X.Imm = Y.Imm;
        X.SubOp = Bin.SubOp;
        X.Target0 = Bin.A.Slot;
        X.Target1 = Bin.B.Slot;
        X.Extra = Bin.Dest;
        X.B.Slot = CharSlot;
        ++I; // skip the absorbed binary as well
      } else {
        continue;
      }
      ++I; // skip the absorbed slot
    }
  }
}

/// Drops every slot the fusion passes made dead — second/third slots
/// absorbed into macro-ops and whole condition blocks swallowed by chains —
/// and renumbers the survivors densely.  Liveness is computed by walking
/// the instruction graph from the entry slot with exactly the successor
/// rules the dispatch loop uses, so no per-pass stale bookkeeping is
/// needed.  After compaction every straight-line macro-op's successor is
/// the adjacent slot, which is why the pair/triple handlers in
/// sim/Threaded.cpp advance with BROPT_NEXT rather than skipping stale
/// slots.  Call::Target0 is a function index and TrapFellOff::Dest a label
/// index; neither is remapped.
void compactFunction(DecodedFunction &DF, FuseStats &Stats,
                     std::vector<uint32_t> *FinalIndexOut = nullptr) {
  const size_t N = DF.Insts.size();
  if (FinalIndexOut)
    FinalIndexOut->assign(N, UINT32_MAX);
  if (N == 0)
    return;

  std::vector<uint8_t> Live(N, 0);
  std::vector<uint32_t> Work;
  Live[0] = 1; // execFused enters every function at slot 0
  Work.push_back(0);
  auto Mark = [&](uint32_t T) {
    if (!Live[T]) {
      Live[T] = 1;
      Work.push_back(T);
    }
  };
  while (!Work.empty()) {
    const uint32_t I = Work.back();
    Work.pop_back();
    const DecodedInst &Inst = DF.Insts[I];
    switch (Inst.Op) {
    case DecodedOp::Ret:
    case DecodedOp::TrapFellOff:
      break;
    case DecodedOp::Jump:
    case DecodedOp::FallThrough:
    case DecodedOp::MoveJump:
    case DecodedOp::BinJump:
    case DecodedOp::LoadJump:
    case DecodedOp::StoreJump:
    case DecodedOp::BinStoreJump:
      Mark(Inst.Target0);
      break;
    case DecodedOp::LoadBinStoreJump:
      Mark(static_cast<uint32_t>(static_cast<uint64_t>(Inst.Imm) >> 32));
      break;
    case DecodedOp::CondBr:
    case DecodedOp::CmpBr:
    case DecodedOp::MoveCmpBr:
    case DecodedOp::BinCmpBr:
    case DecodedOp::LoadCmpBr:
    case DecodedOp::ReadCharCmpBr:
    case DecodedOp::ProfileCmpBr:
    case DecodedOp::ReadCharProfileCmpBr:
      Mark(Inst.Target0);
      Mark(Inst.Target1);
      break;
    case DecodedOp::Switch:
      Mark(Inst.Target0);
      for (uint32_t C = 0; C < Inst.ExtraCount; ++C)
        Mark(DF.Cases[Inst.Extra + C].Target);
      break;
    case DecodedOp::IndirectJump:
      for (uint32_t C = 0; C < Inst.ExtraCount; ++C)
        Mark(DF.JumpTables[Inst.Extra + C]);
      break;
    case DecodedOp::MultiCmp:
      Mark(Inst.Target0);
      for (uint32_t A = 0; A < Inst.ExtraCount; ++A)
        Mark(DF.Arms[Inst.Extra + A].Target);
      break;
    case DecodedOp::LoadBin:
    case DecodedOp::Bin2:
    case DecodedOp::BinStore:
    case DecodedOp::Move2:
      Mark(static_cast<uint32_t>(I + 2));
      break;
    case DecodedOp::LoadBinStore:
    case DecodedOp::StoreLoadBin:
    case DecodedOp::PutCharLoadBin:
      Mark(static_cast<uint32_t>(I + 3));
      break;
    default: // every remaining op falls through to the next slot
      Mark(static_cast<uint32_t>(I + 1));
      break;
    }
  }

  std::vector<uint32_t> NewIdx(N, 0);
  uint32_t Kept = 0;
  for (size_t I = 0; I < N; ++I) {
    NewIdx[I] = Kept;
    Kept += Live[I];
  }
  if (FinalIndexOut)
    for (size_t I = 0; I < N; ++I)
      if (Live[I])
        (*FinalIndexOut)[I] = NewIdx[I];
  if (Kept == N)
    return;
  Stats.CompactedSlots += N - Kept;

  // Remap the instruction-index fields of live instructions.  Side-table
  // slices (cases, jump tables, chain arms) are owned by exactly one
  // instruction, so each live owner remaps its own slice once.
  for (size_t I = 0; I < N; ++I) {
    if (!Live[I])
      continue;
    DecodedInst &Inst = DF.Insts[I];
    switch (Inst.Op) {
    case DecodedOp::Jump:
    case DecodedOp::FallThrough:
    case DecodedOp::MoveJump:
    case DecodedOp::BinJump:
    case DecodedOp::LoadJump:
    case DecodedOp::StoreJump:
    case DecodedOp::BinStoreJump:
      Inst.Target0 = NewIdx[Inst.Target0];
      break;
    case DecodedOp::LoadBinStoreJump:
      Inst.Imm = static_cast<int64_t>(
          static_cast<uint64_t>(
              NewIdx[static_cast<uint32_t>(static_cast<uint64_t>(Inst.Imm) >>
                                           32)])
              << 32 |
          static_cast<uint32_t>(Inst.Imm));
      break;
    case DecodedOp::CondBr:
    case DecodedOp::CmpBr:
    case DecodedOp::MoveCmpBr:
    case DecodedOp::BinCmpBr:
    case DecodedOp::LoadCmpBr:
    case DecodedOp::ReadCharCmpBr:
    case DecodedOp::ProfileCmpBr:
    case DecodedOp::ReadCharProfileCmpBr:
      Inst.Target0 = NewIdx[Inst.Target0];
      Inst.Target1 = NewIdx[Inst.Target1];
      break;
    case DecodedOp::Switch:
      Inst.Target0 = NewIdx[Inst.Target0];
      for (uint32_t C = 0; C < Inst.ExtraCount; ++C)
        DF.Cases[Inst.Extra + C].Target =
            NewIdx[DF.Cases[Inst.Extra + C].Target];
      break;
    case DecodedOp::IndirectJump:
      for (uint32_t C = 0; C < Inst.ExtraCount; ++C)
        DF.JumpTables[Inst.Extra + C] = NewIdx[DF.JumpTables[Inst.Extra + C]];
      break;
    case DecodedOp::MultiCmp:
      Inst.Target0 = NewIdx[Inst.Target0];
      for (uint32_t A = 0; A < Inst.ExtraCount; ++A)
        DF.Arms[Inst.Extra + A].Target = NewIdx[DF.Arms[Inst.Extra + A].Target];
      break;
    default:
      break;
    }
  }

  std::vector<DecodedInst> Compacted;
  Compacted.reserve(Kept);
  for (size_t I = 0; I < N; ++I)
    if (Live[I])
      Compacted.push_back(DF.Insts[I]);
  DF.Insts = std::move(Compacted);
}

} // namespace

DecodedModule bropt::decodeFused(const Module &M, const FuseOptions &Opts,
                                 FuseStats *StatsOut, SwapMap *Swap) {
  DecodedModule DM = DecodedModule::decode(M);
  FuseStats Stats;
  if (Swap) {
    Swap->FusedIndexOf.clear();
    Swap->FusedIndexOf.resize(DM.Functions.size());
  }

  // Match profile records to condition blocks through the same detector and
  // signature check pass 2 uses; each condition block's trailing compare
  // gets its bin's hit count as ordering weight.
  std::unordered_map<const Function *,
                     std::vector<std::pair<const BasicBlock *, uint64_t>>>
      ProfiledBlocks;
  if (Opts.Profile && Opts.Profile->numSequences()) {
    std::vector<RangeSequence> Seqs = detectSequences(M);
    SequenceKeyer Keyer;
    for (const RangeSequence &Seq : Seqs) {
      const ProfileEntry *Prof = Opts.Profile->lookupSequence(
          ProfileKind::RangeBins, Seq.F->getName(), Seq.signature(),
          Seq.Conds.size() + Seq.DefaultRanges.size(),
          Keyer.next(ProfileKind::RangeBins, Seq.F->getName()));
      if (!Prof)
        continue;
      auto &List = ProfiledBlocks[Seq.F];
      for (size_t Bin = 0; Bin < Seq.Conds.size(); ++Bin)
        for (const BasicBlock *Block : Seq.Conds[Bin].Blocks)
          List.emplace_back(Block, Prof->BinCounts[Bin]);
    }
  }

  size_t FuncIndex = 0;
  for (const auto &F : M) {
    DecodedFunction &DF = DM.Functions[FuncIndex++];
    if (!DF.HasBody)
      continue;

    // Block boundaries, recomputed exactly as decode() laid them out.
    std::vector<uint32_t> StartOf;
    std::vector<uint32_t> Sizes;
    std::unordered_map<const BasicBlock *, uint32_t> BlockIndex;
    uint32_t Next = 0;
    for (const auto &Block : *F) {
      BlockIndex.emplace(Block.get(), static_cast<uint32_t>(StartOf.size()));
      StartOf.push_back(Next);
      Sizes.push_back(static_cast<uint32_t>(decodedSize(*Block)));
      Next += Sizes.back();
    }
    assert(Next == DF.Insts.size() && "block boundaries out of sync");

    // Plain (pre-layout) block starts: the coordinate system swap maps
    // are keyed by, shared with the tier-0 decoded program.
    std::vector<uint32_t> PlainStartOf;
    if (Swap)
      PlainStartOf = StartOf;

    layoutHotFirst(DF, StartOf, Sizes, Opts.Hotness, Stats);

    // Profile weights on final compare indices: a condition block ends in
    // [cmp; condbr], so its compare sits two before the block's end.
    CmpCountMap CmpCount;
    if (auto It = ProfiledBlocks.find(F.get()); It != ProfiledBlocks.end()) {
      for (const auto &[Block, Count] : It->second) {
        auto IdxIt = BlockIndex.find(Block);
        if (IdxIt == BlockIndex.end() || Sizes[IdxIt->second] < 2)
          continue;
        uint32_t CmpIdx =
            StartOf[IdxIt->second] + Sizes[IdxIt->second] - 2;
        if (DF.Insts[CmpIdx].Op == DecodedOp::Cmp)
          CmpCount[CmpIdx] += Count;
      }
    }

    fuseFunction(DF, CmpCount, Stats);
    fusePreOps(DF, StartOf, Sizes);
    fuseJumps(DF, StartOf, Sizes);
    fuseStraightPairs(DF, StartOf, Sizes);
    // Always last: the straight-line macro-op handlers assume a compacted
    // stream (they advance one slot, not past stale ones).
    std::vector<uint32_t> FinalIndex;
    compactFunction(DF, Stats, Swap ? &FinalIndex : nullptr);

    // Swap map: plain block start -> final fused index of that block's
    // first instruction.  Layout moved starts (StartOf tracks it) and
    // compaction renumbered them (FinalIndex); fusion itself rewrites
    // in place, so a surviving block's start slot stays its entry.
    // Blocks swallowed whole by a chain are absent — a swap at one gets
    // deferred to the next safe point.
    if (Swap) {
      auto &Map = Swap->FusedIndexOf[DF.FuncIndex];
      for (size_t B = 0; B < PlainStartOf.size(); ++B) {
        const uint32_t L = StartOf[B];
        if (L < FinalIndex.size() && FinalIndex[L] != UINT32_MAX)
          Map.emplace(PlainStartOf[B], FinalIndex[L]);
      }
    }
  }

  if (StatsOut)
    *StatsOut = Stats;
  return DM;
}
