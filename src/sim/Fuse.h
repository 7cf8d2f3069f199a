//===- sim/Fuse.h - Decode-time superinstruction fusion ---------*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Engine v2's decode-time peephole fuser: turns a plainly decoded module
/// into the fused form the threaded dispatch loop (sim/Threaded.cpp) runs.
///
/// Three rewrites, all observationally invisible (the fused engine stays
/// bit-identical to the tree walker — DynamicCounts, predictor feeds,
/// output bytes, traps, instruction-limit behaviour):
///
///  1. Hot-first layout: blocks are reordered greedily along likely
///     fall-through edges so the common case runs forward through the
///     instruction array.  Safe because every decoded block ends in an
///     explicit control transfer and targets are instruction indices.
///
///  2. Pair fusion: each [Cmp; CondBr] pair becomes one CmpBr macro-op,
///     halving dispatches on the paper-hot shape.
///
///  3. Chain fusion: a ladder of compare/branch pairs — exactly the
///     range-condition chains and linear-search switch lowerings the
///     compiler's own detector finds — becomes one MultiCmp
///     superinstruction.  When ProfileDB counts are available and the
///     arms are provably disjoint (same variable, constant bounds,
///     nonoverlapping truth ranges — paper Theorem 1), the *execution*
///     order of the arms is sorted hottest-first while all observable
///     effects still follow the logical (original) order.
///
/// See docs/SIM.md for the preserved-semantics argument.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_SIM_FUSE_H
#define BROPT_SIM_FUSE_H

#include "sim/Decoded.h"

#include <cstdint>

namespace bropt {

class ProfileDB;

/// Measured per-branch execution counts, indexed by branch id (the same
/// ids DecodedModule::decode assigns).  The adaptive runtime collects
/// these from sampled execution (runtime/HotnessSampler.h); the hot-first
/// layout uses them to follow the *measured* likely successor of each
/// conditional branch instead of the static fall-through guess — which
/// the compiler's repositioning pass has already made adjacent, so the
/// static guess alone never moves anything.
struct BranchHotness {
  std::vector<uint64_t> Taken;
  std::vector<uint64_t> Total;

  bool empty() const { return Total.empty(); }
  /// True when branch \p Id was observed taken more often than not.
  bool mostlyTaken(uint32_t Id) const {
    return Id < Total.size() && Total[Id] > 0 && 2 * Taken[Id] > Total[Id];
  }
};

/// What decodeFused() orders by.  Every rewrite always runs: hot-first
/// layout, pair and chain fusion, pre-op, jump and straight-line folding.
struct FuseOptions {
  /// Profile counts used to order fused chain arms hottest-first.  Bin
  /// counts are matched to compare instructions through the same sequence
  /// detector and keyed, signature-checked lookup pass 2 uses.  May be
  /// null.
  const ProfileDB *Profile = nullptr;

  /// Measured branch bias for the hot-first layout; may be null (layout
  /// then falls back to static likely-successor guesses).
  const BranchHotness *Hotness = nullptr;
};

/// What the fuser did, for tests and perfbench's traced run.
struct FuseStats {
  uint64_t FusedChains = 0;   ///< MultiCmp superinstructions emitted
  uint64_t ProfileOrderedChains = 0; ///< chains whose exec order ≠ logical
  uint64_t BlocksMoved = 0;   ///< blocks placed out of original order
  uint64_t FunctionsLaidOut = 0; ///< functions whose layout changed
  uint64_t CompactedSlots = 0; ///< stale/unreachable slots dropped
};

/// True when the fused dispatch loop (sim/Threaded.cpp) was built with
/// computed-goto (token-threaded) dispatch; false means the portable
/// switch fallback.  Purely informational — observables never differ.
bool fusedDispatchIsThreaded();

/// Correspondence between the plainly decoded stream and a fused stream of
/// the same module, at block-start granularity.  The adaptive runtime's
/// safe-point hot-swap (runtime/SwapPoint.h) uses it to translate an
/// activation's position across program versions: plain targets are always
/// block starts, so FusedIndexOf answers "where does this block live in
/// the fused stream", and its inverse answers the fused-to-plain question.
struct SwapMap {
  /// One map per function: plain block-start index -> index of the same
  /// block's first surviving instruction in the fused stream.  Blocks
  /// swallowed whole by fusion or unreachable after compaction are absent.
  std::vector<std::unordered_map<uint32_t, uint32_t>> FusedIndexOf;
};

/// Decodes \p M like DecodedModule::decode and then applies layout and
/// fusion, guided by \p Opts.  Pure with respect to \p M.  Branch ids, constant
/// pools, and side-table contents for unfused ops are unchanged;
/// DecodedInst indices generally are not (layout moves blocks).  When
/// \p Swap is non-null it is filled with the plain-to-fused block map.
DecodedModule decodeFused(const Module &M, const FuseOptions &Opts = {},
                          FuseStats *Stats = nullptr, SwapMap *Swap = nullptr);

} // namespace bropt

#endif // BROPT_SIM_FUSE_H
