//===- opt/Liveness.h - Register and condition-code liveness ----*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backward dataflow computing per-block live-out register sets and whether
/// condition codes are live out of each block.  Used by dead-code
/// elimination and by the reordering transformation's side-effect analysis
/// (paper Definition 6: an instruction is a side effect when its update can
/// reach a use outside the range condition).
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_OPT_LIVENESS_H
#define BROPT_OPT_LIVENESS_H

#include "ir/Function.h"

#include <unordered_map>
#include <vector>

namespace bropt {

/// Per-function liveness facts.
struct LivenessInfo {
  /// LiveOut[B][Reg] = register Reg is live when B's terminator completes.
  std::unordered_map<const BasicBlock *, std::vector<bool>> LiveOut;
  /// LiveIn[B][Reg] = register Reg is live when B is entered.
  std::unordered_map<const BasicBlock *, std::vector<bool>> LiveIn;
  /// CCLiveOut[B] = some path from B consumes the condition codes before
  /// writing them.
  std::unordered_map<const BasicBlock *, bool> CCLiveOut;
};

/// Computes liveness for \p F.
LivenessInfo computeLiveness(const Function &F);

} // namespace bropt

#endif // BROPT_OPT_LIVENESS_H
