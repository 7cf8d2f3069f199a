//===- cost/MachineModel.h - Machine cycle-cost models ----------*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameterisable per-event cycle costs — the whole-run half of the cost
/// layer (DESIGN.md "The cost layer").  The paper measured (via the
/// dual-loop method) that indirect jumps on the SPARC Ultra I cost about
/// four times what they cost on the SPARC IPC / SPARC 20, which motivated
/// Heuristic Set II.  We expose that as a machine-model knob so the benches
/// can report model cycles under both machines.
///
/// DynamicCounts lives here too: it is the event vector the machine models
/// price.  The sim/ engines fill one per run (sim/Interpreter.h) and every
/// layer above prices it through computeCycles without depending on sim/.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_COST_MACHINEMODEL_H
#define BROPT_COST_MACHINEMODEL_H

#include <cstdint>
#include <string>

namespace bropt {

/// Dynamic event counters for one run.
struct DynamicCounts {
  uint64_t TotalInsts = 0;    ///< all executed instructions except Profile
  uint64_t CondBranches = 0;  ///< executed CondBr instructions
  uint64_t TakenBranches = 0; ///< CondBr executions that were taken
  uint64_t UncondJumps = 0;   ///< executed Jump instructions
  uint64_t IndirectJumps = 0; ///< executed IndirectJump instructions
  uint64_t Compares = 0;      ///< executed Cmp instructions
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t Calls = 0;
  uint64_t ProfileHooks = 0; ///< instrumentation executions (not in TotalInsts)

  bool operator==(const DynamicCounts &) const = default;
};

/// Per-event cycle costs of an idealized single-issue machine.
struct MachineModel {
  std::string Name = "generic";
  /// Base cost of every executed instruction.
  uint32_t BaseCost = 1;
  /// Extra cycles for an indirect jump beyond the base cost (includes the
  /// jump-table load).  1 on IPC/20-like machines, 7 on Ultra-like ones
  /// (4x the IPC total of 2 cycles, per the paper's dual-loop measurement).
  uint32_t IndirectJumpExtra = 1;
  /// Extra cycles charged per branch misprediction when a predictor is
  /// attached to the run.
  uint32_t MispredictPenalty = 4;
  /// Extra cycles for a *taken* conditional branch beyond the base cost.
  /// Fall-through is free; a taken branch redirects the fetch stream even
  /// when predicted (Baer, "On Conditional Branches in Optimal Decision
  /// Trees").  This is the asymmetry the Set IV comparison-tree lowering
  /// and the ext-TSP layout both optimize against.
  uint32_t TakenBranchExtra = 0;

  /// SPARC IPC / SPARC 20-like machine: cheap indirect jumps.
  static MachineModel sparcIPCLike();

  /// SPARC Ultra I-like machine: indirect jumps ~4x more expensive.
  static MachineModel sparcUltraLike();
};

/// Computes model cycles for the events in \p Counts, charging
/// \p Mispredictions if a predictor was attached.
uint64_t computeCycles(const MachineModel &Model, const DynamicCounts &Counts,
                       uint64_t Mispredictions = 0);

} // namespace bropt

#endif // BROPT_COST_MACHINEMODEL_H
