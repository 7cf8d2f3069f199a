//===- exec/ExecBackend.cpp - Uniform engine dispatch ---------------------===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "exec/ExecBackend.h"

#include "codegen/NativeRunner.h"
#include "runtime/AdaptiveController.h"

namespace bropt {

namespace {

RunResult runNative(const Module &M, const ExecRequest &Req) {
  const NativeProgram *Program = Req.Native;
  std::shared_ptr<const NativeProgram> Local;
  if (!Program) {
    std::string Error;
    Local = NativeRunner::shared().prepare(M, &Error);
    if (!Local) {
      RunResult Result;
      Result.Trapped = true;
      Result.TrapReason = "native compile failed: " + Error;
      return Result;
    }
    Program = Local.get();
  }
  return Program->run(Req.Input, {}, Req.InstructionLimit);
}

} // namespace

RunResult executeModule(const Module &M, Interpreter::Mode Mode,
                        const ExecRequest &Req) {
  if (Mode == Interpreter::Mode::Native)
    return runNative(M, Req);
  // Tier 2: each adaptive activation asks the controller which tier runs
  // it.  beginRun() hands back the hot-swapped native body, or null for an
  // interpreted run (RuntimeOptions::NativeTier off, not promoted yet, or
  // a drift recheck).
  if (Mode == Interpreter::Mode::Adaptive && Req.Adaptive)
    if (std::shared_ptr<const NativeProgram> Native = Req.Adaptive->beginRun())
      return Native->run(Req.Input, {}, Req.InstructionLimit);
  Interpreter Interp(M, Mode);
  if (Req.Adaptive)
    Req.Adaptive->attach(Interp); // installs tier-0 program and hooks
  else
    Interp.setPreparedProgram(Req.Prepared);
  Interp.setInput(Req.Input);
  Interp.setInstructionLimit(Req.InstructionLimit);
  if (Req.AttachedPredictor)
    Interp.attachPredictor(Req.AttachedPredictor);
  return Interp.run();
}

const char *execModeName(Interpreter::Mode Mode) {
  switch (Mode) {
  case Interpreter::Mode::Tree:
    return "tree";
  case Interpreter::Mode::Fused:
    return "fused";
  case Interpreter::Mode::Adaptive:
    return "adaptive";
  case Interpreter::Mode::Native:
    return "native";
  }
  return "unknown";
}

ModuleEdgeWeights collectEdgeWeights(const Module &M,
                                     const std::vector<std::string> &Inputs,
                                     uint64_t InstructionLimit) {
  // Tier 0 alone: the unfused stream on the threaded loop, bumping one
  // dense counter per executed (transfer, target) slot.
  std::vector<EdgeSlot> Slots;
  DecodedModule DM = DecodedModule::decode(M, &Slots);
  std::vector<uint64_t> Counts(Slots.size(), 0);
  Interpreter Interp(M, Interpreter::Mode::Adaptive);
  Interp.setPreparedProgram(&DM);
  Interp.setEdgeCounters(Counts.data());
  Interp.setInstructionLimit(InstructionLimit);
  for (const std::string &Input : Inputs) {
    Interp.setInput(Input);
    Interp.run();
  }
  // Slots that name one edge (taken == fall-through, shared switch
  // targets) merge under its key.
  ModuleEdgeWeights Weights;
  for (size_t Slot = 0; Slot < Slots.size(); ++Slot)
    if (Counts[Slot])
      Weights[DM.function(Slots[Slot].FuncIndex).Name].add(
          Slots[Slot].From, Slots[Slot].To, Counts[Slot]);
  return Weights;
}

std::optional<Interpreter::Mode> parseExecMode(std::string_view Name) {
  for (Interpreter::Mode Mode :
       {Interpreter::Mode::Tree, Interpreter::Mode::Fused,
        Interpreter::Mode::Adaptive, Interpreter::Mode::Native})
    if (Name == execModeName(Mode))
      return Mode;
  return std::nullopt;
}

} // namespace bropt
