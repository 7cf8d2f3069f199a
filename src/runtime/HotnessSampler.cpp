//===- runtime/HotnessSampler.cpp - Sampled branch-bias collection --------===//

#include "runtime/HotnessSampler.h"

#include "ir/CFG.h"
#include "ir/Module.h"
#include "sim/Interpreter.h"

using namespace bropt;

void bropt::exportHotnessToProfile(const Module &M, const BranchHotness &H,
                                   ProfileDB &DB, uint64_t Scale) {
  const std::vector<uint32_t> FirstId = numberBranches(M).FirstId;
  size_t FuncIndex = 0;
  for (const auto &F : M) {
    const size_t First = FirstId[FuncIndex];
    const size_t Branches = FirstId[++FuncIndex] - First;
    if (!Branches)
      continue;
    FunctionHotness &Record = DB.functionHotness(F->getName(), Branches);
    for (size_t Id = 0; Id < Branches && First + Id < H.Total.size(); ++Id) {
      Record.Taken[Id] += H.Taken[First + Id] * Scale;
      Record.Total[Id] += H.Total[First + Id] * Scale;
    }
  }
}

size_t bropt::importHotnessFromProfile(const Module &M, const ProfileDB &DB,
                                       BranchHotness &H) {
  const std::vector<uint32_t> FirstId = numberBranches(M).FirstId;
  H.Taken.assign(FirstId.back(), 0);
  H.Total.assign(FirstId.back(), 0);

  size_t Imported = 0;
  size_t FuncIndex = 0;
  for (const auto &F : M) {
    const size_t First = FirstId[FuncIndex];
    const size_t Branches = FirstId[++FuncIndex] - First;
    const FunctionHotness *Record = DB.findFunctionHotness(F->getName());
    if (Record && Record->Total.size() == Branches && Branches) {
      for (size_t Id = 0; Id < Branches; ++Id) {
        H.Taken[First + Id] = Record->Taken[Id];
        H.Total[First + Id] = Record->Total[Id];
      }
      ++Imported;
    }
  }
  return Imported;
}

BranchHotness bropt::collectBranchHotness(const Module &M,
                                          std::string_view Input,
                                          uint64_t InstructionLimit) {
  DecodedModule DM = DecodedModule::decode(M);

  BranchHotness H;
  H.Taken.assign(DM.numBranchIds(), 0);
  H.Total.assign(DM.numBranchIds(), 0);

  AdaptiveHooks Hooks;
  Hooks.SampleInterval = 1;
  Hooks.SampleCountdown = 1;
  Hooks.OnSample = [&H](uint32_t, uint32_t BranchId, bool Taken, int64_t) {
    if (BranchId < H.Total.size()) {
      ++H.Total[BranchId];
      H.Taken[BranchId] += Taken;
    }
  };

  Interpreter I(M, Interpreter::Mode::Adaptive);
  I.setPreparedProgram(&DM);
  I.setAdaptiveHooks(&Hooks);
  I.setInput(Input);
  if (InstructionLimit)
    I.setInstructionLimit(InstructionLimit);
  I.run();
  return H;
}
