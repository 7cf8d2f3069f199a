//===- sim/Interpreter.cpp - IR interpreter with event counters ----------===//

#include "sim/Interpreter.h"

#include "ir/CFG.h"
#include "predict/BranchPredictor.h"
#include "sim/Fuse.h"
#include "support/Debug.h"
#include "support/Strings.h"

#include <optional>

using namespace bropt;

Interpreter::Interpreter(const Module &M, Mode ExecMode)
    : M(M), ExecutionMode(ExecMode) {}

void Interpreter::trap(std::string Reason) {
  if (Aborted)
    return;
  Aborted = true;
  Result.Trapped = true;
  Result.TrapReason = std::move(Reason);
}

int64_t Interpreter::readOperand(const Operand &Op,
                                 const std::vector<int64_t> &Regs) const {
  if (Op.isImm())
    return Op.getImm();
  assert(Op.isReg() && "reading a none operand");
  assert(Op.getReg() < Regs.size() && "register out of range");
  return Regs[Op.getReg()];
}

RunResult Interpreter::run(const std::string &EntryName,
                           const std::vector<int64_t> &Args) {
  Result = RunResult();
  Aborted = false;
  InputCursor = 0;

  if (ExecutionMode == Mode::Native) {
    // sim/ cannot see codegen/; the exec layer dispatches native runs.
    trap("native mode requires the exec backend (use "
         "executeModule from exec/ExecBackend.h)");
    return Result;
  }

  // (Re)initialize global memory.
  Memory.assign(M.memorySize(), 0);
  for (const auto &Global : M.globals())
    for (size_t Index = 0; Index < Global->Init.size(); ++Index)
      Memory[Global->BaseAddress + Index] = Global->Init[Index];

  assert((!EdgeCounts || (ExecutionMode == Mode::Adaptive && !Hooks)) &&
         "edge counters need the unfused stream");
  if (ExecutionMode == Mode::Fused || ExecutionMode == Mode::Adaptive) {
    // Without a prepared program, re-decode on every run: decoding is
    // O(static size) — noise next to the dynamic counts — and passes
    // mutate modules between runs.  Callers that run one module many
    // times inject a cached program via setPreparedProgram().
    std::optional<DecodedModule> Owned;
    const DecodedModule *DM = Prepared;
    if (!DM) {
      Owned.emplace(ExecutionMode == Mode::Fused ? decodeFused(M)
                                                 : DecodedModule::decode(M));
      DM = &*Owned;
    }
    const DecodedFunction *Entry = DM->getFunction(EntryName);
    if (!Entry) {
      trap(formatString("entry function '%s' not found", EntryName.c_str()));
      return Result;
    }
    if (Args.size() != Entry->NumParams) {
      trap("argument count mismatch for entry function");
      return Result;
    }
    // Both modes share the threaded loop.  Adaptive starts in tier 0, the
    // unfused stream; hot activations migrate to fused streams through the
    // AdaptiveHooks safe-point checks.  The (m,n) table scheme, which the
    // paper's measurements attach to every run, gets the instantiation
    // that steps it in loop locals.
    if (EdgeCounts)
      Result.ExitValue =
          execFused<true, PredictorFeed::Virtual>(*DM, *Entry, Args, 0);
    else if (dynamic_cast<BranchPredictor *>(AttachedPredictor))
      Result.ExitValue =
          execFused<false, PredictorFeed::Table>(*DM, *Entry, Args, 0);
    else
      Result.ExitValue =
          execFused<false, PredictorFeed::Virtual>(*DM, *Entry, Args, 0);
    if (AttachedPredictor)
      Result.Prediction = AttachedPredictor->getStats();
    return Result;
  }

  const Function *Entry = M.getFunction(EntryName);
  if (!Entry) {
    trap(formatString("entry function '%s' not found", EntryName.c_str()));
    return Result;
  }
  if (Args.size() != Entry->getNumParams()) {
    trap("argument count mismatch for entry function");
    return Result;
  }

  // The tree walker feeds the predictor by branch id, so it numbers the
  // branches, but only for a run that has a predictor to feed.
  if (AttachedPredictor)
    TreeBranchIds = numberBranches(M).IdOf;
  Result.ExitValue = execFunction(*Entry, Args, 0);
  if (AttachedPredictor)
    Result.Prediction = AttachedPredictor->getStats();
  return Result;
}

int64_t Interpreter::execFunction(const Function &F,
                                  const std::vector<int64_t> &Args,
                                  unsigned Depth) {
  if (Depth > MaxCallDepth) {
    trap("call depth limit exceeded");
    return 0;
  }
  assert(Args.size() == F.getNumParams() && "bad argument count");
  if (F.empty()) {
    trap(formatString("function '%s' has no body", F.getName().c_str()));
    return 0;
  }

  std::vector<int64_t> Regs(F.getNumRegs(), 0);
  for (size_t Index = 0; Index < Args.size(); ++Index)
    Regs[Index] = Args[Index];

  // Condition codes: the operands of the most recent Cmp.
  int64_t CCLhs = 0, CCRhs = 0;

  const BasicBlock *Block = &F.getEntryBlock();
  size_t InstIndex = 0;
  DynamicCounts &Counts = Result.Counts;

  while (!Aborted) {
    if (InstIndex >= Block->size()) {
      trap(Block->getLabel() + " fell off the end (no terminator)");
      return 0;
    }
    const Instruction *Inst = Block->getInstruction(InstIndex);

    if (Inst->getKind() == InstKind::Profile) {
      // Instrumentation: counted separately, never in TotalInsts.
      ++Counts.ProfileHooks;
      const auto *Prof = cast<ProfileInst>(Inst);
      if (OnProfile)
        OnProfile(Prof->getSequenceId(), Regs[Prof->getValueReg()]);
      ++InstIndex;
      continue;
    }

    if (Inst->getKind() == InstKind::ComboProfile) {
      ++Counts.ProfileHooks;
      const auto *Prof = cast<ComboProfileInst>(Inst);
      if (OnComboProfile) {
        int64_t Mask = 0;
        const auto &Conditions = Prof->getConditions();
        for (size_t Bit = 0; Bit < Conditions.size(); ++Bit)
          if (evalCondCode(Conditions[Bit].Pred,
                           readOperand(Conditions[Bit].Lhs, Regs),
                           readOperand(Conditions[Bit].Rhs, Regs)))
            Mask |= int64_t{1} << Bit;
        OnComboProfile(Prof->getSequenceId(), Mask);
      }
      ++InstIndex;
      continue;
    }

    if (Inst->getKind() == InstKind::Jump &&
        cast<JumpInst>(Inst)->isFallThrough()) {
      // A layout fall-through costs nothing, exactly like block adjacency
      // in machine code.
      Block = cast<JumpInst>(Inst)->getTarget();
      InstIndex = 0;
      continue;
    }

    if (++Counts.TotalInsts > InstructionLimit) {
      trap("instruction limit exceeded");
      return 0;
    }

    switch (Inst->getKind()) {
    case InstKind::Move: {
      const auto *Move = cast<MoveInst>(Inst);
      Regs[Move->getDest()] = readOperand(Move->getSrc(), Regs);
      break;
    }
    case InstKind::Binary: {
      const auto *Bin = cast<BinaryInst>(Inst);
      int64_t Lhs = readOperand(Bin->getLhs(), Regs);
      int64_t Rhs = readOperand(Bin->getRhs(), Regs);
      int64_t Value = 0;
      // Wrap-around semantics via unsigned arithmetic.
      uint64_t UL = static_cast<uint64_t>(Lhs), UR = static_cast<uint64_t>(Rhs);
      switch (Bin->getOp()) {
      case BinaryOp::Add:
        Value = static_cast<int64_t>(UL + UR);
        break;
      case BinaryOp::Sub:
        Value = static_cast<int64_t>(UL - UR);
        break;
      case BinaryOp::Mul:
        Value = static_cast<int64_t>(UL * UR);
        break;
      case BinaryOp::Div:
        if (Rhs == 0) {
          trap("division by zero");
          return 0;
        }
        if (Lhs == INT64_MIN && Rhs == -1) {
          trap("division overflow");
          return 0;
        }
        Value = Lhs / Rhs;
        break;
      case BinaryOp::Rem:
        if (Rhs == 0) {
          trap("remainder by zero");
          return 0;
        }
        if (Lhs == INT64_MIN && Rhs == -1) {
          trap("remainder overflow");
          return 0;
        }
        Value = Lhs % Rhs;
        break;
      case BinaryOp::And:
        Value = Lhs & Rhs;
        break;
      case BinaryOp::Or:
        Value = Lhs | Rhs;
        break;
      case BinaryOp::Xor:
        Value = Lhs ^ Rhs;
        break;
      case BinaryOp::Shl:
        Value = static_cast<int64_t>(UL << (UR & 63));
        break;
      case BinaryOp::Shr:
        Value = Lhs >> (UR & 63);
        break;
      }
      Regs[Bin->getDest()] = Value;
      break;
    }
    case InstKind::Unary: {
      const auto *Un = cast<UnaryInst>(Inst);
      int64_t Src = readOperand(Un->getSrc(), Regs);
      Regs[Un->getDest()] =
          Un->getOp() == UnaryOp::Neg
              ? static_cast<int64_t>(-static_cast<uint64_t>(Src))
              : (Src == 0 ? 1 : 0);
      break;
    }
    case InstKind::Load: {
      const auto *Load = cast<LoadInst>(Inst);
      ++Counts.Loads;
      int64_t Address = readOperand(Load->getBase(), Regs) + Load->getOffset();
      if (Address < 0 || static_cast<uint64_t>(Address) >= Memory.size()) {
        trap(formatString("load from invalid address %lld",
                          static_cast<long long>(Address)));
        return 0;
      }
      Regs[Load->getDest()] = Memory[static_cast<size_t>(Address)];
      break;
    }
    case InstKind::Store: {
      const auto *Store = cast<StoreInst>(Inst);
      ++Counts.Stores;
      int64_t Address =
          readOperand(Store->getBase(), Regs) + Store->getOffset();
      if (Address < 0 || static_cast<uint64_t>(Address) >= Memory.size()) {
        trap(formatString("store to invalid address %lld",
                          static_cast<long long>(Address)));
        return 0;
      }
      Memory[static_cast<size_t>(Address)] =
          readOperand(Store->getValue(), Regs);
      break;
    }
    case InstKind::Cmp: {
      const auto *Cmp = cast<CmpInst>(Inst);
      ++Counts.Compares;
      CCLhs = readOperand(Cmp->getLhs(), Regs);
      CCRhs = readOperand(Cmp->getRhs(), Regs);
      break;
    }
    case InstKind::Call: {
      const auto *Call = cast<CallInst>(Inst);
      ++Counts.Calls;
      std::vector<int64_t> CallArgs;
      CallArgs.reserve(Call->getArgs().size());
      for (const Operand &Arg : Call->getArgs())
        CallArgs.push_back(readOperand(Arg, Regs));
      int64_t Value = execFunction(*Call->getCallee(), CallArgs, Depth + 1);
      if (Aborted)
        return 0;
      if (Call->getDef())
        Regs[*Call->getDef()] = Value;
      break;
    }
    case InstKind::ReadChar: {
      const auto *Read = cast<ReadCharInst>(Inst);
      if (InputCursor < Input.size())
        Regs[Read->getDest()] =
            static_cast<unsigned char>(Input[InputCursor++]);
      else
        Regs[Read->getDest()] = -1;
      break;
    }
    case InstKind::PutChar: {
      int64_t Byte = readOperand(cast<PutCharInst>(Inst)->getSrc(), Regs);
      Result.Output.push_back(static_cast<char>(Byte & 0xff));
      break;
    }
    case InstKind::PrintInt: {
      int64_t Value = readOperand(cast<PrintIntInst>(Inst)->getSrc(), Regs);
      Result.Output +=
          formatString("%lld\n", static_cast<long long>(Value));
      break;
    }
    case InstKind::Profile:
    case InstKind::ComboProfile:
      BROPT_UNREACHABLE("profile hooks handled above");
    case InstKind::CondBr: {
      const auto *Br = cast<CondBrInst>(Inst);
      ++Counts.CondBranches;
      bool Taken = evalCondCode(Br->getPred(), CCLhs, CCRhs);
      if (Taken)
        ++Counts.TakenBranches;
      if (AttachedPredictor)
        AttachedPredictor->observe(TreeBranchIds.find(Inst)->second, Taken);
      Block = Taken ? Br->getTaken() : Br->getFallThrough();
      InstIndex = 0;
      continue;
    }
    case InstKind::Jump: {
      ++Counts.UncondJumps;
      Block = cast<JumpInst>(Inst)->getTarget();
      InstIndex = 0;
      continue;
    }
    case InstKind::Switch: {
      // High-level form; interpretable so lowering can be tested
      // differentially.  Counted as a single instruction.
      const auto *Sw = cast<SwitchInst>(Inst);
      int64_t Value = readOperand(Sw->getValue(), Regs);
      Block = Sw->getDefault();
      for (const SwitchInst::Case &Case : Sw->getCases())
        if (Case.Value == Value) {
          Block = Case.Target;
          break;
        }
      InstIndex = 0;
      continue;
    }
    case InstKind::IndirectJump: {
      const auto *Ind = cast<IndirectJumpInst>(Inst);
      ++Counts.IndirectJumps;
      int64_t Index = readOperand(Ind->getIndex(), Regs);
      if (Index < 0 ||
          static_cast<uint64_t>(Index) >= Ind->getTable().size()) {
        trap(formatString("indirect jump index %lld out of range",
                          static_cast<long long>(Index)));
        return 0;
      }
      Block = Ind->getTable()[static_cast<size_t>(Index)];
      InstIndex = 0;
      continue;
    }
    case InstKind::Ret: {
      const auto *Ret = cast<RetInst>(Inst);
      return Ret->hasValue() ? readOperand(Ret->getValue(), Regs) : 0;
    }
    }
    ++InstIndex;
  }
  return 0;
}
