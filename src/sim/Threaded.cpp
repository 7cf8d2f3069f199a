//===- sim/Threaded.cpp - Threaded-dispatch fused execution engine --------===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
// The one dispatch loop over the decoded format.  It executes fused
// programs (sim/Fuse.h) and the unfused stream adaptive tier 0 starts in
// (DecodedModule::decode) with token-threaded dispatch — on GCC/Clang each
// handler jumps directly to the next handler through a computed goto,
// giving the hardware one indirect-branch prediction site per handler
// instead of the single shared site a switch loop has; elsewhere a
// portable switch fallback expands from the same handler bodies.  Select
// at configure time with -DBROPT_THREADED_DISPATCH (CMake) or by
// predefining BROPT_COMPUTED_GOTO to 0/1.
//
// The macro-op handlers (CmpBr, MultiCmp) account for the *logical* IR
// instructions they stand for: DynamicCounts, predictor observations,
// condition-code state, and instruction-limit traps are bit-identical to
// the tree-walking reference, including trips in the middle of a fused chain
// (see docs/SIM.md for the argument and tests/sim/fused_test.cpp for the
// enforcement).
//
//===----------------------------------------------------------------------===//

#include "predict/BranchPredictor.h"
#include "sim/Fuse.h"
#include "sim/Interpreter.h"
#include "support/Debug.h"
#include "support/Strings.h"

using namespace bropt;

// Configure-time selection with a sensible default: the computed-goto
// extension exists exactly where __GNUC__ does (GCC and Clang).
#ifndef BROPT_COMPUTED_GOTO
#if defined(__GNUC__) || defined(__clang__)
#define BROPT_COMPUTED_GOTO 1
#else
#define BROPT_COMPUTED_GOTO 0
#endif
#endif

namespace {

/// Local inline copy of evalCondCode: one condition evaluation per branch;
/// an out-of-line call here is measurable.
inline bool evalCC(CondCode CC, int64_t Lhs, int64_t Rhs) {
  switch (CC) {
  case CondCode::EQ:
    return Lhs == Rhs;
  case CondCode::NE:
    return Lhs != Rhs;
  case CondCode::LT:
    return Lhs < Rhs;
  case CondCode::LE:
    return Lhs <= Rhs;
  case CondCode::GT:
    return Lhs > Rhs;
  case CondCode::GE:
    return Lhs >= Rhs;
  }
  BROPT_UNREACHABLE("unknown condition code");
}

} // namespace

template <bool CountEdges, Interpreter::PredictorFeed Feed>
int64_t Interpreter::execFused(const DecodedModule &DM,
                               const DecodedFunction &F,
                               const std::vector<int64_t> &Args,
                               unsigned Depth, size_t StartIndex,
                               const int64_t *ResumeRegs, int64_t ResumeCCLhs,
                               int64_t ResumeCCRhs) {
  if (Depth > MaxCallDepth) {
    trap("call depth limit exceeded");
    return 0;
  }
  assert((ResumeRegs || Args.size() == F.NumParams) && "bad argument count");
  if (!F.HasBody) {
    trap(formatString("function '%s' has no body", F.Name.c_str()));
    return 0;
  }

  // The execution frame: registers (zeroed, parameters first) followed by
  // the function's interned constants, so every operand read is one
  // branchless slot load.  Counters accumulate in locals and flush at
  // every exit and around recursive calls, so callees see (and extend)
  // exact global totals.  A hot-swapped
  // activation resumes with the register file copied from the frame it
  // left behind — fusion never changes NumRegs or the constant pool, so
  // the slot layout matches.
  std::vector<int64_t> Frame(F.numSlots(), 0);
  int64_t *Regs = Frame.data();
  if (ResumeRegs)
    std::copy(ResumeRegs, ResumeRegs + F.NumRegs, Regs);
  else
    std::copy(Args.begin(), Args.end(), Regs);
  std::copy(F.Constants.begin(), F.Constants.end(), Regs + F.NumRegs);

  // The predictor.  The Table instantiation (run() takes it only for a
  // BranchPredictor) steps the scheme's state in locals: no virtual call,
  // and no reloads of the table, history and stats through the predictor
  // object after each counter store, which as a uint8_t store may alias
  // anything.  flush() writes the history and the stats back, so the
  // predictor object is exact wherever control leaves this activation
  // (exits, calls, swaps), and loadTable() picks the history up again
  // after a call moved it on.  Every branch this instantiation executes is
  // observed, so the predictor's branch count is LC.CondBranches.
  Predictor *const Pred = AttachedPredictor;
  [[maybe_unused]] BranchPredictor *const TP =
      Feed == PredictorFeed::Table ? static_cast<BranchPredictor *>(Pred)
                                   : nullptr;
  [[maybe_unused]] TableState Table;
  [[maybe_unused]] BranchRecord *Records = nullptr;
  [[maybe_unused]] uint64_t Mispredictions = 0;
  auto loadTable = [&] {
    if constexpr (Feed == PredictorFeed::Table) {
      Table = TP->state();
      Records = TP->recordsFor(DM.numBranchIds());
    }
  };
  loadTable();

  DynamicCounts LC;
  // The total-instruction count runs as a countdown: Remaining starts at
  // the headroom under the limit, every logical instruction decrements it,
  // and flush() recovers the executed total as Budget - Remaining.  A
  // decrement-and-underflow test is cheaper than the increment + compare
  // it replaces on the hottest three instructions in the engine, and the
  // MultiCmp batch paths turn into a single subtraction.
  uint64_t Budget = InstructionLimit - Result.Counts.TotalInsts;
  uint64_t Remaining = Budget;
  uint64_t LimitTripped = 0; // 1 after the limit trap counted its inst
  auto flush = [&] {
    DynamicCounts &C = Result.Counts;
    C.TotalInsts += Budget - Remaining + LimitTripped;
    C.CondBranches += LC.CondBranches;
    C.TakenBranches += LC.TakenBranches;
    C.UncondJumps += LC.UncondJumps;
    C.IndirectJumps += LC.IndirectJumps;
    C.Compares += LC.Compares;
    C.Loads += LC.Loads;
    C.Stores += LC.Stores;
    C.Calls += LC.Calls;
    C.ProfileHooks += LC.ProfileHooks;
    if constexpr (Feed == PredictorFeed::Table) {
      TP->storeState(Table);
      TP->addStats(LC.CondBranches, Mispredictions);
      Mispredictions = 0;
    }
    LC = DynamicCounts();
    Budget = InstructionLimit - C.TotalInsts;
    Remaining = Budget;
    LimitTripped = 0;
  };

// Equivalent to the tree walker's `++Counts.TotalInsts > InstructionLimit`
// (the final count lands one past the limit, like the tree walker's:
// Budget instructions were already counted when the underflow fires, and
// LimitTripped adds the trapping instruction itself).
#define BROPT_COUNT_INST()                                                     \
  do {                                                                         \
    if (Remaining-- == 0) {                                                    \
      Remaining = 0;                                                           \
      LimitTripped = 1;                                                        \
      flush();                                                                 \
      trap("instruction limit exceeded");                                      \
      return 0;                                                                \
    }                                                                          \
  } while (0)

// One arithmetic evaluation with the tree walker's exact trap behaviour;
// shared by Binary and every macro-op that embeds a binary.  LHS/RHS/OUT
// must be int64_t lvalues.
#define BROPT_EVAL_BINARY(OP, LHS, RHS, OUT)                                   \
  do {                                                                         \
    uint64_t UL = static_cast<uint64_t>(LHS), UR = static_cast<uint64_t>(RHS); \
    switch (OP) {                                                              \
    case BinaryOp::Add:                                                        \
      OUT = static_cast<int64_t>(UL + UR);                                     \
      break;                                                                   \
    case BinaryOp::Sub:                                                        \
      OUT = static_cast<int64_t>(UL - UR);                                     \
      break;                                                                   \
    case BinaryOp::Mul:                                                        \
      OUT = static_cast<int64_t>(UL * UR);                                     \
      break;                                                                   \
    case BinaryOp::Div:                                                        \
      if (RHS == 0) {                                                          \
        flush();                                                               \
        trap("division by zero");                                              \
        return 0;                                                              \
      }                                                                        \
      if (LHS == INT64_MIN && RHS == -1) {                                     \
        flush();                                                               \
        trap("division overflow");                                             \
        return 0;                                                              \
      }                                                                        \
      OUT = LHS / RHS;                                                         \
      break;                                                                   \
    case BinaryOp::Rem:                                                        \
      if (RHS == 0) {                                                          \
        flush();                                                               \
        trap("remainder by zero");                                             \
        return 0;                                                              \
      }                                                                        \
      if (LHS == INT64_MIN && RHS == -1) {                                     \
        flush();                                                               \
        trap("remainder overflow");                                            \
        return 0;                                                              \
      }                                                                        \
      OUT = LHS % RHS;                                                         \
      break;                                                                   \
    case BinaryOp::And:                                                        \
      OUT = LHS & RHS;                                                         \
      break;                                                                   \
    case BinaryOp::Or:                                                         \
      OUT = LHS | RHS;                                                         \
      break;                                                                   \
    case BinaryOp::Xor:                                                        \
      OUT = LHS ^ RHS;                                                         \
      break;                                                                   \
    case BinaryOp::Shl:                                                        \
      OUT = static_cast<int64_t>(UL << (UR & 63));                             \
      break;                                                                   \
    case BinaryOp::Shr:                                                        \
      OUT = LHS >> (UR & 63);                                                  \
      break;                                                                   \
    }                                                                          \
  } while (0)

  int64_t CCLhs = ResumeCCLhs, CCRhs = ResumeCCRhs;
  const DecodedInst *Insts = F.Insts.data();
  // The simulated heap is sized once in exec() and never reallocated while
  // code runs; local copies let the compiler keep it in registers instead
  // of reloading the members after every store the handlers make.
  int64_t *const Mem = Memory.data();
  const uint64_t MemSize = Memory.size();
  // Edge counters (setEdgeCounters): touched only by the CountEdges
  // instantiation, so production runs carry no counting code at all.
  [[maybe_unused]] uint64_t *const Edges = EdgeCounts;
  size_t Index = StartIndex;

  // Adaptive-runtime hooks: null (one dead test per branch handler) unless
  // a controller is attached, and always null while counting edges (run()
  // asserts tier 0 alone).  The entry check lets an activation migrate to
  // a newer program version (drift re-optimization) before running.
  AdaptiveHooks *const AH = CountEdges ? nullptr : Hooks;
  if (AH && AH->TrySwap) {
    size_t NewIndex = 0;
    if (const DecodedModule *NewDM =
            AH->TrySwap(DM, F.FuncIndex, Index, NewIndex))
      return execFused<CountEdges, Feed>(*NewDM,
                                         NewDM->function(F.FuncIndex), Args,
                                         Depth, NewIndex, Regs, CCLhs, CCRhs);
  }

// Feeds one executed conditional branch to the attached predictor, if any.
#define BROPT_OBSERVE(BRANCH_ID, TAKEN)                                        \
  do {                                                                         \
    if constexpr (Feed == PredictorFeed::Table) {                              \
      const uint32_t Id = (BRANCH_ID);                                         \
      const bool Correct = Table.predictAndTrain(Id, (TAKEN)) == (TAKEN);      \
      Mispredictions += !Correct;                                              \
      if (Records)                                                             \
        Records[Id].count((TAKEN), Correct);                                   \
    } else if (Pred) {                                                         \
      Pred->observe((BRANCH_ID), (TAKEN));                                     \
    }                                                                          \
  } while (0)

// Sampled adaptive check at a safe point: Index was just assigned a branch
// target, which is always the start of a surviving block in the fused
// stream (MultiCmp arm targets resolve to independently reachable block
// starts).  Samples feed tiering only — never observable behaviour.
#define BROPT_ADAPTIVE_CHECK(BRANCH_ID, TAKEN, VALUE)                          \
  do {                                                                         \
    if (AH && --AH->SampleCountdown == 0) {                                    \
      AH->SampleCountdown = AH->SampleInterval;                                \
      if (AH->OnSample)                                                        \
        AH->OnSample(F.FuncIndex, (BRANCH_ID), (TAKEN), (VALUE));              \
      if (AH->TrySwap) {                                                       \
        size_t NewIndex = 0;                                                   \
        if (const DecodedModule *NewDM =                                       \
                AH->TrySwap(DM, F.FuncIndex, Index, NewIndex)) {               \
          flush();                                                             \
          return execFused<CountEdges, Feed>(                                  \
              *NewDM, NewDM->function(F.FuncIndex), Args, Depth, NewIndex,     \
              Regs, CCLhs, CCRhs);                                             \
        }                                                                      \
      }                                                                        \
    }                                                                          \
  } while (0)

// Dispatch plumbing.  Handler bodies are written once; BROPT_OP opens a
// handler and BROPT_DISPATCH transfers to the handler of Insts[Index].
// Every handler ends in BROPT_NEXT() (straight-line), BROPT_DISPATCH()
// (after assigning Index), or a return.
#if BROPT_COMPUTED_GOTO
  // One entry per DecodedOp, in enum order.
  static const void *JumpTable[] = {
      &&Op_Move,       &&Op_Binary,   &&Op_Unary,        &&Op_Load,
      &&Op_Store,      &&Op_Cmp,      &&Op_Call,         &&Op_ReadChar,
      &&Op_PutChar,    &&Op_PrintInt, &&Op_Profile,      &&Op_ComboProfile,
      &&Op_CondBr,     &&Op_Jump,     &&Op_FallThrough,  &&Op_Switch,
      &&Op_IndirectJump, &&Op_Ret,    &&Op_TrapFellOff,  &&Op_CmpBr,
      &&Op_MultiCmp,   &&Op_MoveCmpBr, &&Op_BinCmpBr,    &&Op_LoadCmpBr,
      &&Op_ReadCharCmpBr, &&Op_MoveJump, &&Op_BinJump,   &&Op_LoadJump,
      &&Op_StoreJump,  &&Op_LoadBin,   &&Op_Bin2,        &&Op_BinStore,
      &&Op_BinStoreJump, &&Op_Move2,   &&Op_LoadBinStore,
      &&Op_LoadBinStoreJump, &&Op_StoreLoadBin, &&Op_PutCharLoadBin,
      &&Op_ProfileCmpBr, &&Op_ReadCharProfileCmpBr};
  static_assert(sizeof(JumpTable) / sizeof(JumpTable[0]) == NumDecodedOps,
                "jump table must cover every DecodedOp");
#define BROPT_DISPATCH() goto *JumpTable[static_cast<uint8_t>(Insts[Index].Op)]
#define BROPT_OP(NAME) Op_##NAME:
#else
#define BROPT_DISPATCH() goto Dispatch
#define BROPT_OP(NAME) case DecodedOp::NAME:
#endif
#define BROPT_NEXT()                                                           \
  do {                                                                         \
    ++Index;                                                                   \
    BROPT_DISPATCH();                                                          \
  } while (0)

#if BROPT_COMPUTED_GOTO
  BROPT_DISPATCH();
#else
Dispatch:
  switch (Insts[Index].Op) {
#endif

  BROPT_OP(Move) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST();
    Regs[Inst.Dest] = Inst.A.read(Regs);
    BROPT_NEXT();
  }

  BROPT_OP(Binary) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST();
    int64_t Lhs = Inst.A.read(Regs);
    int64_t Rhs = Inst.B.read(Regs);
    int64_t Value = 0;
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp), Lhs, Rhs, Value);
    Regs[Inst.Dest] = Value;
    BROPT_NEXT();
  }

  BROPT_OP(Unary) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST();
    int64_t Src = Inst.A.read(Regs);
    Regs[Inst.Dest] = static_cast<UnaryOp>(Inst.SubOp) == UnaryOp::Neg
                          ? static_cast<int64_t>(-static_cast<uint64_t>(Src))
                          : (Src == 0 ? 1 : 0);
    BROPT_NEXT();
  }

  BROPT_OP(Load) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST();
    ++LC.Loads;
    int64_t Address = Inst.A.read(Regs) + Inst.Imm;
    if (Address < 0 || static_cast<uint64_t>(Address) >= MemSize) {
      flush();
      trap(formatString("load from invalid address %lld",
                        static_cast<long long>(Address)));
      return 0;
    }
    Regs[Inst.Dest] = Mem[static_cast<size_t>(Address)];
    BROPT_NEXT();
  }

  BROPT_OP(Store) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST();
    ++LC.Stores;
    int64_t Address = Inst.A.read(Regs) + Inst.Imm;
    if (Address < 0 || static_cast<uint64_t>(Address) >= MemSize) {
      flush();
      trap(formatString("store to invalid address %lld",
                        static_cast<long long>(Address)));
      return 0;
    }
    Mem[static_cast<size_t>(Address)] = Inst.B.read(Regs);
    BROPT_NEXT();
  }

  BROPT_OP(Cmp) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST();
    ++LC.Compares;
    CCLhs = Inst.A.read(Regs);
    CCRhs = Inst.B.read(Regs);
    BROPT_NEXT();
  }

  BROPT_OP(Call) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST();
    ++LC.Calls;
    int64_t Value;
    // The computed goto in BROPT_NEXT() does not run destructors for
    // locals it jumps over, so the argument vector must die in an inner
    // scope before the dispatch jump.
    {
      std::vector<int64_t> CallArgs;
      CallArgs.reserve(Inst.ExtraCount);
      const DecodedOperand *ArgSlice =
          Inst.ExtraCount ? &F.CallArgs[Inst.Extra] : nullptr;
      for (uint32_t ArgIndex = 0; ArgIndex < Inst.ExtraCount; ++ArgIndex)
        CallArgs.push_back(ArgSlice[ArgIndex].read(Regs));
      flush();
      Value = execFused<CountEdges, Feed>(DM, DM.function(Inst.Target0),
                                          CallArgs, Depth + 1);
    }
    if (Aborted)
      return 0;
    Budget = InstructionLimit - Result.Counts.TotalInsts;
    Remaining = Budget;
    loadTable();
    if (Inst.Dest != DecodedInst::NoReg)
      Regs[Inst.Dest] = Value;
    BROPT_NEXT();
  }

  BROPT_OP(ReadChar) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST();
    if (InputCursor < Input.size())
      Regs[Inst.Dest] = static_cast<unsigned char>(Input[InputCursor++]);
    else
      Regs[Inst.Dest] = -1;
    BROPT_NEXT();
  }

  BROPT_OP(PutChar) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST();
    Result.Output.push_back(static_cast<char>(Inst.A.read(Regs) & 0xff));
    BROPT_NEXT();
  }

  BROPT_OP(PrintInt) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST();
    Result.Output +=
        formatString("%lld\n", static_cast<long long>(Inst.A.read(Regs)));
    BROPT_NEXT();
  }

  BROPT_OP(Profile) {
    const DecodedInst &Inst = Insts[Index];
    // Instrumentation hooks never count toward TotalInsts or the limit.
    ++LC.ProfileHooks;
    if (OnProfile)
      OnProfile(Inst.Dest, Inst.A.read(Regs));
    BROPT_NEXT();
  }

  BROPT_OP(ComboProfile) {
    const DecodedInst &Inst = Insts[Index];
    ++LC.ProfileHooks;
    if (OnComboProfile) {
      int64_t Mask = 0;
      const DecodedCondition *Conds =
          Inst.ExtraCount ? &F.Conditions[Inst.Extra] : nullptr;
      for (uint32_t Bit = 0; Bit < Inst.ExtraCount; ++Bit)
        if (evalCC(Conds[Bit].Pred, Conds[Bit].Lhs.read(Regs),
                   Conds[Bit].Rhs.read(Regs)))
          Mask |= int64_t{1} << Bit;
      OnComboProfile(Inst.Dest, Mask);
    }
    BROPT_NEXT();
  }

  BROPT_OP(CondBr) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST();
    ++LC.CondBranches;
    const bool Taken = evalCC(static_cast<CondCode>(Inst.SubOp), CCLhs, CCRhs);
    if (Taken)
      ++LC.TakenBranches;
    BROPT_OBSERVE(Inst.Dest, Taken);
    if constexpr (CountEdges)
      ++Edges[Inst.Imm + !Taken];
    Index = Taken ? Inst.Target0 : Inst.Target1;
    BROPT_ADAPTIVE_CHECK(Inst.Dest, Taken, CCLhs);
    BROPT_DISPATCH();
  }

  BROPT_OP(Jump) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST();
    ++LC.UncondJumps;
    if constexpr (CountEdges)
      ++Edges[Inst.Imm];
    Index = Inst.Target0;
    BROPT_DISPATCH();
  }

  BROPT_OP(FallThrough) {
    // A layout fall-through executes for free, like in the tree walker.
    const DecodedInst &Inst = Insts[Index];
    if constexpr (CountEdges)
      ++Edges[Inst.Imm];
    Index = Inst.Target0;
    BROPT_DISPATCH();
  }

  BROPT_OP(Switch) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST();
    int64_t Value = Inst.A.read(Regs);
    const DecodedCase *CaseSlice =
        Inst.ExtraCount ? &F.Cases[Inst.Extra] : nullptr;
    // The first matching case wins; none leaves CaseIndex == ExtraCount,
    // which is also the default's edge slot.
    uint32_t CaseIndex = 0;
    while (CaseIndex < Inst.ExtraCount && CaseSlice[CaseIndex].Value != Value)
      ++CaseIndex;
    if constexpr (CountEdges)
      ++Edges[Inst.Imm + CaseIndex];
    Index = CaseIndex < Inst.ExtraCount ? CaseSlice[CaseIndex].Target
                                        : Inst.Target0;
    BROPT_DISPATCH();
  }

  BROPT_OP(IndirectJump) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST();
    ++LC.IndirectJumps;
    int64_t TableIndex = Inst.A.read(Regs);
    if (TableIndex < 0 ||
        static_cast<uint64_t>(TableIndex) >= Inst.ExtraCount) {
      flush();
      trap(formatString("indirect jump index %lld out of range",
                        static_cast<long long>(TableIndex)));
      return 0;
    }
    if constexpr (CountEdges)
      ++Edges[Inst.Imm + TableIndex];
    Index = F.JumpTables[Inst.Extra + static_cast<size_t>(TableIndex)];
    BROPT_DISPATCH();
  }

  BROPT_OP(Ret) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST();
    int64_t Value = Inst.SubOp ? Inst.A.read(Regs) : 0;
    flush();
    return Value;
  }

  BROPT_OP(TrapFellOff) {
    // The tree walker traps after exhausting the block's instructions
    // without executing anything further, so this must not count.
    flush();
    trap(F.Labels[Insts[Index].Dest] + " fell off the end (no terminator)");
    return 0;
  }

  BROPT_OP(CmpBr) {
    const DecodedInst &Inst = Insts[Index];
    // The logical Cmp …
    BROPT_COUNT_INST();
    ++LC.Compares;
    CCLhs = Inst.A.read(Regs);
    CCRhs = Inst.B.read(Regs);
    // … then the logical CondBr, in one dispatch.
    BROPT_COUNT_INST();
    ++LC.CondBranches;
    const bool Taken = evalCC(static_cast<CondCode>(Inst.SubOp), CCLhs, CCRhs);
    if (Taken)
      ++LC.TakenBranches;
    BROPT_OBSERVE(Inst.Dest, Taken);
    Index = Taken ? Inst.Target0 : Inst.Target1;
    BROPT_ADAPTIVE_CHECK(Inst.Dest, Taken, CCLhs);
    BROPT_DISPATCH();
  }

  BROPT_OP(MultiCmp) {
    const DecodedInst &Inst = Insts[Index];
    const FusedArm *Arms = &F.Arms[Inst.Extra];
    const uint32_t NumArms = Inst.ExtraCount;
    if (Feed == PredictorFeed::Virtual && !Pred &&
        Remaining >= 2ull * NumArms) {
      // Fast path: no predictor to feed and the limit cannot trip inside
      // the chain, so test arms in (possibly profile-reordered) execution
      // order and reconstruct the logical counts arithmetically.  The
      // fuser only reorders provably disjoint arms, so the first true arm
      // in any order is the unique logical winner; with the identity
      // order, the first true arm is the logical winner directly.
      const uint32_t *Exec = &F.ArmExec[Inst.Extra];
      uint32_t Winner = NumArms;
      for (uint32_t Pos = 0; Pos < NumArms; ++Pos) {
        const FusedArm &Arm = Arms[Exec[Pos]];
        if (evalCC(Arm.Pred, Arm.Lhs.read(Regs), Arm.Rhs.read(Regs))) {
          Winner = Exec[Pos];
          break;
        }
      }
      if (Winner < NumArms) {
        // Logically executed: arms 0..Winner (one Cmp + one CondBr each),
        // only the winner's branch taken.
        const FusedArm &Arm = Arms[Winner];
        Remaining -= 2ull * (Winner + 1);
        LC.Compares += Winner + 1;
        LC.CondBranches += Winner + 1;
        ++LC.TakenBranches;
        CCLhs = Arm.Lhs.read(Regs);
        CCRhs = Arm.Rhs.read(Regs);
        Index = Arm.Target;
      } else {
        // No match: every arm executed and fell through; condition codes
        // end up holding the last logical arm's operands.
        const FusedArm &Last = Arms[NumArms - 1];
        Remaining -= 2ull * NumArms;
        LC.Compares += NumArms;
        LC.CondBranches += NumArms;
        CCLhs = Last.Lhs.read(Regs);
        CCRhs = Last.Rhs.read(Regs);
        Index = Inst.Target0;
      }
      // One sample for the whole ladder, attributed to the first logical
      // arm — the ladder head — with its compare value, mirroring where
      // the unfused tier 0 samples the same sequence.
      BROPT_ADAPTIVE_CHECK(Arms[0].BranchId, Winner == 0,
                           Arms[0].Lhs.read(Regs));
      BROPT_DISPATCH();
    }
    if ((Feed == PredictorFeed::Table || Pred) &&
        Remaining >= 2ull * NumArms) {
      // Pred attached but the limit cannot trip inside the chain:
      // test and observe in logical order (observation order is part of
      // the contract — global-history predictors care) but batch the
      // count bookkeeping instead of paying two limit checks per arm.
      uint32_t Arm = 0;
      bool Matched = false;
      for (; Arm < NumArms; ++Arm) {
        const FusedArm &A = Arms[Arm];
        const bool Taken = evalCC(A.Pred, A.Lhs.read(Regs), A.Rhs.read(Regs));
        BROPT_OBSERVE(A.BranchId, Taken);
        if (Taken) {
          Matched = true;
          break;
        }
      }
      const uint32_t Executed = Matched ? Arm + 1 : NumArms;
      const FusedArm &LastArm = Arms[Matched ? Arm : NumArms - 1];
      Remaining -= 2ull * Executed;
      LC.Compares += Executed;
      LC.CondBranches += Executed;
      LC.TakenBranches += Matched;
      CCLhs = LastArm.Lhs.read(Regs);
      CCRhs = LastArm.Rhs.read(Regs);
      Index = Matched ? LastArm.Target : Inst.Target0;
      BROPT_ADAPTIVE_CHECK(Arms[0].BranchId, Matched && Arm == 0,
                           Arms[0].Lhs.read(Regs));
      BROPT_DISPATCH();
    }
    // Slow path: the instruction limit may trip mid-chain.  Replay the
    // arms in logical order with exact per-instruction accounting; still
    // one dispatch for the whole chain.
    {
      size_t Next = Inst.Target0;
      for (uint32_t Arm = 0; Arm < NumArms; ++Arm) {
        const FusedArm &A = Arms[Arm];
        BROPT_COUNT_INST();
        ++LC.Compares;
        CCLhs = A.Lhs.read(Regs);
        CCRhs = A.Rhs.read(Regs);
        BROPT_COUNT_INST();
        ++LC.CondBranches;
        const bool Taken = evalCC(A.Pred, CCLhs, CCRhs);
        if (Taken)
          ++LC.TakenBranches;
        BROPT_OBSERVE(A.BranchId, Taken);
        if (Taken) {
          Next = A.Target;
          break;
        }
      }
      Index = Next;
    }
    BROPT_DISPATCH();
  }

  // The pre-op macro-ops below stand for three logical instructions each:
  // the folded straight-line op, then the Cmp, then the CondBr, with the
  // same counting, trapping, and predictor feed order as unfused code.

  BROPT_OP(MoveCmpBr) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST(); // logical Move
    Regs[Inst.Dest] = Inst.A.read(Regs);
    BROPT_COUNT_INST(); // logical Cmp
    ++LC.Compares;
    CCLhs = Inst.B.read(Regs);
    CCRhs = Regs[Inst.ExtraCount];
    BROPT_COUNT_INST(); // logical CondBr
    ++LC.CondBranches;
    const bool Taken = evalCC(static_cast<CondCode>(Inst.SubOp), CCLhs, CCRhs);
    if (Taken)
      ++LC.TakenBranches;
    BROPT_OBSERVE(Inst.Extra, Taken);
    Index = Taken ? Inst.Target0 : Inst.Target1;
    BROPT_ADAPTIVE_CHECK(Inst.Extra, Taken, CCLhs);
    BROPT_DISPATCH();
  }

  BROPT_OP(BinCmpBr) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST(); // logical Binary
    int64_t Lhs = Inst.A.read(Regs);
    int64_t Rhs = Inst.B.read(Regs);
    int64_t Value = 0;
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp >> 3), Lhs, Rhs, Value);
    Regs[Inst.Dest] = Value;
    BROPT_COUNT_INST(); // logical Cmp
    ++LC.Compares;
    CCLhs = Regs[static_cast<uint32_t>(Inst.Imm)];
    CCRhs = Regs[Inst.ExtraCount];
    BROPT_COUNT_INST(); // logical CondBr
    ++LC.CondBranches;
    const bool Taken =
        evalCC(static_cast<CondCode>(Inst.SubOp & 7), CCLhs, CCRhs);
    if (Taken)
      ++LC.TakenBranches;
    BROPT_OBSERVE(Inst.Extra, Taken);
    Index = Taken ? Inst.Target0 : Inst.Target1;
    BROPT_ADAPTIVE_CHECK(Inst.Extra, Taken, CCLhs);
    BROPT_DISPATCH();
  }

  BROPT_OP(LoadCmpBr) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST(); // logical Load
    ++LC.Loads;
    int64_t Address = Inst.A.read(Regs) + Inst.Imm;
    if (Address < 0 || static_cast<uint64_t>(Address) >= MemSize) {
      flush();
      trap(formatString("load from invalid address %lld",
                        static_cast<long long>(Address)));
      return 0;
    }
    Regs[Inst.Dest] = Mem[static_cast<size_t>(Address)];
    BROPT_COUNT_INST(); // logical Cmp
    ++LC.Compares;
    CCLhs = Regs[Inst.ExtraCount];
    CCRhs = Inst.B.read(Regs);
    BROPT_COUNT_INST(); // logical CondBr
    ++LC.CondBranches;
    const bool Taken = evalCC(static_cast<CondCode>(Inst.SubOp), CCLhs, CCRhs);
    if (Taken)
      ++LC.TakenBranches;
    BROPT_OBSERVE(Inst.Extra, Taken);
    Index = Taken ? Inst.Target0 : Inst.Target1;
    BROPT_ADAPTIVE_CHECK(Inst.Extra, Taken, CCLhs);
    BROPT_DISPATCH();
  }

  BROPT_OP(ReadCharCmpBr) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST(); // logical ReadChar
    if (InputCursor < Input.size())
      Regs[Inst.Dest] = static_cast<unsigned char>(Input[InputCursor++]);
    else
      Regs[Inst.Dest] = -1;
    BROPT_COUNT_INST(); // logical Cmp
    ++LC.Compares;
    CCLhs = Inst.A.read(Regs);
    CCRhs = Inst.B.read(Regs);
    BROPT_COUNT_INST(); // logical CondBr
    ++LC.CondBranches;
    const bool Taken = evalCC(static_cast<CondCode>(Inst.SubOp), CCLhs, CCRhs);
    if (Taken)
      ++LC.TakenBranches;
    BROPT_OBSERVE(Inst.Extra, Taken);
    Index = Taken ? Inst.Target0 : Inst.Target1;
    BROPT_ADAPTIVE_CHECK(Inst.Extra, Taken, CCLhs);
    BROPT_DISPATCH();
  }

  // The jump macro-ops stand for two logical instructions: the folded
  // straight-line op, then the unconditional Jump.

  BROPT_OP(MoveJump) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST(); // logical Move
    Regs[Inst.Dest] = Inst.A.read(Regs);
    BROPT_COUNT_INST(); // logical Jump
    ++LC.UncondJumps;
    Index = Inst.Target0;
    BROPT_DISPATCH();
  }

  BROPT_OP(BinJump) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST(); // logical Binary
    int64_t Lhs = Inst.A.read(Regs);
    int64_t Rhs = Inst.B.read(Regs);
    int64_t Value = 0;
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp), Lhs, Rhs, Value);
    Regs[Inst.Dest] = Value;
    BROPT_COUNT_INST(); // logical Jump
    ++LC.UncondJumps;
    Index = Inst.Target0;
    BROPT_DISPATCH();
  }

  BROPT_OP(LoadJump) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST(); // logical Load
    ++LC.Loads;
    int64_t Address = Inst.A.read(Regs) + Inst.Imm;
    if (Address < 0 || static_cast<uint64_t>(Address) >= MemSize) {
      flush();
      trap(formatString("load from invalid address %lld",
                        static_cast<long long>(Address)));
      return 0;
    }
    Regs[Inst.Dest] = Mem[static_cast<size_t>(Address)];
    BROPT_COUNT_INST(); // logical Jump
    ++LC.UncondJumps;
    Index = Inst.Target0;
    BROPT_DISPATCH();
  }

  BROPT_OP(StoreJump) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST(); // logical Store
    ++LC.Stores;
    int64_t Address = Inst.A.read(Regs) + Inst.Imm;
    if (Address < 0 || static_cast<uint64_t>(Address) >= MemSize) {
      flush();
      trap(formatString("store to invalid address %lld",
                        static_cast<long long>(Address)));
      return 0;
    }
    Mem[static_cast<size_t>(Address)] = Inst.B.read(Regs);
    BROPT_COUNT_INST(); // logical Jump
    ++LC.UncondJumps;
    Index = Inst.Target0;
    BROPT_DISPATCH();
  }

  // Straight-line pair macro-ops: the slot after them holds the absorbed
  // (now stale) second instruction, so they advance Index by two.

  BROPT_OP(LoadBin) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST(); // logical Load
    ++LC.Loads;
    int64_t Address = Inst.A.read(Regs) + Inst.Imm;
    if (Address < 0 || static_cast<uint64_t>(Address) >= MemSize) {
      flush();
      trap(formatString("load from invalid address %lld",
                        static_cast<long long>(Address)));
      return 0;
    }
    Regs[Inst.Dest] = Mem[static_cast<size_t>(Address)];
    BROPT_COUNT_INST(); // logical Binary
    int64_t Lhs = Regs[Inst.Target0];
    int64_t Rhs = Regs[Inst.Target1];
    int64_t Value = 0;
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp), Lhs, Rhs, Value);
    Regs[Inst.Extra] = Value;
    BROPT_NEXT();
  }

  BROPT_OP(Bin2) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST(); // first logical Binary
    int64_t Lhs = Inst.A.read(Regs);
    int64_t Rhs = Inst.B.read(Regs);
    int64_t Value = 0;
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp & 15), Lhs, Rhs, Value);
    Regs[Inst.Dest] = Value;
    BROPT_COUNT_INST(); // second logical Binary
    Lhs = Regs[Inst.Target0];
    Rhs = Regs[Inst.Target1];
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp >> 4), Lhs, Rhs, Value);
    Regs[Inst.Extra] = Value;
    BROPT_NEXT();
  }

  BROPT_OP(BinStore) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST(); // logical Binary
    int64_t Lhs = Inst.A.read(Regs);
    int64_t Rhs = Inst.B.read(Regs);
    int64_t Value = 0;
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp), Lhs, Rhs, Value);
    Regs[Inst.Dest] = Value;
    BROPT_COUNT_INST(); // logical Store
    ++LC.Stores;
    int64_t Address = Regs[Inst.Extra] + Inst.Imm;
    if (Address < 0 || static_cast<uint64_t>(Address) >= MemSize) {
      flush();
      trap(formatString("store to invalid address %lld",
                        static_cast<long long>(Address)));
      return 0;
    }
    Mem[static_cast<size_t>(Address)] = Regs[Inst.ExtraCount];
    BROPT_NEXT();
  }

  BROPT_OP(BinStoreJump) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST(); // logical Binary
    int64_t Lhs = Inst.A.read(Regs);
    int64_t Rhs = Inst.B.read(Regs);
    int64_t Value = 0;
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp), Lhs, Rhs, Value);
    Regs[Inst.Dest] = Value;
    BROPT_COUNT_INST(); // logical Store
    ++LC.Stores;
    int64_t Address = Regs[Inst.Extra] + Inst.Imm;
    if (Address < 0 || static_cast<uint64_t>(Address) >= MemSize) {
      flush();
      trap(formatString("store to invalid address %lld",
                        static_cast<long long>(Address)));
      return 0;
    }
    Mem[static_cast<size_t>(Address)] = Regs[Inst.ExtraCount];
    BROPT_COUNT_INST(); // logical Jump
    ++LC.UncondJumps;
    Index = Inst.Target0;
    BROPT_DISPATCH();
  }

  BROPT_OP(Move2) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST(); // first logical Move
    Regs[Inst.Dest] = Inst.A.read(Regs);
    BROPT_COUNT_INST(); // second logical Move
    Regs[Inst.Extra] = Regs[Inst.ExtraCount];
    BROPT_NEXT();
  }

  BROPT_OP(LoadBinStore) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST(); // logical Load
    ++LC.Loads;
    int64_t Address = Inst.A.read(Regs) + Inst.Imm;
    if (Address < 0 || static_cast<uint64_t>(Address) >= MemSize) {
      flush();
      trap(formatString("load from invalid address %lld",
                        static_cast<long long>(Address)));
      return 0;
    }
    Regs[Inst.Dest] = Mem[static_cast<size_t>(Address)];
    BROPT_COUNT_INST(); // logical Binary
    int64_t Lhs = Regs[Inst.Target0];
    int64_t Rhs = Regs[Inst.Target1];
    int64_t Value = 0;
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp), Lhs, Rhs, Value);
    Regs[Inst.Extra] = Value;
    BROPT_COUNT_INST(); // logical Store
    ++LC.Stores;
    Address = Regs[Inst.B.Slot] + static_cast<int32_t>(Inst.ExtraCount);
    if (Address < 0 || static_cast<uint64_t>(Address) >= MemSize) {
      flush();
      trap(formatString("store to invalid address %lld",
                        static_cast<long long>(Address)));
      return 0;
    }
    Mem[static_cast<size_t>(Address)] = Value;
    BROPT_NEXT();
  }

  BROPT_OP(LoadBinStoreJump) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST(); // logical Load
    ++LC.Loads;
    int64_t Address =
        Inst.A.read(Regs) +
        static_cast<int32_t>(static_cast<uint32_t>(Inst.Imm));
    if (Address < 0 || static_cast<uint64_t>(Address) >= MemSize) {
      flush();
      trap(formatString("load from invalid address %lld",
                        static_cast<long long>(Address)));
      return 0;
    }
    Regs[Inst.Dest] = Mem[static_cast<size_t>(Address)];
    BROPT_COUNT_INST(); // logical Binary
    int64_t Lhs = Regs[Inst.Target0];
    int64_t Rhs = Regs[Inst.Target1];
    int64_t Value = 0;
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp), Lhs, Rhs, Value);
    Regs[Inst.Extra] = Value;
    BROPT_COUNT_INST(); // logical Store
    ++LC.Stores;
    Address = Regs[Inst.B.Slot] + static_cast<int32_t>(Inst.ExtraCount);
    if (Address < 0 || static_cast<uint64_t>(Address) >= MemSize) {
      flush();
      trap(formatString("store to invalid address %lld",
                        static_cast<long long>(Address)));
      return 0;
    }
    Mem[static_cast<size_t>(Address)] = Value;
    BROPT_COUNT_INST(); // logical Jump
    ++LC.UncondJumps;
    Index = static_cast<uint32_t>(static_cast<uint64_t>(Inst.Imm) >> 32);
    BROPT_DISPATCH();
  }

  BROPT_OP(StoreLoadBin) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST(); // logical Store
    ++LC.Stores;
    int64_t Address =
        Regs[Inst.B.Slot] +
        static_cast<int32_t>(
            static_cast<uint32_t>(static_cast<uint64_t>(Inst.Imm) >> 32));
    if (Address < 0 || static_cast<uint64_t>(Address) >= MemSize) {
      flush();
      trap(formatString("store to invalid address %lld",
                        static_cast<long long>(Address)));
      return 0;
    }
    Mem[static_cast<size_t>(Address)] = Regs[Inst.ExtraCount];
    BROPT_COUNT_INST(); // logical Load
    ++LC.Loads;
    Address = Inst.A.read(Regs) +
              static_cast<int32_t>(static_cast<uint32_t>(Inst.Imm));
    if (Address < 0 || static_cast<uint64_t>(Address) >= MemSize) {
      flush();
      trap(formatString("load from invalid address %lld",
                        static_cast<long long>(Address)));
      return 0;
    }
    Regs[Inst.Dest] = Mem[static_cast<size_t>(Address)];
    BROPT_COUNT_INST(); // logical Binary
    int64_t Lhs = Regs[Inst.Target0];
    int64_t Rhs = Regs[Inst.Target1];
    int64_t Value = 0;
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp), Lhs, Rhs, Value);
    Regs[Inst.Extra] = Value;
    BROPT_NEXT();
  }

  BROPT_OP(PutCharLoadBin) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST(); // logical PutChar
    Result.Output.push_back(
        static_cast<char>(Regs[Inst.B.Slot] & 0xff));
    BROPT_COUNT_INST(); // logical Load
    ++LC.Loads;
    int64_t Address = Inst.A.read(Regs) + Inst.Imm;
    if (Address < 0 || static_cast<uint64_t>(Address) >= MemSize) {
      flush();
      trap(formatString("load from invalid address %lld",
                        static_cast<long long>(Address)));
      return 0;
    }
    Regs[Inst.Dest] = Mem[static_cast<size_t>(Address)];
    BROPT_COUNT_INST(); // logical Binary
    int64_t Lhs = Regs[Inst.Target0];
    int64_t Rhs = Regs[Inst.Target1];
    int64_t Value = 0;
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp), Lhs, Rhs, Value);
    Regs[Inst.Extra] = Value;
    BROPT_NEXT();
  }

  BROPT_OP(ProfileCmpBr) {
    const DecodedInst &Inst = Insts[Index];
    // The profiling hook never counts toward TotalInsts.
    ++LC.ProfileHooks;
    if (OnProfile)
      OnProfile(Inst.Extra, Regs[Inst.ExtraCount]);
    BROPT_COUNT_INST(); // logical Cmp
    ++LC.Compares;
    CCLhs = Inst.A.read(Regs);
    CCRhs = Inst.B.read(Regs);
    BROPT_COUNT_INST(); // logical CondBr
    ++LC.CondBranches;
    const bool Taken = evalCC(static_cast<CondCode>(Inst.SubOp), CCLhs, CCRhs);
    if (Taken)
      ++LC.TakenBranches;
    BROPT_OBSERVE(Inst.Dest, Taken);
    Index = Taken ? Inst.Target0 : Inst.Target1;
    BROPT_DISPATCH();
  }

  BROPT_OP(ReadCharProfileCmpBr) {
    const DecodedInst &Inst = Insts[Index];
    BROPT_COUNT_INST(); // logical ReadChar
    if (InputCursor < Input.size())
      Regs[Inst.Dest] = static_cast<unsigned char>(Input[InputCursor++]);
    else
      Regs[Inst.Dest] = -1;
    ++LC.ProfileHooks; // the hook, between the read and the compare
    if (OnProfile)
      OnProfile(Inst.Extra, Regs[Inst.ExtraCount]);
    BROPT_COUNT_INST(); // logical Cmp
    ++LC.Compares;
    CCLhs = Inst.A.read(Regs);
    CCRhs = Inst.B.read(Regs);
    BROPT_COUNT_INST(); // logical CondBr
    ++LC.CondBranches;
    const bool Taken = evalCC(static_cast<CondCode>(Inst.SubOp), CCLhs, CCRhs);
    if (Taken)
      ++LC.TakenBranches;
    BROPT_OBSERVE(static_cast<uint32_t>(Inst.Imm), Taken);
    Index = Taken ? Inst.Target0 : Inst.Target1;
    BROPT_DISPATCH();
  }

#if !BROPT_COMPUTED_GOTO
  }
  BROPT_UNREACHABLE("unhandled decoded opcode");
#endif

#undef BROPT_NEXT
#undef BROPT_OP
#undef BROPT_DISPATCH
#undef BROPT_ADAPTIVE_CHECK
#undef BROPT_OBSERVE
#undef BROPT_EVAL_BINARY
#undef BROPT_COUNT_INST
}

// Production runs take the <false, ...> instantiations, the Table one when
// a BranchPredictor is attached; only edge-profiling runs
// (collectEdgeWeights) take the counting one.
template int64_t Interpreter::execFused<false, Interpreter::PredictorFeed::Virtual>(
    const DecodedModule &, const DecodedFunction &,
    const std::vector<int64_t> &, unsigned, size_t, const int64_t *, int64_t,
    int64_t);
template int64_t Interpreter::execFused<false, Interpreter::PredictorFeed::Table>(
    const DecodedModule &, const DecodedFunction &,
    const std::vector<int64_t> &, unsigned, size_t, const int64_t *, int64_t,
    int64_t);
template int64_t Interpreter::execFused<true, Interpreter::PredictorFeed::Virtual>(
    const DecodedModule &, const DecodedFunction &,
    const std::vector<int64_t> &, unsigned, size_t, const int64_t *, int64_t,
    int64_t);

bool bropt::fusedDispatchIsThreaded() { return BROPT_COMPUTED_GOTO != 0; }
