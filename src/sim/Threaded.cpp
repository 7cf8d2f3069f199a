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

template <bool CountEdges, Interpreter::PredictorFeed Feed>
int64_t Interpreter::execFused(const DecodedModule &DM,
                               const DecodedFunction &F,
                               const std::vector<int64_t> &Args,
                               unsigned Depth, const ResumePoint *Resume) {
  if (Depth > MaxCallDepth) {
    trap("call depth limit exceeded");
    return 0;
  }
  assert((Resume || Args.size() == F.NumParams) && "bad argument count");
  if (!F.HasBody) {
    trap(formatString("function '%s' has no body", F.Name.c_str()));
    return 0;
  }

  // The execution frame: registers (zeroed, parameters first) followed by
  // the function's interned constants, so every operand read is one
  // branchless slot load.  A hot-swapped activation resumes with the
  // register file copied from the frame it left behind — fusion never
  // changes NumRegs or the constant pool, so the slot layout matches.
  std::vector<int64_t> Frame(F.numSlots(), 0);
  int64_t *const Regs = Frame.data();
  if (Resume)
    std::copy(Resume->Regs, Resume->Regs + F.NumRegs, Regs);
  else
    std::copy(Args.begin(), Args.end(), Regs);
  std::copy(F.Constants.begin(), F.Constants.end(), Regs + F.NumRegs);

  // Everything a handler touches lives in a local that never has its
  // address taken, so it can stay in a host register: the counters, the
  // instruction budget, the condition codes, the instruction pointer, the
  // heap bounds and the predictor's state.  Nothing reads them out of
  // line: BROPT_FLUSH below expands only where control leaves the
  // activation, and each trap leaves through one cold exit of its kind at
  // the end of the function.
  //
  // The predictor.  The Table instantiation (run() takes it only for a
  // BranchPredictor) steps the scheme's state in locals: no virtual call,
  // and no reloads of the table, history and stats through the predictor
  // object after each counter store, which as a uint8_t store may alias
  // anything.  BROPT_FLUSH writes the history and the stats back, so the
  // predictor object is exact wherever control leaves this activation
  // (exits, calls, swaps), and BROPT_LOAD_TABLE picks the history up
  // again after a call moved it on.  Every branch this instantiation
  // executes is observed, so the predictor's branch count is
  // LC.CondBranches.
  Predictor *const Pred = AttachedPredictor;
  [[maybe_unused]] BranchPredictor *const TP =
      Feed == PredictorFeed::Table ? static_cast<BranchPredictor *>(Pred)
                                   : nullptr;
  [[maybe_unused]] TableState Table;
  [[maybe_unused]] BranchRecord *Records = nullptr;
  [[maybe_unused]] uint64_t Mispredictions = 0;
#define BROPT_LOAD_TABLE()                                                     \
  do {                                                                         \
    if constexpr (Feed == PredictorFeed::Table) {                              \
      Table = TP->state();                                                     \
      Records = TP->recordsFor(DM.numBranchIds());                             \
    }                                                                          \
  } while (0)
  BROPT_LOAD_TABLE();

  DynamicCounts LC;
  // The total-instruction count runs as a countdown: Remaining starts at
  // the headroom under the limit and every logical instruction decrements
  // it, so the executed total is always InstructionLimit - Remaining.  A
  // decrement-and-underflow test is cheaper than the increment + compare
  // it replaces on the hottest instructions in the engine, and the
  // MultiCmp batch paths turn into a single subtraction.
  uint64_t Remaining = InstructionLimit - Result.Counts.TotalInsts;

// Hands the activation's counts and predictor state back to Result and the
// predictor, so both are exact wherever control leaves the activation.
// The limit exit sets Remaining to all ones, which makes the total
// InstructionLimit + 1: one past the limit, like the tree walker's
// `++Counts.TotalInsts > InstructionLimit`.
#define BROPT_FLUSH()                                                          \
  do {                                                                         \
    DynamicCounts &C = Result.Counts;                                          \
    C.TotalInsts = InstructionLimit - Remaining;                               \
    C.CondBranches += LC.CondBranches;                                         \
    C.TakenBranches += LC.TakenBranches;                                       \
    C.UncondJumps += LC.UncondJumps;                                           \
    C.IndirectJumps += LC.IndirectJumps;                                       \
    C.Compares += LC.Compares;                                                 \
    C.Loads += LC.Loads;                                                       \
    C.Stores += LC.Stores;                                                     \
    C.Calls += LC.Calls;                                                       \
    C.ProfileHooks += LC.ProfileHooks;                                         \
    if constexpr (Feed == PredictorFeed::Table) {                              \
      TP->storeState(Table);                                                   \
      TP->addStats(LC.CondBranches, Mispredictions);                           \
    }                                                                          \
  } while (0)

#define BROPT_COUNT_INST()                                                     \
  do {                                                                         \
    if (Remaining-- == 0) [[unlikely]]                                         \
      goto LimitExit;                                                          \
  } while (0)

  // What a cold exit reports: the failing address or jump-table index, or
  // the arithmetic trap's reason.
  int64_t TrapValue = 0;
  const char *TrapWhat = nullptr;

// Leaves through ArithExit, reporting WHAT.
#define BROPT_ARITH_TRAP(WHAT)                                                 \
  do {                                                                         \
    TrapWhat = (WHAT);                                                         \
    goto ArithExit;                                                            \
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
      if (RHS == 0) [[unlikely]]                                               \
        BROPT_ARITH_TRAP("division by zero");                                  \
      if (LHS == INT64_MIN && RHS == -1) [[unlikely]]                          \
        BROPT_ARITH_TRAP("division overflow");                                 \
      OUT = LHS / RHS;                                                         \
      break;                                                                   \
    case BinaryOp::Rem:                                                        \
      if (RHS == 0) [[unlikely]]                                               \
        BROPT_ARITH_TRAP("remainder by zero");                                 \
      if (LHS == INT64_MIN && RHS == -1) [[unlikely]]                          \
        BROPT_ARITH_TRAP("remainder overflow");                                \
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

  // The simulated heap is sized once in exec() and never reallocated while
  // code runs; local copies let the compiler keep it in registers instead
  // of reloading the members after every store the handlers make.
  int64_t *const Mem = Memory.data();
  const uint64_t MemSize = Memory.size();

// Bounds-checks one heap access; a negative address wraps past MemSize.
// EXIT is LoadExit or StoreExit.
#define BROPT_CHECK_ADDRESS(ADDRESS, EXIT)                                     \
  do {                                                                         \
    if (static_cast<uint64_t>(ADDRESS) >= MemSize) [[unlikely]] {              \
      TrapValue = (ADDRESS);                                                   \
      goto EXIT;                                                               \
    }                                                                          \
  } while (0)

  int64_t CCLhs = Resume ? Resume->CCLhs : 0;
  int64_t CCRhs = Resume ? Resume->CCRhs : 0;
  const DecodedInst *const Insts = F.Insts.data();
  // The instruction pointer: straight-line handlers step it, transfers set
  // it to Insts + target.
  const DecodedInst *IP = Insts + (Resume ? Resume->Index : 0);
  // Edge counters (setEdgeCounters): touched only by the CountEdges
  // instantiation, so production runs carry no counting code at all.
  [[maybe_unused]] uint64_t *const Edges = EdgeCounts;

  // Adaptive-runtime hooks: null (one dead test per branch handler) unless
  // a controller is attached, and always null while counting edges (run()
  // asserts tier 0 alone).  A swap leaves through SwapExit with the
  // program to continue in and the block start there.  The entry check
  // lets an activation migrate to a newer program version (drift
  // re-optimization) before running.
  AdaptiveHooks *const AH = CountEdges ? nullptr : Hooks;
  const DecodedModule *SwapDM = nullptr;
  size_t SwapIndex = 0;
  if (AH && AH->TrySwap &&
      (SwapDM = AH->TrySwap(DM, F.FuncIndex, static_cast<size_t>(IP - Insts),
                            SwapIndex)))
    goto SwapExit;

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

// Sampled adaptive check at a safe point: IP was just set to a branch
// target, which is always the start of a surviving block in the fused
// stream (MultiCmp arm targets resolve to independently reachable block
// starts).  Samples feed tiering only — never observable behaviour.
#define BROPT_ADAPTIVE_CHECK(BRANCH_ID, TAKEN, VALUE)                          \
  do {                                                                         \
    if (AH && --AH->SampleCountdown == 0) [[unlikely]] {                       \
      AH->SampleCountdown = AH->SampleInterval;                                \
      if (AH->OnSample)                                                        \
        AH->OnSample(F.FuncIndex, (BRANCH_ID), (TAKEN), (VALUE));              \
      if (AH->TrySwap &&                                                       \
          (SwapDM = AH->TrySwap(DM, F.FuncIndex,                               \
                                static_cast<size_t>(IP - Insts), SwapIndex)))  \
        goto SwapExit;                                                         \
    }                                                                          \
  } while (0)

// Dispatch plumbing.  Handler bodies are written once; BROPT_OP opens a
// handler and BROPT_DISPATCH transfers to the handler of *IP.  Every
// handler ends in BROPT_NEXT() (straight-line), BROPT_DISPATCH() (after
// setting IP), a goto to a cold exit, or a return.
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
#define BROPT_DISPATCH() goto *JumpTable[static_cast<uint8_t>(IP->Op)]
#define BROPT_OP(NAME) Op_##NAME:
#else
#define BROPT_DISPATCH() goto Dispatch
#define BROPT_OP(NAME) case DecodedOp::NAME:
#endif
#define BROPT_NEXT()                                                           \
  do {                                                                         \
    ++IP;                                                                      \
    BROPT_DISPATCH();                                                          \
  } while (0)

#if BROPT_COMPUTED_GOTO
  BROPT_DISPATCH();
#else
Dispatch:
  switch (IP->Op) {
#endif

  BROPT_OP(Move) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST();
    Regs[Inst.Dest] = Inst.A.read(Regs);
    BROPT_NEXT();
  }

  BROPT_OP(Binary) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST();
    int64_t Lhs = Inst.A.read(Regs);
    int64_t Rhs = Inst.B.read(Regs);
    int64_t Value = 0;
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp), Lhs, Rhs, Value);
    Regs[Inst.Dest] = Value;
    BROPT_NEXT();
  }

  BROPT_OP(Unary) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST();
    int64_t Src = Inst.A.read(Regs);
    Regs[Inst.Dest] = static_cast<UnaryOp>(Inst.SubOp) == UnaryOp::Neg
                          ? static_cast<int64_t>(-static_cast<uint64_t>(Src))
                          : (Src == 0 ? 1 : 0);
    BROPT_NEXT();
  }

  BROPT_OP(Load) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST();
    ++LC.Loads;
    int64_t Address = Inst.A.read(Regs) + Inst.Imm;
    BROPT_CHECK_ADDRESS(Address, LoadExit);
    Regs[Inst.Dest] = Mem[Address];
    BROPT_NEXT();
  }

  BROPT_OP(Store) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST();
    ++LC.Stores;
    int64_t Address = Inst.A.read(Regs) + Inst.Imm;
    BROPT_CHECK_ADDRESS(Address, StoreExit);
    Mem[Address] = Inst.B.read(Regs);
    BROPT_NEXT();
  }

  BROPT_OP(Cmp) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST();
    ++LC.Compares;
    CCLhs = Inst.A.read(Regs);
    CCRhs = Inst.B.read(Regs);
    BROPT_NEXT();
  }

  BROPT_OP(Call) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST();
    ++LC.Calls;
    int64_t Value;
    // The computed goto in BROPT_NEXT() does not run destructors for
    // locals it jumps over, so the argument vector must die in an inner
    // scope before the dispatch jump.  The callee starts from the exact
    // global totals, and this activation's counts start again from zero.
    {
      std::vector<int64_t> CallArgs;
      CallArgs.reserve(Inst.ExtraCount);
      const DecodedOperand *ArgSlice =
          Inst.ExtraCount ? &F.CallArgs[Inst.Extra] : nullptr;
      for (uint32_t ArgIndex = 0; ArgIndex < Inst.ExtraCount; ++ArgIndex)
        CallArgs.push_back(ArgSlice[ArgIndex].read(Regs));
      BROPT_FLUSH();
      LC = DynamicCounts();
      Mispredictions = 0;
      Value = execFused<CountEdges, Feed>(DM, DM.function(Inst.Target0),
                                          CallArgs, Depth + 1);
    }
    if (Aborted)
      return 0;
    Remaining = InstructionLimit - Result.Counts.TotalInsts;
    BROPT_LOAD_TABLE();
    if (Inst.Dest != DecodedInst::NoReg)
      Regs[Inst.Dest] = Value;
    BROPT_NEXT();
  }

  BROPT_OP(ReadChar) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST();
    if (InputCursor < Input.size())
      Regs[Inst.Dest] = static_cast<unsigned char>(Input[InputCursor++]);
    else
      Regs[Inst.Dest] = -1;
    BROPT_NEXT();
  }

  BROPT_OP(PutChar) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST();
    Result.Output.push_back(static_cast<char>(Inst.A.read(Regs) & 0xff));
    BROPT_NEXT();
  }

  BROPT_OP(PrintInt) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST();
    Result.Output +=
        formatString("%lld\n", static_cast<long long>(Inst.A.read(Regs)));
    BROPT_NEXT();
  }

  BROPT_OP(Profile) {
    const DecodedInst &Inst = *IP;
    // Instrumentation hooks never count toward TotalInsts or the limit.
    ++LC.ProfileHooks;
    if (OnProfile)
      OnProfile(Inst.Dest, Inst.A.read(Regs));
    BROPT_NEXT();
  }

  BROPT_OP(ComboProfile) {
    const DecodedInst &Inst = *IP;
    ++LC.ProfileHooks;
    if (OnComboProfile) {
      int64_t Mask = 0;
      const DecodedCondition *Conds =
          Inst.ExtraCount ? &F.Conditions[Inst.Extra] : nullptr;
      for (uint32_t Bit = 0; Bit < Inst.ExtraCount; ++Bit)
        if (condHolds(Conds[Bit].Pred, Conds[Bit].Lhs.read(Regs),
                      Conds[Bit].Rhs.read(Regs)))
          Mask |= int64_t{1} << Bit;
      OnComboProfile(Inst.Dest, Mask);
    }
    BROPT_NEXT();
  }

  BROPT_OP(CondBr) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST();
    ++LC.CondBranches;
    const bool Taken =
        condHolds(static_cast<CondCode>(Inst.SubOp), CCLhs, CCRhs);
    LC.TakenBranches += Taken;
    BROPT_OBSERVE(Inst.Dest, Taken);
    if constexpr (CountEdges)
      ++Edges[Inst.Imm + !Taken];
    IP = Insts + (Taken ? Inst.Target0 : Inst.Target1);
    BROPT_ADAPTIVE_CHECK(Inst.Dest, Taken, CCLhs);
    BROPT_DISPATCH();
  }

  BROPT_OP(Jump) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST();
    ++LC.UncondJumps;
    if constexpr (CountEdges)
      ++Edges[Inst.Imm];
    IP = Insts + Inst.Target0;
    BROPT_DISPATCH();
  }

  BROPT_OP(FallThrough) {
    // A layout fall-through executes for free, like in the tree walker.
    const DecodedInst &Inst = *IP;
    if constexpr (CountEdges)
      ++Edges[Inst.Imm];
    IP = Insts + Inst.Target0;
    BROPT_DISPATCH();
  }

  BROPT_OP(Switch) {
    const DecodedInst &Inst = *IP;
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
    IP = Insts + (CaseIndex < Inst.ExtraCount ? CaseSlice[CaseIndex].Target
                                              : Inst.Target0);
    BROPT_DISPATCH();
  }

  BROPT_OP(IndirectJump) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST();
    ++LC.IndirectJumps;
    int64_t TableIndex = Inst.A.read(Regs);
    if (static_cast<uint64_t>(TableIndex) >= Inst.ExtraCount) [[unlikely]] {
      TrapValue = TableIndex;
      goto IndirectExit;
    }
    if constexpr (CountEdges)
      ++Edges[Inst.Imm + TableIndex];
    IP = Insts + F.JumpTables[Inst.Extra + static_cast<size_t>(TableIndex)];
    BROPT_DISPATCH();
  }

  BROPT_OP(Ret) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST();
    int64_t Value = Inst.SubOp ? Inst.A.read(Regs) : 0;
    BROPT_FLUSH();
    return Value;
  }

  BROPT_OP(TrapFellOff) {
    // The tree walker traps after exhausting the block's instructions
    // without executing anything further, so this must not count.
    BROPT_FLUSH();
    trap(F.Labels[IP->Dest] + " fell off the end (no terminator)");
    return 0;
  }

  BROPT_OP(CmpBr) {
    const DecodedInst &Inst = *IP;
    // The logical Cmp …
    BROPT_COUNT_INST();
    ++LC.Compares;
    CCLhs = Inst.A.read(Regs);
    CCRhs = Inst.B.read(Regs);
    // … then the logical CondBr, in one dispatch.
    BROPT_COUNT_INST();
    ++LC.CondBranches;
    const bool Taken =
        condHolds(static_cast<CondCode>(Inst.SubOp), CCLhs, CCRhs);
    LC.TakenBranches += Taken;
    BROPT_OBSERVE(Inst.Dest, Taken);
    IP = Insts + (Taken ? Inst.Target0 : Inst.Target1);
    BROPT_ADAPTIVE_CHECK(Inst.Dest, Taken, CCLhs);
    BROPT_DISPATCH();
  }

  BROPT_OP(MultiCmp) {
    const DecodedInst &Inst = *IP;
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
        if (condHolds(Arm.Pred, Arm.Lhs.read(Regs), Arm.Rhs.read(Regs))) {
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
        IP = Insts + Arm.Target;
      } else {
        // No match: every arm executed and fell through; condition codes
        // end up holding the last logical arm's operands.
        const FusedArm &Last = Arms[NumArms - 1];
        Remaining -= 2ull * NumArms;
        LC.Compares += NumArms;
        LC.CondBranches += NumArms;
        CCLhs = Last.Lhs.read(Regs);
        CCRhs = Last.Rhs.read(Regs);
        IP = Insts + Inst.Target0;
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
        const bool Taken =
            condHolds(A.Pred, A.Lhs.read(Regs), A.Rhs.read(Regs));
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
      IP = Insts + (Matched ? LastArm.Target : Inst.Target0);
      BROPT_ADAPTIVE_CHECK(Arms[0].BranchId, Matched && Arm == 0,
                           Arms[0].Lhs.read(Regs));
      BROPT_DISPATCH();
    }
    // Slow path: the instruction limit may trip mid-chain.  Replay the
    // arms in logical order with exact per-instruction accounting; still
    // one dispatch for the whole chain.
    {
      uint32_t Next = Inst.Target0;
      for (uint32_t Arm = 0; Arm < NumArms; ++Arm) {
        const FusedArm &A = Arms[Arm];
        BROPT_COUNT_INST();
        ++LC.Compares;
        CCLhs = A.Lhs.read(Regs);
        CCRhs = A.Rhs.read(Regs);
        BROPT_COUNT_INST();
        ++LC.CondBranches;
        const bool Taken = condHolds(A.Pred, CCLhs, CCRhs);
        LC.TakenBranches += Taken;
        BROPT_OBSERVE(A.BranchId, Taken);
        if (Taken) {
          Next = A.Target;
          break;
        }
      }
      IP = Insts + Next;
    }
    BROPT_DISPATCH();
  }

  // The pre-op macro-ops below stand for three logical instructions each:
  // the folded straight-line op, then the Cmp, then the CondBr, with the
  // same counting, trapping, and predictor feed order as unfused code.

  BROPT_OP(MoveCmpBr) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST(); // logical Move
    Regs[Inst.Dest] = Inst.A.read(Regs);
    BROPT_COUNT_INST(); // logical Cmp
    ++LC.Compares;
    CCLhs = Inst.B.read(Regs);
    CCRhs = Regs[Inst.ExtraCount];
    BROPT_COUNT_INST(); // logical CondBr
    ++LC.CondBranches;
    const bool Taken =
        condHolds(static_cast<CondCode>(Inst.SubOp), CCLhs, CCRhs);
    LC.TakenBranches += Taken;
    BROPT_OBSERVE(Inst.Extra, Taken);
    IP = Insts + (Taken ? Inst.Target0 : Inst.Target1);
    BROPT_ADAPTIVE_CHECK(Inst.Extra, Taken, CCLhs);
    BROPT_DISPATCH();
  }

  BROPT_OP(BinCmpBr) {
    const DecodedInst &Inst = *IP;
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
        condHolds(static_cast<CondCode>(Inst.SubOp & 7), CCLhs, CCRhs);
    LC.TakenBranches += Taken;
    BROPT_OBSERVE(Inst.Extra, Taken);
    IP = Insts + (Taken ? Inst.Target0 : Inst.Target1);
    BROPT_ADAPTIVE_CHECK(Inst.Extra, Taken, CCLhs);
    BROPT_DISPATCH();
  }

  BROPT_OP(LoadCmpBr) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST(); // logical Load
    ++LC.Loads;
    int64_t Address = Inst.A.read(Regs) + Inst.Imm;
    BROPT_CHECK_ADDRESS(Address, LoadExit);
    Regs[Inst.Dest] = Mem[Address];
    BROPT_COUNT_INST(); // logical Cmp
    ++LC.Compares;
    CCLhs = Regs[Inst.ExtraCount];
    CCRhs = Inst.B.read(Regs);
    BROPT_COUNT_INST(); // logical CondBr
    ++LC.CondBranches;
    const bool Taken =
        condHolds(static_cast<CondCode>(Inst.SubOp), CCLhs, CCRhs);
    LC.TakenBranches += Taken;
    BROPT_OBSERVE(Inst.Extra, Taken);
    IP = Insts + (Taken ? Inst.Target0 : Inst.Target1);
    BROPT_ADAPTIVE_CHECK(Inst.Extra, Taken, CCLhs);
    BROPT_DISPATCH();
  }

  BROPT_OP(ReadCharCmpBr) {
    const DecodedInst &Inst = *IP;
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
    const bool Taken =
        condHolds(static_cast<CondCode>(Inst.SubOp), CCLhs, CCRhs);
    LC.TakenBranches += Taken;
    BROPT_OBSERVE(Inst.Extra, Taken);
    IP = Insts + (Taken ? Inst.Target0 : Inst.Target1);
    BROPT_ADAPTIVE_CHECK(Inst.Extra, Taken, CCLhs);
    BROPT_DISPATCH();
  }

  // The jump macro-ops stand for two logical instructions: the folded
  // straight-line op, then the unconditional Jump.

  BROPT_OP(MoveJump) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST(); // logical Move
    Regs[Inst.Dest] = Inst.A.read(Regs);
    BROPT_COUNT_INST(); // logical Jump
    ++LC.UncondJumps;
    IP = Insts + Inst.Target0;
    BROPT_DISPATCH();
  }

  BROPT_OP(BinJump) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST(); // logical Binary
    int64_t Lhs = Inst.A.read(Regs);
    int64_t Rhs = Inst.B.read(Regs);
    int64_t Value = 0;
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp), Lhs, Rhs, Value);
    Regs[Inst.Dest] = Value;
    BROPT_COUNT_INST(); // logical Jump
    ++LC.UncondJumps;
    IP = Insts + Inst.Target0;
    BROPT_DISPATCH();
  }

  BROPT_OP(LoadJump) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST(); // logical Load
    ++LC.Loads;
    int64_t Address = Inst.A.read(Regs) + Inst.Imm;
    BROPT_CHECK_ADDRESS(Address, LoadExit);
    Regs[Inst.Dest] = Mem[Address];
    BROPT_COUNT_INST(); // logical Jump
    ++LC.UncondJumps;
    IP = Insts + Inst.Target0;
    BROPT_DISPATCH();
  }

  BROPT_OP(StoreJump) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST(); // logical Store
    ++LC.Stores;
    int64_t Address = Inst.A.read(Regs) + Inst.Imm;
    BROPT_CHECK_ADDRESS(Address, StoreExit);
    Mem[Address] = Inst.B.read(Regs);
    BROPT_COUNT_INST(); // logical Jump
    ++LC.UncondJumps;
    IP = Insts + Inst.Target0;
    BROPT_DISPATCH();
  }

  // Straight-line pair macro-ops: compaction dropped the slots they
  // absorbed, so like any straight-line op they advance one slot.

  BROPT_OP(LoadBin) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST(); // logical Load
    ++LC.Loads;
    int64_t Address = Inst.A.read(Regs) + Inst.Imm;
    BROPT_CHECK_ADDRESS(Address, LoadExit);
    Regs[Inst.Dest] = Mem[Address];
    BROPT_COUNT_INST(); // logical Binary
    int64_t Lhs = Regs[Inst.Target0];
    int64_t Rhs = Regs[Inst.Target1];
    int64_t Value = 0;
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp), Lhs, Rhs, Value);
    Regs[Inst.Extra] = Value;
    BROPT_NEXT();
  }

  BROPT_OP(Bin2) {
    const DecodedInst &Inst = *IP;
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
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST(); // logical Binary
    int64_t Lhs = Inst.A.read(Regs);
    int64_t Rhs = Inst.B.read(Regs);
    int64_t Value = 0;
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp), Lhs, Rhs, Value);
    Regs[Inst.Dest] = Value;
    BROPT_COUNT_INST(); // logical Store
    ++LC.Stores;
    int64_t Address = Regs[Inst.Extra] + Inst.Imm;
    BROPT_CHECK_ADDRESS(Address, StoreExit);
    Mem[Address] = Regs[Inst.ExtraCount];
    BROPT_NEXT();
  }

  BROPT_OP(BinStoreJump) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST(); // logical Binary
    int64_t Lhs = Inst.A.read(Regs);
    int64_t Rhs = Inst.B.read(Regs);
    int64_t Value = 0;
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp), Lhs, Rhs, Value);
    Regs[Inst.Dest] = Value;
    BROPT_COUNT_INST(); // logical Store
    ++LC.Stores;
    int64_t Address = Regs[Inst.Extra] + Inst.Imm;
    BROPT_CHECK_ADDRESS(Address, StoreExit);
    Mem[Address] = Regs[Inst.ExtraCount];
    BROPT_COUNT_INST(); // logical Jump
    ++LC.UncondJumps;
    IP = Insts + Inst.Target0;
    BROPT_DISPATCH();
  }

  BROPT_OP(Move2) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST(); // first logical Move
    Regs[Inst.Dest] = Inst.A.read(Regs);
    BROPT_COUNT_INST(); // second logical Move
    Regs[Inst.Extra] = Regs[Inst.ExtraCount];
    BROPT_NEXT();
  }

  BROPT_OP(LoadBinStore) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST(); // logical Load
    ++LC.Loads;
    int64_t Address = Inst.A.read(Regs) + Inst.Imm;
    BROPT_CHECK_ADDRESS(Address, LoadExit);
    Regs[Inst.Dest] = Mem[Address];
    BROPT_COUNT_INST(); // logical Binary
    int64_t Lhs = Regs[Inst.Target0];
    int64_t Rhs = Regs[Inst.Target1];
    int64_t Value = 0;
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp), Lhs, Rhs, Value);
    Regs[Inst.Extra] = Value;
    BROPT_COUNT_INST(); // logical Store
    ++LC.Stores;
    Address = Regs[Inst.B.Slot] + static_cast<int32_t>(Inst.ExtraCount);
    BROPT_CHECK_ADDRESS(Address, StoreExit);
    Mem[Address] = Value;
    BROPT_NEXT();
  }

  BROPT_OP(LoadBinStoreJump) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST(); // logical Load
    ++LC.Loads;
    int64_t Address =
        Inst.A.read(Regs) +
        static_cast<int32_t>(static_cast<uint32_t>(Inst.Imm));
    BROPT_CHECK_ADDRESS(Address, LoadExit);
    Regs[Inst.Dest] = Mem[Address];
    BROPT_COUNT_INST(); // logical Binary
    int64_t Lhs = Regs[Inst.Target0];
    int64_t Rhs = Regs[Inst.Target1];
    int64_t Value = 0;
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp), Lhs, Rhs, Value);
    Regs[Inst.Extra] = Value;
    BROPT_COUNT_INST(); // logical Store
    ++LC.Stores;
    Address = Regs[Inst.B.Slot] + static_cast<int32_t>(Inst.ExtraCount);
    BROPT_CHECK_ADDRESS(Address, StoreExit);
    Mem[Address] = Value;
    BROPT_COUNT_INST(); // logical Jump
    ++LC.UncondJumps;
    IP = Insts + static_cast<uint32_t>(static_cast<uint64_t>(Inst.Imm) >> 32);
    BROPT_DISPATCH();
  }

  BROPT_OP(StoreLoadBin) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST(); // logical Store
    ++LC.Stores;
    int64_t Address =
        Regs[Inst.B.Slot] +
        static_cast<int32_t>(
            static_cast<uint32_t>(static_cast<uint64_t>(Inst.Imm) >> 32));
    BROPT_CHECK_ADDRESS(Address, StoreExit);
    Mem[Address] = Regs[Inst.ExtraCount];
    BROPT_COUNT_INST(); // logical Load
    ++LC.Loads;
    Address = Inst.A.read(Regs) +
              static_cast<int32_t>(static_cast<uint32_t>(Inst.Imm));
    BROPT_CHECK_ADDRESS(Address, LoadExit);
    Regs[Inst.Dest] = Mem[Address];
    BROPT_COUNT_INST(); // logical Binary
    int64_t Lhs = Regs[Inst.Target0];
    int64_t Rhs = Regs[Inst.Target1];
    int64_t Value = 0;
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp), Lhs, Rhs, Value);
    Regs[Inst.Extra] = Value;
    BROPT_NEXT();
  }

  BROPT_OP(PutCharLoadBin) {
    const DecodedInst &Inst = *IP;
    BROPT_COUNT_INST(); // logical PutChar
    Result.Output.push_back(
        static_cast<char>(Regs[Inst.B.Slot] & 0xff));
    BROPT_COUNT_INST(); // logical Load
    ++LC.Loads;
    int64_t Address = Inst.A.read(Regs) + Inst.Imm;
    BROPT_CHECK_ADDRESS(Address, LoadExit);
    Regs[Inst.Dest] = Mem[Address];
    BROPT_COUNT_INST(); // logical Binary
    int64_t Lhs = Regs[Inst.Target0];
    int64_t Rhs = Regs[Inst.Target1];
    int64_t Value = 0;
    BROPT_EVAL_BINARY(static_cast<BinaryOp>(Inst.SubOp), Lhs, Rhs, Value);
    Regs[Inst.Extra] = Value;
    BROPT_NEXT();
  }

  BROPT_OP(ProfileCmpBr) {
    const DecodedInst &Inst = *IP;
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
    const bool Taken =
        condHolds(static_cast<CondCode>(Inst.SubOp), CCLhs, CCRhs);
    LC.TakenBranches += Taken;
    BROPT_OBSERVE(Inst.Dest, Taken);
    IP = Insts + (Taken ? Inst.Target0 : Inst.Target1);
    BROPT_DISPATCH();
  }

  BROPT_OP(ReadCharProfileCmpBr) {
    const DecodedInst &Inst = *IP;
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
    const bool Taken =
        condHolds(static_cast<CondCode>(Inst.SubOp), CCLhs, CCRhs);
    LC.TakenBranches += Taken;
    BROPT_OBSERVE(static_cast<uint32_t>(Inst.Imm), Taken);
    IP = Insts + (Taken ? Inst.Target0 : Inst.Target1);
    BROPT_DISPATCH();
  }

#if !BROPT_COMPUTED_GOTO
  }
  BROPT_UNREACHABLE("unhandled decoded opcode");
#endif

  // The cold exits, one per kind of trap and one for a hot swap.  Each
  // handler that can leave jumps here, so the flush code exists once per
  // kind instead of once per trap site.
LimitExit:
  // The trip leaves no budget whichever handler it came from; saying so
  // keeps the handlers from spilling their decremented budget for it.
  Remaining = ~uint64_t{0};
  BROPT_FLUSH();
  trap("instruction limit exceeded");
  return 0;
ArithExit:
  BROPT_FLUSH();
  trap(TrapWhat);
  return 0;
LoadExit:
  BROPT_FLUSH();
  trap(formatString("load from invalid address %lld",
                    static_cast<long long>(TrapValue)));
  return 0;
StoreExit:
  BROPT_FLUSH();
  trap(formatString("store to invalid address %lld",
                    static_cast<long long>(TrapValue)));
  return 0;
IndirectExit:
  BROPT_FLUSH();
  trap(formatString("indirect jump index %lld out of range",
                    static_cast<long long>(TrapValue)));
  return 0;
SwapExit: {
  // The activation continues in SwapDM at SwapIndex, from this frame's
  // registers and condition codes.
  BROPT_FLUSH();
  const ResumePoint At{SwapIndex, Regs, CCLhs, CCRhs};
  return execFused<CountEdges, Feed>(*SwapDM, SwapDM->function(F.FuncIndex),
                                     Args, Depth, &At);
}

#undef BROPT_NEXT
#undef BROPT_OP
#undef BROPT_DISPATCH
#undef BROPT_ADAPTIVE_CHECK
#undef BROPT_OBSERVE
#undef BROPT_CHECK_ADDRESS
#undef BROPT_EVAL_BINARY
#undef BROPT_ARITH_TRAP
#undef BROPT_COUNT_INST
#undef BROPT_FLUSH
#undef BROPT_LOAD_TABLE
}

// Production runs take the <false, ...> instantiations, the Table one when
// a BranchPredictor is attached; only edge-profiling runs
// (collectEdgeWeights) take the counting one.
template int64_t Interpreter::execFused<false, Interpreter::PredictorFeed::Virtual>(
    const DecodedModule &, const DecodedFunction &,
    const std::vector<int64_t> &, unsigned, const ResumePoint *);
template int64_t Interpreter::execFused<false, Interpreter::PredictorFeed::Table>(
    const DecodedModule &, const DecodedFunction &,
    const std::vector<int64_t> &, unsigned, const ResumePoint *);
template int64_t Interpreter::execFused<true, Interpreter::PredictorFeed::Virtual>(
    const DecodedModule &, const DecodedFunction &,
    const std::vector<int64_t> &, unsigned, const ResumePoint *);

bool bropt::fusedDispatchIsThreaded() { return BROPT_COMPUTED_GOTO != 0; }
