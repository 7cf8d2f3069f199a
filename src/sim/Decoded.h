//===- sim/Decoded.h - Pre-decoded flat instruction format ------*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flattened, pre-decoded representation of a Module built for fast
/// interpretation.  Each function becomes one contiguous array of
/// fixed-size DecodedInst records:
///
///  * operands are pre-resolved to frame-slot indices: registers occupy
///    the first NumRegs slots and immediates are interned into a
///    per-function constant pool materialized after them, so an operand
///    read is one branchless array access and the dispatch loop never
///    touches the Operand class or the Instruction hierarchy's virtual
///    methods;
///  * branch targets are instruction indices into the same array, so a
///    transfer of control is a single index assignment rather than a
///    BasicBlock pointer chase;
///  * every static conditional branch carries its pre-assigned branch id
///    (the same ids ir/CFG.h's numberBranches assigns), eliminating the
///    per-execution hash lookup the tree-walking loop pays to feed the
///    branch predictor;
///  * variable-length payloads (call arguments, jump tables, switch cases,
///    combination-profile conditions) live in per-function side tables
///    addressed by (offset, count) slices;
///  * every control transfer owns a run of module-wide edge slots, one per
///    target it can reach (a CondBr's taken and fall-through directions,
///    each switch case plus its default, each jump-table entry), so an
///    edge-counting run bumps one dense counter per executed transfer
///    (Interpreter::setEdgeCounters, EdgeSlot).
///
/// Decoding is a pure function of the Module: DynamicCounts, predictor
/// behaviour, output bytes, and trap diagnostics of the decoded dispatch
/// loop are bit-identical to the tree-walking interpreter (enforced by
/// tests/sim/decoded_test.cpp).  See docs/SIM.md for the full format.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_SIM_DECODED_H
#define BROPT_SIM_DECODED_H

#include "ir/Module.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace bropt {

/// Decoded opcode: InstKind split by the execution-time distinctions the
/// tree walker re-derives on every visit (free fall-through jumps, blocks
/// that fall off their end).
enum class DecodedOp : uint8_t {
  Move,
  Binary,
  Unary,
  Load,
  Store,
  Cmp,
  Call,
  ReadChar,
  PutChar,
  PrintInt,
  Profile,      ///< instrumentation hook; never counted in TotalInsts
  ComboProfile, ///< combination-profiling hook (paper §10)
  CondBr,
  Jump,
  FallThrough, ///< layout fall-through jump: free control transfer
  Switch,
  IndirectJump,
  Ret,
  TrapFellOff, ///< synthetic: block had no terminator; traps on execution

  // Fused macro-ops.  Never produced by plain decode(); emitted only by
  // decodeFused() (sim/Fuse.h) and executed only by the threaded engine.
  // Both count the *logical* IR instructions they stand for, so
  // DynamicCounts, predictor feeds, and instruction-limit traps are
  // bit-identical to unfused execution (see docs/SIM.md).
  CmpBr,    ///< one compare + conditional branch pair
  MultiCmp, ///< a whole compare/branch chain (multiway compare)

  // Pre-op macro-ops: a CmpBr with the straight-line instruction right
  // before it folded in, so the paper-hot "produce a value, test it,
  // branch" block shape executes in a single dispatch (three logical
  // instructions).  Field packing is documented per op below.
  MoveCmpBr,     ///< Move + Cmp + CondBr
  BinCmpBr,      ///< Binary + Cmp + CondBr
  LoadCmpBr,     ///< Load + Cmp + CondBr
  ReadCharCmpBr, ///< ReadChar + Cmp + CondBr

  // Jump macro-ops: the straight-line instruction at the end of a block
  // folded into the unconditional Jump that terminates it (two logical
  // instructions in one dispatch).  The folded op keeps its own fields;
  // the jump target rides in the otherwise unused Target0.
  MoveJump,  ///< Move + Jump
  BinJump,   ///< Binary + Jump
  LoadJump,  ///< Load + Jump
  StoreJump, ///< Store + Jump

  // Straight-line pair macro-ops: two adjacent non-branching instructions
  // in one dispatch.  Compaction drops the absorbed slots (mid-block slots
  // are never branch targets), so the handler advances one slot.
  LoadBin,      ///< Load + Binary
  Bin2,         ///< Binary + Binary
  BinStore,     ///< Binary + Store
  BinStoreJump, ///< Binary + Store + Jump (a whole loop-body tail)
  Move2,        ///< Move + Move
  LoadBinStore, ///< Load + Binary + Store of the binary's result
  LoadBinStoreJump, ///< LoadBinStore + Jump (read-modify-write loop tail)
  StoreLoadBin,     ///< Store + Load + Binary
  PutCharLoadBin,   ///< PutChar + Load + Binary

  // Instrumented-run macro-ops: profiling hooks sit between the value
  // producer and the compare, so the plain pre-op fusions never apply to
  // instrumented code.  These keep profile collection on the fused engine
  // fast while firing the hooks in exactly the reference order.
  ProfileCmpBr,         ///< Profile + Cmp + CondBr
  ReadCharProfileCmpBr, ///< ReadChar + Profile + Cmp + CondBr
};

/// Number of DecodedOp values; the threaded engine's jump table must cover
/// exactly this many handlers.
inline constexpr unsigned NumDecodedOps =
    static_cast<unsigned>(DecodedOp::ReadCharProfileCmpBr) + 1;

/// A pre-resolved operand: an index into the execution frame.  Registers
/// occupy slots [0, NumRegs); interned immediates follow at
/// [NumRegs, NumRegs + Constants.size()).
struct DecodedOperand {
  uint32_t Slot = 0;

  /// Reads the operand against a frame (registers + constant pool).
  int64_t read(const int64_t *Frame) const { return Frame[Slot]; }
};

/// One switch case in a side table.
struct DecodedCase {
  int64_t Value;
  uint32_t Target; ///< instruction index
};

/// Tests \p CC on (\p Lhs, \p Rhs) without a branch.  Each code owns three
/// bits of one word, one per outcome of the signed three-way compare (bit
/// 0 less, 1 equal, 2 greater), set where the code holds; two flag reads
/// form the outcome's bit index and one shift picks it out.  The dispatch
/// loop's condition test; the tree walker keeps the independent switch in
/// evalCondCode (ir/Opcodes.h).
inline bool condHolds(CondCode CC, int64_t Lhs, int64_t Rhs) {
  constexpr uint32_t Masks = 0b010u << 3 * unsigned(CondCode::EQ) |
                             0b101u << 3 * unsigned(CondCode::NE) |
                             0b001u << 3 * unsigned(CondCode::LT) |
                             0b011u << 3 * unsigned(CondCode::LE) |
                             0b100u << 3 * unsigned(CondCode::GT) |
                             0b110u << 3 * unsigned(CondCode::GE);
  const unsigned Outcome = (Lhs >= Rhs) + (Lhs > Rhs);
  return (Masks >> (3 * static_cast<unsigned>(CC) + Outcome)) & 1;
}

/// One combination-profile condition in a side table.
struct DecodedCondition {
  DecodedOperand Lhs, Rhs;
  CondCode Pred;
};

/// One arm of a fused compare/branch chain, stored in logical (original
/// program) order in DecodedFunction::Arms.  Executing the arm stands for
/// executing its original Cmp followed by its original CondBr.
struct FusedArm {
  DecodedOperand Lhs, Rhs; ///< the original compare's operands
  CondCode Pred;           ///< the original branch's condition
  uint32_t BranchId;       ///< the original branch's pre-assigned id
  uint32_t Target;         ///< taken target, fall-through jumps resolved
};

/// A fixed-size decoded instruction.  Field meaning depends on Op:
///
///   Move         Dest = dest reg; A = src
///   Binary       SubOp = BinaryOp; Dest; A, B = operands
///   Unary        SubOp = UnaryOp; Dest; A = src
///   Load         Dest; A = base; Imm = offset
///   Store        A = base; B = value; Imm = offset
///   Cmp          A, B = operands
///   Call         Dest = dest reg or NoReg; Target0 = callee function
///                index; Extra/ExtraCount = argument slice
///   ReadChar     Dest
///   PutChar      A = src
///   PrintInt     A = src
///   Profile      Dest = sequence id; A = value register
///   ComboProfile Dest = sequence id; Extra/ExtraCount = condition slice
///   CondBr       SubOp = CondCode; Dest = branch id; Target0 = taken,
///                Target1 = fall-through (instruction indices); Imm =
///                taken edge slot, Imm + 1 the fall-through's
///   Jump         Target0; Imm = edge slot
///   FallThrough  Target0; Imm = edge slot
///   Switch       A = value; Target0 = default; Extra/ExtraCount = cases;
///                Imm + i = edge slot of case i, Imm + ExtraCount the
///                default's
///   IndirectJump A = index; Extra/ExtraCount = jump-table slice; Imm + j =
///                edge slot of entry j
///   Ret          SubOp = 1 if a value is returned; A = value
///   TrapFellOff  Dest = index into the label side table
///   CmpBr        SubOp = CondCode; Dest = branch id; A, B = compare
///                operands; Target0 = taken, Target1 = fall-through
///   MultiCmp     Extra/ExtraCount = Arms + ArmExec slices (logical order
///                and execution order respectively); Target0 = default
///                target when no arm matches
///   MoveCmpBr    Dest, A = the move; B = compare lhs; ExtraCount =
///                compare rhs slot; SubOp = CondCode; Extra = branch id;
///                Target0 = taken, Target1 = fall-through
///   BinCmpBr     SubOp = BinaryOp << 3 | CondCode; Dest, A, B = the
///                binary; Imm = compare lhs slot; ExtraCount = compare
///                rhs slot; Extra = branch id; Target0/Target1 as CmpBr
///   LoadCmpBr    Dest, A, Imm = the load (Imm = offset); ExtraCount =
///                compare lhs slot; B = compare rhs; SubOp = CondCode;
///                Extra = branch id; Target0/Target1 as CmpBr
///   ReadCharCmpBr Dest = the read; A, B = compare operands; SubOp =
///                CondCode; Extra = branch id; Target0/Target1 as CmpBr
///   MoveJump     Dest, A = the move; Target0 = jump target
///   BinJump      SubOp = BinaryOp; Dest, A, B = the binary; Target0 =
///                jump target
///   LoadJump     Dest, A, Imm = the load; Target0 = jump target
///   StoreJump    A, B, Imm = the store; Target0 = jump target
///   LoadBin      Dest, A, Imm = the load; SubOp = BinaryOp; Target0,
///                Target1 = binary operand slots; Extra = binary dest
///   Bin2         SubOp = first BinaryOp | second << 4; Dest, A, B =
///                first binary; Target0, Target1 = second's operand
///                slots; Extra = second's dest
///   BinStore     SubOp = BinaryOp; Dest, A, B = the binary; Extra =
///                store base slot; ExtraCount = store value slot; Imm =
///                store offset
///   BinStoreJump as BinStore plus Target0 = jump target
///   Move2        Dest, A = first move; Extra = second dest; ExtraCount =
///                second src slot
///   LoadBinStore Dest, A, Imm = the load; SubOp = BinaryOp; Target0,
///                Target1 = binary operand slots; Extra = binary dest
///                (also the stored value); B = store base slot;
///                ExtraCount = store offset (int32 bit pattern)
///   LoadBinStoreJump as LoadBinStore but Imm packs the jump target
///                (high 32) over the int32 load offset (low 32)
///   StoreLoadBin B = store base slot; ExtraCount = store value slot;
///                Imm packs store offset (high 32) over load offset
///                (low 32), both int32; Dest, A = load dest and base;
///                SubOp = BinaryOp; Target0, Target1 = binary operand
///                slots; Extra = binary dest
///   PutCharLoadBin B = putchar src slot; Dest, A, Imm = the load;
///                SubOp = BinaryOp; Target0, Target1 = binary operand
///                slots; Extra = binary dest
///   ProfileCmpBr Extra = sequence id; ExtraCount = profiled value slot;
///                SubOp = CondCode; Dest = branch id; A, B = compare
///                operands; Target0 = taken, Target1 = fall-through
///   ReadCharProfileCmpBr as ProfileCmpBr but Dest = the read's dest and
///                Imm = branch id
struct DecodedInst {
  DecodedOp Op = DecodedOp::Ret;
  uint8_t SubOp = 0;
  uint32_t Dest = 0;
  DecodedOperand A, B;
  int64_t Imm = 0;
  uint32_t Target0 = 0, Target1 = 0;
  uint32_t Extra = 0, ExtraCount = 0;

  /// Sentinel for "call defines no register".
  static constexpr uint32_t NoReg = UINT32_MAX;
};

/// One flattened function.
struct DecodedFunction {
  std::string Name;
  /// Position in the owning DecodedModule; lets the dispatch loops name
  /// the executing function to the adaptive runtime's hooks without a
  /// pointer subtraction on the sample path.
  uint32_t FuncIndex = 0;
  unsigned NumParams = 0;
  unsigned NumRegs = 0;
  bool HasBody = false;
  std::vector<DecodedInst> Insts;

  /// Interned immediates; the dispatch loop copies them into the frame
  /// after the registers so operand reads never branch on operand kind.
  std::vector<int64_t> Constants;

  /// Execution-frame size: registers plus materialized constants.
  size_t numSlots() const { return NumRegs + Constants.size(); }

  // Side tables addressed by DecodedInst::Extra slices.
  std::vector<DecodedOperand> CallArgs;
  std::vector<DecodedCase> Cases;
  std::vector<uint32_t> JumpTables;
  std::vector<DecodedCondition> Conditions;
  std::vector<std::string> Labels; ///< diagnostics for TrapFellOff

  /// Fused chain arms in logical (original program) order; only populated
  /// by decodeFused().  A MultiCmp's slice is Arms[Extra, Extra+ExtraCount).
  std::vector<FusedArm> Arms;

  /// Execution order for each MultiCmp: ArmExec[Extra + i] is the
  /// slice-local logical index of the i-th arm to *test*.  Identity unless
  /// profile counts proved a hotter disjoint order.
  std::vector<uint32_t> ArmExec;
};

/// The CFG edge one edge slot stands for: the function it lies in and the
/// stable ids (BasicBlock::getId) of the block the transfer leaves and the
/// block it enters.  Two slots may name one edge (a CondBr whose taken and
/// fall-through targets coincide, switch cases sharing a target).
struct EdgeSlot {
  uint32_t FuncIndex;
  unsigned From, To;
};

/// A fully decoded module.  Function order (and therefore branch-id
/// assignment) matches module order, so ids agree with numberBranches
/// (ir/CFG.h) on the source Module, the numbering the tree walker uses.
class DecodedModule {
public:
  /// Flattens \p M.  Pure: does not mutate the module and depends only on
  /// its current state; re-decode after any IR mutation.  When \p Edges
  /// is given it receives the edge each slot stands for, indexed by slot.
  static DecodedModule decode(const Module &M,
                              std::vector<EdgeSlot> *Edges = nullptr);

  const DecodedFunction *getFunction(const std::string &Name) const {
    auto It = Index.find(Name);
    return It == Index.end() ? nullptr : &Functions[It->second];
  }

  const DecodedFunction &function(uint32_t FuncIndex) const {
    assert(FuncIndex < Functions.size() && "function index out of range");
    return Functions[FuncIndex];
  }

  size_t size() const { return Functions.size(); }

  /// Total number of static conditional branches (== branch ids assigned).
  uint32_t numBranchIds() const { return NumBranchIds; }

private:
  std::vector<DecodedFunction> Functions;
  std::unordered_map<std::string, uint32_t> Index;
  uint32_t NumBranchIds = 0;

  // The decode-time fuser (sim/Fuse.cpp) rewrites Functions in place.
  friend DecodedModule decodeFused(const Module &M, const struct FuseOptions &,
                                   struct FuseStats *, struct SwapMap *);
};

} // namespace bropt

#endif // BROPT_SIM_DECODED_H
