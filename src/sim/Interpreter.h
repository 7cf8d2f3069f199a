//===- sim/Interpreter.h - IR interpreter with event counters ----*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a module and collects the dynamic event counts the paper's
/// evaluation reports: instructions executed, conditional branches,
/// unconditional jumps, indirect jumps (Tables 4 and 7), and — via an
/// attached BranchPredictor — mispredictions (Tables 5 and 6).
///
/// Profiling hooks (ProfileInst) are forwarded to a callback and their
/// executions are counted separately so instrumentation overhead never
/// contaminates reported instruction counts.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_SIM_INTERPRETER_H
#define BROPT_SIM_INTERPRETER_H

#include "cost/MachineModel.h"
#include "ir/Module.h"
#include "predict/Predictor.h"
#include "sim/Decoded.h"

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace bropt {

// DynamicCounts — the event vector one run fills — lives with the machine
// models that price it (cost/MachineModel.h).

/// Outcome of interpreting a program.
struct RunResult {
  bool Trapped = false;      ///< true on a runtime error
  std::string TrapReason;    ///< diagnostic when Trapped
  int64_t ExitValue = 0;     ///< value returned by the entry function
  std::string Output;        ///< bytes written by PutChar/PrintInt
  DynamicCounts Counts;
  PredictorStats Prediction; ///< filled if a predictor was attached
};

/// Callbacks the adaptive runtime (src/runtime/AdaptiveController.h)
/// installs into the execution engines.  Every conditional-branch handler
/// decrements SampleCountdown; when it hits zero the engine reports one
/// sample and offers the controller a chance to swap the current
/// activation onto a different program version.  The check sits after the
/// branch target assignment, so execution is always at a block start — the
/// safe point — when the hooks fire.  Samples must never influence
/// observable behaviour: they only feed tiering decisions.
struct AdaptiveHooks {
  /// Conditional branches between samples (>= 1).
  uint32_t SampleInterval = 64;
  /// Live countdown to the next sample; engines decrement it in place.
  uint32_t SampleCountdown = 64;
  /// One profiling sample: (function index, branch id, taken, compare
  /// lhs value at the branch).
  std::function<void(uint32_t, uint32_t, bool, int64_t)> OnSample;
  /// Offers a hot-swap at a safe point.  \p Cur is the program the
  /// activation executes, \p Index its current block-start index.
  /// Returns the program to continue in (with \p NewIndex set to the
  /// corresponding block start there) or null to keep running \p Cur.
  std::function<const DecodedModule *(const DecodedModule &Cur,
                                      uint32_t FuncIndex, size_t Index,
                                      size_t &NewIndex)>
      TrySwap;
};

/// Interprets bropt IR.
///
/// The interpreter is deliberately simple and deterministic: registers are
/// 64-bit signed integers with wrap-around arithmetic, memory is the
/// module's flat global space, and input is a byte string consumed by
/// ReadChar.
class Interpreter {
public:
  /// Execution strategies.  All produce bit-identical RunResults; the
  /// tree walker is the reference, the others exist for speed (see
  /// docs/SIM.md).  The numeric values double as the broptd wire mode
  /// bytes (service/Protocol.h) and are pinned.
  enum class Mode : uint8_t {
    /// Walk the Instruction hierarchy block by block: the semantic
    /// reference every other engine is held to.
    Tree = 1,
    /// Threaded dispatch (computed goto where the compiler supports it)
    /// over a hot-first laid out, superinstruction-fused program
    /// (sim/Fuse.h).  The default.
    Fused = 2,
    /// The adaptive runtime (src/runtime/).  Tier 0 runs the unfused
    /// stream (DecodedModule::decode) on the same threaded loop as Fused,
    /// honouring installed AdaptiveHooks — sampled profiling plus
    /// hot-swapping the activation onto a fused stream at block-boundary
    /// safe points.  Without hooks this is tier 0 alone.  The controller's
    /// tier 2 (RuntimeOptions::NativeTier) is dispatched by
    /// exec/ExecBackend.h, which asks beginRun() whether an activation
    /// runs natively.
    Adaptive = 3,
    /// AOT-compiled machine code: codegen/CEmitter lowers the module to C,
    /// codegen/NativeRunner compiles and dlopens it.  Observables are
    /// bit-identical to the other engines but DynamicCounts stay zero
    /// (native code does not count events).  The sim layer cannot run
    /// this mode itself — dispatch goes through exec/ExecBackend.h, which
    /// owns the sim -> codegen layering; Interpreter::run() on this mode
    /// traps with a pointer at the seam.
    Native = 4,
  };

  explicit Interpreter(const Module &M, Mode ExecMode = Mode::Fused);

  /// Selects the execution engine for subsequent run() calls.
  void setMode(Mode ExecMode) { ExecutionMode = ExecMode; }
  Mode getMode() const { return ExecutionMode; }

  /// Sets the byte stream ReadChar consumes.  The view must stay valid for
  /// the duration of run().
  void setInput(std::string_view Bytes) { Input = Bytes; }

  /// Attaches a branch predictor (any zoo member, predict/Zoo.h); every
  /// executed CondBr is fed to it.  Pass null to detach.
  void attachPredictor(Predictor *P) { AttachedPredictor = P; }

  /// Installs the profiling callback invoked for each executed ProfileInst
  /// with (sequence id, current value of the profiled register).
  using ProfileCallback = std::function<void(unsigned, int64_t)>;
  void setProfileCallback(ProfileCallback CB) { OnProfile = std::move(CB); }

  /// Callback for ComboProfile hooks: (sequence id, outcome bitmask).
  void setComboProfileCallback(ProfileCallback CB) {
    OnComboProfile = std::move(CB);
  }

  /// Points the threaded loop at dense edge counters, one per edge slot of
  /// the program it runs (sim/Decoded.h: EdgeSlot): every executed CondBr,
  /// Jump, layout fall-through, Switch and IndirectJump adds one to the
  /// slot of the target it took, so a run counts exactly the block
  /// transfers the tree walker executes, up to any trap.  Only the unfused
  /// stream carries edge slots, so counting needs Mode::Adaptive without
  /// hooks (tier 0 alone); the caller sizes \p Counts to the slot table of
  /// the prepared program, or of DecodedModule::decode(M) when none is
  /// set.  Null (the default) turns counting off.
  void setEdgeCounters(uint64_t *Counts) { EdgeCounts = Counts; }

  /// Caps the number of executed instructions; exceeded -> trap.
  void setInstructionLimit(uint64_t Limit) { InstructionLimit = Limit; }

  /// Supplies a pre-decoded program, fused or unfused, for run() to
  /// execute instead of re-decoding the module every run (an artifact's
  /// fused slot, driver/Artifact.h, is run this way).  The caller must keep \p DM alive and
  /// consistent with the module.  Ignored by the tree walker; pass null to
  /// revert to per-run decoding.
  void setPreparedProgram(const DecodedModule *DM) { Prepared = DM; }

  /// Installs (or clears, with null) the adaptive runtime's hooks.  Only
  /// honoured by the threaded loop (Fused and Adaptive); the caller keeps
  /// \p H alive and may mutate its countdown fields between runs.
  void setAdaptiveHooks(AdaptiveHooks *H) { Hooks = H; }

  /// Runs \p EntryName with \p Args.  Resets all counters first.
  RunResult run(const std::string &EntryName = "main",
                const std::vector<int64_t> &Args = {});

private:
  /// How the threaded loop feeds an attached predictor: through the
  /// virtual Predictor::observe() (any scheme, or none), or by stepping a
  /// BranchPredictor's table state in loop locals.
  enum class PredictorFeed : uint8_t { Virtual, Table };

  int64_t execFunction(const Function &F, const std::vector<int64_t> &Args,
                       unsigned Depth);
  /// Executes \p F on the threaded loop, over a fused or an unfused
  /// stream alike.  The trailing parameters resume an activation
  /// hot-swapped from another program version: when \p ResumeRegs is
  /// non-null the frame's registers are copied from it (Args is ignored),
  /// the condition codes start at the resume values, and execution begins
  /// at \p StartIndex — which must be a block start.
  /// Frame transfer is sound because fusion rewrites instructions in place
  /// without touching NumRegs or the constant pool.  \p CountEdges selects
  /// the instantiation that bumps EdgeCounts on every transfer; production
  /// runs take the other one, which holds no counting code.  \p Feed is
  /// Table only when the attached predictor is a BranchPredictor.
  template <bool CountEdges, PredictorFeed Feed>
  int64_t execFused(const DecodedModule &DM, const DecodedFunction &F,
                    const std::vector<int64_t> &Args, unsigned Depth,
                    size_t StartIndex = 0,
                    const int64_t *ResumeRegs = nullptr,
                    int64_t ResumeCCLhs = 0, int64_t ResumeCCRhs = 0);
  void trap(std::string Reason);

  int64_t readOperand(const Operand &Op,
                      const std::vector<int64_t> &Regs) const;

  const Module &M;
  Mode ExecutionMode;
  std::string_view Input;
  size_t InputCursor = 0;
  Predictor *AttachedPredictor = nullptr;
  const DecodedModule *Prepared = nullptr;
  AdaptiveHooks *Hooks = nullptr;
  ProfileCallback OnProfile;
  ProfileCallback OnComboProfile;
  uint64_t *EdgeCounts = nullptr;
  uint64_t InstructionLimit = 2'000'000'000;

  std::vector<int64_t> Memory;
  RunResult Result;
  bool Aborted = false;
  /// Each CondBr's id (ir/CFG.h: numberBranches), for the tree walker's
  /// predictor feed; filled by run() only when a predictor is attached.
  std::unordered_map<const Instruction *, uint32_t> TreeBranchIds;

  static constexpr unsigned MaxCallDepth = 2000;
};

} // namespace bropt

#endif // BROPT_SIM_INTERPRETER_H
