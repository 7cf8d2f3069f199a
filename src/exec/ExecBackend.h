//===- exec/ExecBackend.h - Uniform engine dispatch -------------*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine-selection seam.  The tree walker and the threaded loop live
/// in sim/ and the native AOT backend lives in codegen/; sim/ must not
/// depend on codegen/, so mode dispatch cannot live inside Interpreter.
/// This layer sits above both: driver/Evaluator, `broptc --interp`,
/// broptd, the benches and the fuzz oracle all route runs through
/// executeModule() and get uniform behaviour — including
/// Interpreter::Mode::Native and the adaptive runtime's tier 2 — instead
/// of each hand-rolling Interpreter setup.
///
/// An ExecRequest carries everything a run needs; the fields mirror the
/// Interpreter setters they feed.  Per-run state lives in the request and
/// the engines themselves.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_EXEC_EXECBACKEND_H
#define BROPT_EXEC_EXECBACKEND_H

#include "profile/EdgeProfile.h"
#include "sim/Interpreter.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bropt {

class AdaptiveController;
class Module;
class NativeProgram;
class Predictor;

/// One run's inputs and optional attachments.  Every engine runs `main`
/// with no arguments.
struct ExecRequest {
  std::string_view Input;
  uint64_t InstructionLimit = 2'000'000'000;
  /// Fed every executed CondBr (interpreter engines only; native code
  /// does not model prediction).  Any zoo member (predict/Zoo.h).
  Predictor *AttachedPredictor = nullptr;
  /// Fused program for the threaded loop, usually an artifact's fused
  /// slot (Artifact::engine in driver/Artifact.h); ignored elsewhere.
  const DecodedModule *Prepared = nullptr;
  /// Adaptive-runtime controller for Mode::Adaptive; when set it owns
  /// engine attachment and Prepared is ignored.  With its
  /// RuntimeOptions::NativeTier on, beginRun() may hand the whole
  /// activation to the controller's native body (tier 2), and the run
  /// that makes a function hot enough compiles that body inline.  One
  /// controller runs one request at a time, on the caller's thread; an
  /// artifact's RunMutex serializes them.
  AdaptiveController *Adaptive = nullptr;
  /// Pre-compiled shared object for Mode::Native, usually an artifact's
  /// native slot.  When null the backend compiles on the fly — convenient
  /// for tools, but callers in hot paths should prepare once.
  const NativeProgram *Native = nullptr;
};

/// Runs \p M under \p Mode.  The one call every engine consumer shares.
RunResult executeModule(const Module &M, Interpreter::Mode Mode,
                        const ExecRequest &Req = {});

/// Stable lowercase engine name for CLI flags and JSON keys.
const char *execModeName(Interpreter::Mode Mode);

/// Measures per-function CFG edge weights, keyed by stable block ids, by
/// running \p M's entry once per training input on the threaded loop over
/// the unfused stream with dense edge counters attached
/// (sim/Interpreter.h: setEdgeCounters).  The weights equal the block
/// transfers the tree walker executes on the same inputs.  Runs that trap
/// are still counted up to the trap — partial traffic is real traffic.
/// The measurement feeds the ext-TSP layout (opt/Passes.h:
/// applyProfileGuidedLayout) and exports through profile/EdgeProfile.h.
ModuleEdgeWeights collectEdgeWeights(const Module &M,
                                     const std::vector<std::string> &Inputs,
                                     uint64_t InstructionLimit =
                                         2'000'000'000);

/// Parses "tree" | "fused" | "adaptive" | "native".
std::optional<Interpreter::Mode> parseExecMode(std::string_view Name);

} // namespace bropt

#endif // BROPT_EXEC_EXECBACKEND_H
