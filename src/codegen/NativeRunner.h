//===- codegen/NativeRunner.h - Compile and run emitted C -------*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns CEmitter output into running machine code: write the TU to a
/// scratch directory, invoke the host C compiler (`-O2 -fPIC -shared`),
/// `dlopen` the result, and expose it as a NativeProgram whose run()
/// returns the same RunResult the interpreter produces (with all
/// DynamicCounts zero — native runs do not count).
///
/// Compiler discovery, in order: the `BROPT_CC` environment variable,
/// the compiler CMake found at configure time (baked in as
/// BROPT_HOST_CC), then plain `cc` from PATH.  `available()` probes the
/// chain once by compiling a trivial TU; everything degrades gracefully
/// when no compiler or no dlopen support is present.
///
/// The process-wide runner keeps an LRU cache of shared objects keyed by
/// a hash of the emitted source text (which embodies the block-ordering
/// signature — reordering changes the text, hence the key); a hit compares
/// the cached text with the new one.  Compiles of the same module
/// therefore cost one `fork`/`exec` ever; an Artifact (driver/Artifact.h)
/// holds its native program in a slot on top, so a build that already
/// has one skips even re-emission.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_CODEGEN_NATIVERUNNER_H
#define BROPT_CODEGEN_NATIVERUNNER_H

#include "codegen/CEmitter.h"
#include "sim/Interpreter.h"
#include "support/LruCache.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bropt {

class Module;

/// Caller-owned handle for bounding or aborting compiles.  The runner
/// polls \p Cancel while the host compiler runs and kills the compiler's
/// process group when it flips (or when \p TimeoutSeconds elapses, which
/// sets it too), so a hung `$BROPT_CC` can always be torn down from
/// another thread.  Setting the flag takes no lock.  The runner never
/// clears it, so once set it cancels every later compile through the
/// same control as well.
struct NativeCompileControl {
  std::atomic<bool> Cancel{false};
  /// Wall-clock cap on one compiler invocation; 0 means no cap.
  double TimeoutSeconds = 0;
};

/// A compiled, loaded translation unit.  Thread-safe and reentrant: each
/// run() owns its context, and the emitted code has no mutable globals.
/// Keeps its `.so` mapped until destruction; NativeRunner hands these
/// out as shared_ptr so cache eviction never unmaps code mid-run.
class NativeProgram {
public:
  ~NativeProgram();
  NativeProgram(const NativeProgram &) = delete;
  NativeProgram &operator=(const NativeProgram &) = delete;

  /// Runs the module entry on \p Input.  Mirrors Interpreter::run
  /// observables exactly; Counts/Prediction stay zero.
  RunResult run(std::string_view Input, const std::vector<int64_t> &Args = {},
                uint64_t InstructionLimit = 2'000'000'000) const;

  /// The C source this program was compiled from.
  const std::string &source() const { return Source; }

  /// The layout signature baked into the source (see layoutSignature()).
  const std::string &layout() const { return Layout; }

private:
  friend class NativeRunner;
  NativeProgram() = default;

  void *Handle = nullptr;
  void *RunFn = nullptr;     ///< NativeRunFn
  void *ReleaseFn = nullptr; ///< NativeReleaseFn
  std::string Source;
  std::string Layout;
};

/// Counters for the runner's shared-object cache.
struct NativeRunnerStats {
  uint64_t Compiles = 0;  ///< actual compiler invocations
  uint64_t CacheHits = 0; ///< prepare() served from the LRU
  uint64_t Evictions = 0;
  double CompileSeconds = 0; ///< wall time spent in the host compiler
  /// Compiles torn down through a NativeCompileControl (cancel or timeout).
  uint64_t CompilesCancelled = 0;
};

/// Compiles emitted C and caches the resulting shared objects.
class NativeRunner {
public:
  /// The process-wide runner (scratch dir + cache shared by Evaluator,
  /// oracle, bench, and tools).
  static NativeRunner &shared();

  explicit NativeRunner(size_t CacheCapacity = 256);
  ~NativeRunner();
  NativeRunner(const NativeRunner &) = delete;
  NativeRunner &operator=(const NativeRunner &) = delete;

  /// True when a working host compiler + dlopen were found.  Probes once
  /// (compile and load a trivial TU) and caches the verdict.
  bool available();

  /// Why available() is false; empty while it is true.
  const std::string &unavailableReason();

  /// The compiler command in use (e.g. "gcc", or $BROPT_CC verbatim).
  const std::string &compilerCommand() const { return Compiler; }

  /// Emits C for \p M, compiles it (or reuses the cached build), and
  /// returns the loaded program; null with \p Error set on failure.
  /// \p Control optionally bounds/aborts the compile (see
  /// NativeCompileControl); it must outlive the call.
  std::shared_ptr<const NativeProgram>
  prepare(const Module &M, std::string *Error = nullptr,
          const CEmitterOptions &Opts = {},
          NativeCompileControl *Control = nullptr);

  /// Compiles already-emitted \p Source (golden tests use this to check
  /// the text itself compiles); null with \p Error set on failure.
  std::shared_ptr<const NativeProgram>
  prepareSource(const std::string &Source, std::string *Error = nullptr,
                NativeCompileControl *Control = nullptr);

  NativeRunnerStats stats();

private:
  std::shared_ptr<const NativeProgram>
  compileLocked(const std::string &Source, std::string *Error,
                NativeCompileControl *Control = nullptr);

  std::mutex Mutex;
  std::string Compiler;
  std::string ScratchDir; ///< empty when mkdtemp failed
  uint64_t NextFileId = 0;
  int Probe = -1; ///< -1 unprobed, 0 unavailable, 1 available
  std::string ProbeReason;
  NativeRunnerStats Stats;
  LruCache<uint64_t, std::shared_ptr<const NativeProgram>> Cache;
};

} // namespace bropt

#endif // BROPT_CODEGEN_NATIVERUNNER_H
