//===- driver/Artifact.h - Compiled builds and their one cache --*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unit the two-pass process (paper Figure 2) produces for one source,
/// options and training input: the pass-2 module and the profile that
/// built it.  An Artifact holds one such build, compiled once, and hangs
/// the three engines that run it off it as slots built on first use: the
/// fused program, the native program and the adaptive controller.
/// engine() is the one place an execution mode picks its slot.
/// ArtifactCache is the one LRU of artifacts.  The Evaluator
/// (driver/Evaluator.h) keeps its baseline and reordered builds in it,
/// broptd (service/Service.h) its compile specs, and a daemon's Evaluator
/// shares the daemon's cache.
///
/// Three locks, never two held at once:
///
///  * the cache lock guards the LRU and its counters; lookup() drops it
///    before anything is built;
///  * an artifact's BuildMutex guards its build and its slots: the first
///    holder to find it unbuilt compiles, later holders wait and reuse the
///    outcome, and each slot is built by the first holder that asks;
///  * its RunMutex serializes runs through the controller, which takes no
///    lock of its own: every build it runs, a tier-2 host compile too,
///    runs on the thread holding RunMutex, and only cancelNativeCompile()
///    may be called without it.  Fused and native programs are immutable
///    and run concurrently without it.
///
/// The native slot's host compile runs under BuildMutex, bounded by
/// RuntimeOptions::NativeCompileTimeout; Artifact::cancelNativeCompile()
/// reaches it from any thread without a lock.
///
/// A recorded build never changes, so whoever has taken BuildMutex once
/// after the build may read compiled() and profile() without it.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_DRIVER_ARTIFACT_H
#define BROPT_DRIVER_ARTIFACT_H

#include "codegen/NativeRunner.h"
#include "driver/Driver.h"
#include "exec/ExecBackend.h"
#include "runtime/AdaptiveController.h"
#include "support/LruCache.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace bropt {

/// One build and the engines that run it.  Every method but
/// cancelNativeCompile() requires BuildMutex held.
class Artifact {
public:
  Artifact(const Artifact &) = delete;
  Artifact &operator=(const Artifact &) = delete;

  /// True once a build is recorded; a failed build is final too.
  bool built() const { return Built; }
  /// Records the build: \p Result (its Error set when it failed) and the
  /// profile that built it, if any.
  void setBuilt(CompileResult Result,
                std::optional<ProfileDB> Profile = std::nullopt);

  const CompileResult &compiled() const { return Compiled; }
  /// The profile that built the module, or null.
  const ProfileDB *profile() const { return Profile ? &*Profile : nullptr; }

  /// Points \p Request at the engine \p Mode runs, built on first use:
  /// Prepared at the fused program, its chain arms ordered by
  /// \p FuseProfile (may be null); Adaptive at the controller, built with
  /// \p Options, whose profile state persists across runs and whose every
  /// run holds RunMutex; Native at the program prepared through \p Runner,
  /// its host compile capped by \p Options' NativeCompileTimeout.  The
  /// tree walker needs none.  \p Hit says whether the engine existed.
  /// \returns false with \p Error set when the native program could not
  /// be built (the compile failed, timed out or was cancelled), which is
  /// final too.
  bool engine(Interpreter::Mode Mode, const ProfileDB *FuseProfile,
              const RuntimeOptions &Options, NativeRunner &Runner,
              ExecRequest &Request, bool &Hit, std::string &Error);
  /// The controller if one was built, else null.
  AdaptiveController *existingController() const { return Controller.get(); }
  /// Cancels the native slot's host compile, in flight or to come.  Takes
  /// no lock: an atomic store, safe from any thread, as broptd's shutdown
  /// needs while a worker holds BuildMutex through a wedged compile.
  void cancelNativeCompile() {
    NativeControl.Cancel.store(true, std::memory_order_release);
  }

  std::mutex BuildMutex;
  std::mutex RunMutex;

  /// broptd's bookkeeping; the Evaluator leaves it empty.  The daemon's
  /// build sets ProgramKey, the shard key its traffic aggregates under,
  /// and WarmStarted, whether the shard aggregate went into its profile.
  /// LastExportedSig, the deployed ordering signature at the last shard
  /// export, is guarded by RunMutex.
  std::string ProgramKey;
  bool WarmStarted = false;
  std::string LastExportedSig;

private:
  friend class ArtifactCache;
  explicit Artifact(std::atomic<uint64_t> &EngineBuilds)
      : EngineBuilds(EngineBuilds) {}

  /// The owning cache's counter: a cache outlives the use of its
  /// artifacts.
  std::atomic<uint64_t> &EngineBuilds;
  bool Built = false;
  CompileResult Compiled;
  std::optional<ProfileDB> Profile;
  std::unique_ptr<const DecodedModule> Fused;
  bool NativeTried = false;
  NativeCompileControl NativeControl;
  std::shared_ptr<const NativeProgram> Native;
  std::string NativeError;
  std::unique_ptr<AdaptiveController> Controller;
};

/// Counters of one ArtifactCache, monotonic over its lifetime.
struct ArtifactCacheStats {
  uint64_t Hits = 0;         ///< lookups that found their artifact
  uint64_t Misses = 0;       ///< lookups that inserted a new one
  uint64_t Evictions = 0;    ///< artifacts the LRU dropped
  uint64_t EngineBuilds = 0; ///< slots built: programs and controllers
};

/// The LRU of artifacts, keyed by string.  Thread-safe.
class ArtifactCache {
public:
  /// Holds at most \p Capacity artifacts; 0 means unbounded.  An evicted
  /// artifact stays usable by whoever holds it.
  explicit ArtifactCache(size_t Capacity) : Entries(Capacity) {}

  /// The artifact under \p Key; a miss inserts an unbuilt one.
  std::shared_ptr<Artifact> lookup(const std::string &Key, bool &Hit);
  /// The cached artifacts, most recently used first.
  std::vector<std::shared_ptr<Artifact>> live() const;
  /// Drops every artifact; the counters keep accumulating.
  void clear();
  ArtifactCacheStats stats() const;

private:
  mutable std::mutex Mutex;
  LruCache<std::string, std::shared_ptr<Artifact>> Entries;
  uint64_t Hits = 0;   ///< guarded by Mutex
  uint64_t Misses = 0; ///< guarded by Mutex
  std::atomic<uint64_t> EngineBuilds{0};
};

} // namespace bropt

#endif // BROPT_DRIVER_ARTIFACT_H
