//===- driver/Evaluator.h - Parallel cached workload evaluation -*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workload evaluation harness: it compiles each workload's baseline
/// and reordered builds and measures both through measureBuild
/// (driver/Report.h).  The paper-tables golden and broptd's Evaluate
/// requests run on it.  Two properties make it cheap to call in sweeps:
///
///  * workloads are compiled and interpreted concurrently on a ThreadPool
///    (one task per workload; compiled modules are immutable during
///    measurement, so concurrent interpretation is safe);
///  * CompileResults are cached across calls.  Baseline builds depend
///    only on (source, heuristic set) and reordered builds on (source,
///    training input, full options), so the predictor sweeps of Tables
///    5/6 — which re-evaluate identical builds under many predictor
///    configurations — stop recompiling identical inputs.
///
/// DynamicCounts and PredictorStats never depend on wall clock or thread
/// schedule: interpretation is deterministic, so the records produced here
/// are the same whatever the thread count (see docs/SIM.md).
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_DRIVER_EVALUATOR_H
#define BROPT_DRIVER_EVALUATOR_H

#include "codegen/NativeRunner.h"
#include "driver/Report.h"
#include "support/LruCache.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

namespace bropt {

/// Harness configuration.
struct EvaluatorOptions {
  /// Worker threads; 0 means one per hardware thread.
  unsigned Threads = 0;
  /// Execution engine for every interpreter run.
  Interpreter::Mode Mode = Interpreter::Mode::Fused;
  /// Controller knobs for Mode::Adaptive (Runtime.NativeTier turns tier 2
  /// on); ignored by the other engines.
  RuntimeOptions Runtime;
  /// LRU bounds for the per-module caches (0 = unbounded).  Sized so the
  /// paper-tables sweep — ~200 distinct modules live at once — fits,
  /// while a long-running process (broptd) stays bounded.
  size_t DecodeCacheCapacity = 256;
  size_t AdaptiveCacheCapacity = 256;
  size_t NativeCacheCapacity = 128;
};

/// A WorkloadEvaluation plus the cache hits behind it.
struct WorkloadRecord {
  WorkloadEvaluation Eval;
  bool BaselineCacheHit = false;
  bool ReorderedCacheHit = false;
  bool BaselineDecodeHit = false;
  bool ReorderedDecodeHit = false;
  /// Mode::Adaptive only: the builds' controllers came from the cache
  /// (their accumulated profile state carried over into this evaluation).
  bool BaselineAdaptiveHit = false;
  bool ReorderedAdaptiveHit = false;
  /// Mode::Native only: the builds' shared objects came from the cache.
  bool BaselineNativeHit = false;
  bool ReorderedNativeHit = false;
};

/// Aggregate cache counters (monotonic over the Evaluator's lifetime).
struct EvaluatorStats {
  uint64_t BaselineHits = 0;
  uint64_t BaselineMisses = 0;
  uint64_t ReorderedHits = 0;
  uint64_t ReorderedMisses = 0;
  /// Fused-program cache: configurations sharing a module reuse
  /// one prepared program instead of re-decoding per evaluation.
  uint64_t DecodeHits = 0;
  uint64_t DecodeMisses = 0;
  /// Adaptive-controller cache (Mode::Adaptive).  A hit re-enters a live
  /// controller — its profile and published versions carry over; distinct
  /// from DecodeHits because what is reused is evolving tiering state,
  /// not an immutable program.
  uint64_t AdaptiveHits = 0;
  uint64_t AdaptiveMisses = 0;
  /// Optimized builds cached controllers published *beyond* their tier-up
  /// build — i.e. drift-triggered re-fusions of an evolving profile, not
  /// plain cache hits serving an unchanged stream.
  uint64_t AdaptiveReFusions = 0;
  /// Native `.so` cache (Mode::Native): compiled shared objects keyed by
  /// module identity; the source hash underneath embodies the ordering
  /// signature, so a reordered build never serves a baseline request.
  uint64_t NativeHits = 0;
  uint64_t NativeMisses = 0;
  /// LRU evictions per cache (EvaluatorOptions::*CacheCapacity).
  uint64_t DecodeEvictions = 0;
  uint64_t AdaptiveEvictions = 0;
  uint64_t NativeEvictions = 0;
};

/// Compiles and evaluates workloads concurrently with compile caching:
/// CompileResults are keyed by source + options, and fused programs,
/// controllers and shared objects by module identity.  One Evaluator is
/// meant to live across sweeps so the cache spans them.  Concurrency
/// contract: the caches are mutex-guarded and the stats counters are
/// relaxed atomics, so evaluateWorkload() and stats() are safe from
/// concurrent callers in the immutable-program modes
/// (tree/fused/native) — broptd serves Evaluate requests from its
/// worker pool this way.  The adaptive mode reuses *stateful*
/// controllers across calls and one controller must not run two
/// interpreters at once, so adaptive-mode evaluations sharing a module
/// must still be serialized by the caller.
class Evaluator {
public:
  explicit Evaluator(EvaluatorOptions Options = {});

  const EvaluatorOptions &options() const { return Options; }
  EvaluatorStats stats() const;

  /// Evaluates one workload, reusing cached compiles when possible.
  WorkloadRecord
  evaluateWorkload(const Workload &W, const CompileOptions &Options,
                   const std::optional<PredictorConfig> &Predictor =
                       std::nullopt);

  /// Evaluates \p Workloads concurrently, preserving input order.
  std::vector<WorkloadRecord> evaluateWorkloads(
      const std::vector<Workload> &Workloads, const CompileOptions &Options,
      const std::optional<PredictorConfig> &Predictor = std::nullopt);

  /// Every standard workload, concurrently, without the cache-hit
  /// records.
  std::vector<WorkloadEvaluation> evaluateAll(
      const CompileOptions &Options,
      const std::optional<PredictorConfig> &Predictor = std::nullopt);

  /// Empties the compile cache (counters keep accumulating).
  void clearCache();

private:
  std::shared_ptr<const CompileResult>
  baselineFor(const Workload &W, const CompileOptions &Options, bool &Hit);
  std::shared_ptr<const CompileResult>
  reorderedFor(const Workload &W, const CompileOptions &Options, bool &Hit);
  std::shared_ptr<const DecodedModule>
  preparedFor(const std::shared_ptr<const CompileResult> &Compiled,
              const std::string *ProfileText, bool &Hit);
  std::shared_ptr<AdaptiveController>
  controllerFor(const std::shared_ptr<const CompileResult> &Compiled,
                bool &Hit);
  std::shared_ptr<const NativeProgram>
  nativeFor(const std::shared_ptr<const CompileResult> &Compiled, bool &Hit,
            std::string &Error);

  EvaluatorOptions Options;
  ThreadPool Pool;

  mutable std::mutex CacheMutex;
  // Keys embed the full source text: no hash collisions, and the map stays
  // tiny (17 workloads x a few option signatures).
  std::map<std::string, std::shared_ptr<const CompileResult>> BaselineCache;
  std::map<std::string, std::shared_ptr<const CompileResult>> ReorderedCache;

  // Prepared fused programs keyed by module identity, so
  // predictor sweeps that re-evaluate one build under many configurations
  // decode it once.  Each entry pins its CompileResult so the key can
  // never dangle or be recycled while cached.  All three per-module
  // caches are LRU-bounded; eviction mid-use is safe because callers hold
  // shared_ptrs and the (unbounded, tiny) compile caches anchor Module
  // identity against ABA reuse.
  struct PreparedEntry {
    std::shared_ptr<const CompileResult> KeepAlive;
    std::shared_ptr<const DecodedModule> Program;
  };
  LruCache<const Module *, PreparedEntry> DecodeCache;

  // Live adaptive controllers, also keyed (and pinned) by module identity.
  // Unlike DecodeCache entries these are stateful: a cache hit resumes the
  // controller's accumulated profile, so the workload's second evaluation
  // starts already tiered.  One controller must not run two interpreters
  // at once; evaluateWorkloads only shares a module across *serial* calls,
  // which is the granularity the cache is reused at.
  struct AdaptiveEntry {
    std::shared_ptr<const CompileResult> KeepAlive;
    std::shared_ptr<AdaptiveController> Controller;
  };
  LruCache<const Module *, AdaptiveEntry> AdaptiveCache;

  // Compiled shared objects (Mode::Native), keyed and pinned the same
  // way.  Sits in front of NativeRunner's process-wide source-hash cache:
  // a hit here skips even re-emitting the C.
  struct NativeEntry {
    std::shared_ptr<const CompileResult> KeepAlive;
    std::shared_ptr<const NativeProgram> Program;
  };
  LruCache<const Module *, NativeEntry> NativeCache;

  // Counter updates are relaxed atomics rather than plain fields guarded
  // by CacheMutex: cache-hit bookkeeping must stay safe even where a
  // fast path reads the cache without holding the lock, and stats() can
  // snapshot mid-evaluation without tearing.  Monotonic counts only —
  // no cross-counter invariant needs more than relaxed ordering.
  struct AtomicCounters {
    std::atomic<uint64_t> BaselineHits{0};
    std::atomic<uint64_t> BaselineMisses{0};
    std::atomic<uint64_t> ReorderedHits{0};
    std::atomic<uint64_t> ReorderedMisses{0};
    std::atomic<uint64_t> DecodeHits{0};
    std::atomic<uint64_t> DecodeMisses{0};
    std::atomic<uint64_t> AdaptiveHits{0};
    std::atomic<uint64_t> AdaptiveMisses{0};
    std::atomic<uint64_t> AdaptiveReFusions{0};
    std::atomic<uint64_t> NativeHits{0};
    std::atomic<uint64_t> NativeMisses{0};
  };
  mutable AtomicCounters Counters;
};

} // namespace bropt

#endif // BROPT_DRIVER_EVALUATOR_H
