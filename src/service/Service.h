//===- service/Service.h - The broptd daemon --------------------*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-running compile-profile-execute service over the engine stack
/// (docs/SERVICE.md).  BroptService listens on a Unix-domain socket,
/// speaks the length-prefixed protocol of service/Protocol.h, and serves
/// many concurrent clients:
///
///  * requests are admitted onto a ThreadPool behind a bounded queue;
///    past the high-water mark new work is rejected with a retry-after
///    hint instead of queueing without bound (backpressure),
///  * compiled artifacts — module, fused program, native body, adaptive
///    controller — are shared across clients through one ArtifactCache
///    (driver/Artifact.h) keyed by artifact key (module hash + ordering
///    signature), so one client's hot compile serves the next client's
///    request; Evaluate requests keep their builds in the same cache,
///  * profiles learned from live traffic (pass-1 training runs, client
///    merges, adaptive-runtime exports) aggregate in ProfileShards and
///    warm-start later compiles of the same program, across clients,
///  * shutdown is graceful: stop admitting, drain the pool under a
///    deadline, then drainBackgroundWork() every cached controller —
///    cancelling in-flight tier-2 native compiles — before closing.
///
/// One reader thread per connection decodes frames and admits work; pool
/// workers execute and write the response under a per-connection write
/// lock, so clients may pipeline requests and responses interleave
/// safely.  A malformed frame earns an Error response; only a desynced
/// stream (oversize length prefix) or a peer disconnect closes the one
/// connection.  Server state is never torn down by client input.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_SERVICE_SERVICE_H
#define BROPT_SERVICE_SERVICE_H

#include "driver/Driver.h"
#include "runtime/AdaptiveController.h"
#include "service/Protocol.h"
#include "service/ProfileShards.h"
#include "support/ThreadPool.h"

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace bropt {

class Artifact;
class ArtifactCache;
class Evaluator;

/// Daemon knobs; every one surfaces as a broptd flag (docs/SERVICE.md).
struct ServiceOptions {
  /// Filesystem path the Unix-domain socket binds to.  Required.
  std::string SocketPath;
  /// Worker threads executing requests; 0 means one per hardware thread.
  unsigned Threads = 0;
  /// Admitted-but-incomplete requests allowed before backpressure: past
  /// this mark requests are Rejected with RetryAfterMillis.
  size_t QueueHighWater = 256;
  /// Shards in the cross-tenant profile store.
  unsigned ProfileShardCount = 16;
  /// Artifacts (compiled module + prepared engines + controller) kept in
  /// the daemon's one artifact cache, Evaluate builds included.
  size_t ArtifactCacheCapacity = 64;
  /// Wall-clock budget for graceful shutdown: pool drain plus controller
  /// background-work drain share it; on expiry in-flight tier-2 native
  /// compiles are cancelled.
  double DrainDeadlineSeconds = 30.0;
  /// Retry hint sent with backpressure rejections.
  uint32_t RetryAfterMillis = 50;
  /// Per-frame size cap, enforced before allocation.
  uint32_t MaxFrameBytes = MaxServiceFrameBytes;
  /// Adaptive-runtime knobs for adaptive Execute requests — NativeTier
  /// (`--native-tier`) is the daemon's only tier-2 switch.  Runtime.Runner
  /// also prepares native Execute requests.
  RuntimeOptions Runtime;
  /// Optional log sink (startup, shutdown, per-connection events).
  std::function<void(const std::string &)> Log;
};

/// The pipeline options a daemon compile of \p Spec runs under.
CompileOptions compileOptionsFor(const CompileSpec &Spec);

/// The daemon.  start() binds and spawns the acceptor; wait() blocks
/// until a client Shutdown request (or requestStop()); shutdown() drains
/// and tears down.  All public methods are thread-safe.
class BroptService {
public:
  explicit BroptService(ServiceOptions Options);
  ~BroptService();

  BroptService(const BroptService &) = delete;
  BroptService &operator=(const BroptService &) = delete;

  const ServiceOptions &options() const { return Opts; }

  /// Binds the socket and starts accepting.  \returns false with
  /// \p Error set when the socket cannot be created.
  bool start(std::string *Error = nullptr);

  /// Blocks until a Shutdown request arrives or requestStop() is called.
  void wait();

  /// Flags the daemon to stop and wakes wait().  Safe from any thread
  /// (including connection readers and signal-watcher threads); does not
  /// block — the actual drain happens in shutdown().
  void requestStop();

  /// Graceful shutdown: stop accepting, drain admitted work under the
  /// drain deadline, drain every cached controller's background work
  /// (cancelling in-flight tier-2 native compiles), close connections,
  /// unlink the socket.  Idempotent; concurrent callers wait for the
  /// first.  \returns true when everything drained cleanly before the
  /// deadline, false when the deadline forced cancellations.
  bool shutdown();

  /// Counters snapshot (also served by RequestKind::Stats).
  ServiceStats stats() const;

  /// True once requestStop()/shutdown() began; new requests get
  /// ResponseStatus::ShuttingDown.
  bool stopping() const { return Stopping.load(std::memory_order_acquire); }

private:
  struct Connection {
    ~Connection(); ///< closes Fd (last reference only; see reapConnections)
    int Fd = -1;
    std::mutex WriteMutex;
    std::atomic<bool> Open{true};
    std::atomic<bool> Done{false};
    std::thread Reader;
  };

  void acceptLoop();
  void readerLoop(std::shared_ptr<Connection> Conn);
  /// Joins and erases finished connections (called from the acceptor).
  void reapConnections(bool All);
  /// Inline vs pooled routing plus admission control; owns backpressure.
  void dispatch(const std::shared_ptr<Connection> &Conn,
                ServiceRequest Request);
  /// Executes one admitted request (pool worker context).
  ServiceResponse process(const ServiceRequest &Request);
  bool sendResponse(Connection &Conn, const ServiceResponse &Response);
  void sendOrDrop(const std::shared_ptr<Connection> &Conn,
                  const ServiceResponse &Response);

  /// Compiles under the artifact's build lock (first caller builds,
  /// later callers reuse); assembles the pass-2 profile from explicit
  /// data, training runs, and — with WarmStart — the shard aggregate.
  void buildArtifact(Artifact &A, const CompileSpec &Spec);
  void handleCompile(const ServiceRequest &Request, ServiceResponse &R);
  void handleExecute(const ServiceRequest &Request, ServiceResponse &R);
  void handleEvaluate(const ServiceRequest &Request, ServiceResponse &R);
  void handleProfileExport(const ServiceRequest &Request,
                           ServiceResponse &R);
  void handleProfileMerge(const ServiceRequest &Request, ServiceResponse &R);
  /// After an adaptive run: exports the controller's learned profile into
  /// the shards when the deployed ordering signature moved.
  void exportLearnedProfile(Artifact &A, AdaptiveController &Ctl);

  void log(const std::string &Message) const {
    if (Opts.Log)
      Opts.Log(Message);
  }

  ServiceOptions Opts;
  int ListenFd = -1;
  std::thread Acceptor;
  std::unique_ptr<ThreadPool> Pool;
  std::shared_ptr<ArtifactCache> Cache;
  std::unique_ptr<Evaluator> Eval;
  ProfileShards Shards;

  mutable std::mutex ConnMutex;
  std::vector<std::shared_ptr<Connection>> Connections;

  std::atomic<bool> Started{false};
  std::atomic<bool> Stopping{false};
  std::atomic<bool> StopRequested{false};
  std::mutex StopMutex;
  std::condition_variable StopCV;
  bool ShutdownStarted = false; ///< guarded by StopMutex
  bool ShutdownDone = false;    ///< guarded by StopMutex
  bool ShutdownClean = true;    ///< guarded by StopMutex

  /// Monotonic counters (relaxed; stats() snapshots).
  struct Counters {
    std::atomic<uint64_t> RequestsAccepted{0};
    std::atomic<uint64_t> RequestsCompleted{0};
    std::atomic<uint64_t> RequestsRejected{0};
    std::atomic<uint64_t> ProtocolErrors{0};
    std::atomic<uint64_t> DroppedConnections{0};
    std::atomic<uint64_t> QueueDepth{0};
    std::atomic<uint64_t> QueueHighWaterSeen{0};
    std::atomic<uint64_t> QueueWaitMicrosTotal{0};
    std::atomic<uint64_t> QueueWaitMicrosMax{0};
    std::atomic<uint64_t> WarmStarts{0};
    std::atomic<uint64_t> LearnedExports{0};
    std::atomic<uint64_t> ActiveConnections{0};
    std::atomic<uint64_t> TierTwoCancellations{0};
  };
  mutable Counters C;

  /// Cumulative measurement traffic per zoo predictor (Runs, Branches,
  /// Mispredictions keyed by scheme name).  Each execute request runs a
  /// fresh predictor instance; only these aggregates outlive the request.
  mutable std::mutex ZooMutex;
  std::map<std::string, std::array<uint64_t, 3>> ZooUsage;
};

} // namespace bropt

#endif // BROPT_SERVICE_SERVICE_H
