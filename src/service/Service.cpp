//===- service/Service.cpp - The broptd daemon ----------------------------===//

#include "service/Service.h"

#include "driver/Evaluator.h"
#include "exec/ExecBackend.h"
#include "predict/Zoo.h"
#include "support/Strings.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace bropt;

CompileOptions bropt::compileOptionsFor(const CompileSpec &Spec) {
  CompileOptions O;
  O.HeuristicSet = static_cast<SwitchHeuristicSet>(
      std::min<unsigned>(Spec.HeuristicSet, 3));
  O.EnableCommonSuccessorReordering = Spec.CommonSuccessor;
  O.Reorder.EnableMethodSelection = Spec.MethodSelection;
  O.Predictor = Spec.Predictor;
  return O;
}

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

bool profileNonEmpty(const ProfileDB &DB) {
  return DB.numSequences() != 0 || !DB.hotness().empty();
}

/// Fills the build half of \p R from \p A, whose build lock the caller
/// holds; false when the build failed.
bool describeBuild(const Artifact &A, bool Hit, ServiceResponse &R) {
  R.ProgramKey = A.ProgramKey;
  R.CompileCacheHit = Hit;
  const CompileResult &Build = A.compiled();
  if (!Build.ok()) {
    R.Status = ResponseStatus::Error;
    R.Error = Build.Error;
    return false;
  }
  R.WarmStarted = A.WarmStarted;
  R.SequencesReordered = Build.Stats.Reordered;
  R.CodeSize = Build.M->instructionCount();
  return true;
}

} // namespace

BroptService::Connection::~Connection() {
  if (Fd >= 0)
    ::close(Fd);
}

BroptService::BroptService(ServiceOptions Options)
    : Opts(std::move(Options)),
      Cache(std::make_shared<ArtifactCache>(Opts.ArtifactCacheCapacity)),
      Shards(Opts.ProfileShardCount) {}

BroptService::~BroptService() {
  shutdown();
}

bool BroptService::start(std::string *Error) {
  auto fail = [&](const std::string &Why) {
    if (Error)
      *Error = Why;
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    return false;
  };
  if (Opts.SocketPath.empty())
    return fail("socket path required");
  sockaddr_un Addr{};
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path))
    return fail(formatString("socket path too long (%zu bytes, limit %zu)",
                             Opts.SocketPath.size(),
                             sizeof(Addr.sun_path) - 1));
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return fail(formatString("socket: %s", std::strerror(errno)));
  ::unlink(Opts.SocketPath.c_str());
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
              Opts.SocketPath.size() + 1);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0)
    return fail(formatString("bind %s: %s", Opts.SocketPath.c_str(),
                             std::strerror(errno)));
  if (::listen(ListenFd, 128) < 0)
    return fail(formatString("listen: %s", std::strerror(errno)));

  Pool = std::make_unique<ThreadPool>(Opts.Threads);
  EvaluatorOptions EO;
  EO.Threads = 2; // evaluate requests are rare; keep the side pool small
  Eval = std::make_unique<Evaluator>(EO, Cache);
  Started.store(true, std::memory_order_release);
  Acceptor = std::thread([this] { acceptLoop(); });
  log(formatString("broptd listening on %s (%u workers, high-water %zu)",
                   Opts.SocketPath.c_str(), Pool->numThreads(),
                   Opts.QueueHighWater));
  return true;
}

void BroptService::wait() {
  std::unique_lock<std::mutex> Lock(StopMutex);
  StopCV.wait(Lock, [&] {
    return StopRequested.load(std::memory_order_acquire);
  });
}

void BroptService::requestStop() {
  StopRequested.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> Lock(StopMutex);
  }
  StopCV.notify_all();
}

bool BroptService::shutdown() {
  {
    std::unique_lock<std::mutex> Lock(StopMutex);
    if (ShutdownStarted) {
      StopCV.wait(Lock, [&] { return ShutdownDone; });
      return ShutdownClean;
    }
    ShutdownStarted = true;
  }
  requestStop();
  Stopping.store(true, std::memory_order_release);
  auto Start = std::chrono::steady_clock::now();
  bool Clean = true;

  if (Acceptor.joinable())
    Acceptor.join();

  // Drain admitted work.  New requests have been answered ShuttingDown
  // since the flag flipped, so the pool queue only shrinks.  Past the
  // deadline, a run may be stuck in a host compile: a native execute's
  // under the artifact's build lock, or an adaptive run's tier-2 one.
  // Cancel both kinds, which touches nothing but atomic flags, and give
  // the runs that frees as long again to finish.
  const double Deadline = std::max(Opts.DrainDeadlineSeconds, 0.1);
  if (Pool && !Pool->waitFor(Deadline)) {
    Clean = false;
    for (const std::shared_ptr<Artifact> &A : Cache->live()) {
      A->cancelNativeCompile();
      // A build lock still held here belongs to a request the drain gave
      // up on; its controller, if it has one, cannot be reached.
      std::unique_lock<std::mutex> Lock(A->BuildMutex, std::try_to_lock);
      if (AdaptiveController *Ctl = Lock ? A->existingController() : nullptr)
        Ctl->cancelNativeCompile();
    }
    Pool->waitFor(Deadline);
  }

  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (const std::shared_ptr<Connection> &Conn : Connections) {
      Conn->Open.store(false, std::memory_order_release);
      if (Conn->Fd >= 0)
        ::shutdown(Conn->Fd, SHUT_RDWR);
    }
  }
  reapConnections(/*All=*/true);

  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  if (Started.load(std::memory_order_acquire) && !Opts.SocketPath.empty())
    ::unlink(Opts.SocketPath.c_str());

  log(formatString("broptd drained %s in %.2fs",
                   Clean ? "cleanly" : "with cancellations",
                   secondsSince(Start)));
  {
    std::lock_guard<std::mutex> Lock(StopMutex);
    ShutdownDone = true;
    ShutdownClean = Clean;
  }
  StopCV.notify_all();
  return Clean;
}

ServiceStats BroptService::stats() const {
  ServiceStats S;
  S.RequestsAccepted = C.RequestsAccepted.load(std::memory_order_relaxed);
  S.RequestsCompleted = C.RequestsCompleted.load(std::memory_order_relaxed);
  S.RequestsRejected = C.RequestsRejected.load(std::memory_order_relaxed);
  S.ProtocolErrors = C.ProtocolErrors.load(std::memory_order_relaxed);
  S.DroppedConnections =
      C.DroppedConnections.load(std::memory_order_relaxed);
  S.QueueDepth = C.QueueDepth.load(std::memory_order_relaxed);
  S.QueueHighWaterSeen =
      C.QueueHighWaterSeen.load(std::memory_order_relaxed);
  S.QueueWaitMicrosTotal =
      C.QueueWaitMicrosTotal.load(std::memory_order_relaxed);
  S.QueueWaitMicrosMax =
      C.QueueWaitMicrosMax.load(std::memory_order_relaxed);
  ArtifactCacheStats AS = Cache->stats();
  S.CompileHits = AS.Hits;
  S.CompileMisses = AS.Misses;
  S.ArtifactEvictions = AS.Evictions;
  S.WarmStarts = C.WarmStarts.load(std::memory_order_relaxed);
  S.LearnedExports = C.LearnedExports.load(std::memory_order_relaxed);
  S.ActiveConnections =
      C.ActiveConnections.load(std::memory_order_relaxed);
  S.TierTwoCancellations =
      C.TierTwoCancellations.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(ZooMutex);
    for (const auto &[Name, Usage] : ZooUsage)
      S.Zoo.push_back({Name, Usage[0], Usage[1], Usage[2]});
  }
  ProfileShardStats PS = Shards.stats();
  S.ProfileMerges = PS.Merges;
  S.ProfileMergeConflicts = PS.Conflicts;
  S.ProfileAggregations = PS.Aggregations;
  S.ProfileRecords = PS.Records;
  return S;
}

//===----------------------------------------------------------------------===//
// Connection plumbing
//===----------------------------------------------------------------------===//

void BroptService::acceptLoop() {
  while (!stopping()) {
    reapConnections(/*All=*/false);
    pollfd P{};
    P.fd = ListenFd;
    P.events = POLLIN;
    int N = ::poll(&P, 1, /*timeout ms=*/200);
    if (N <= 0)
      continue; // timeout or EINTR; recheck the stop flag
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    auto Conn = std::make_shared<Connection>();
    Conn->Fd = Fd;
    C.ActiveConnections.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> Lock(ConnMutex);
      Connections.push_back(Conn);
    }
    Conn->Reader = std::thread([this, Conn] { readerLoop(Conn); });
  }
}

void BroptService::reapConnections(bool All) {
  std::vector<std::shared_ptr<Connection>> Dead;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    auto End = std::remove_if(
        Connections.begin(), Connections.end(),
        [&](const std::shared_ptr<Connection> &Conn) {
          if (!All && !Conn->Done.load(std::memory_order_acquire))
            return false;
          Dead.push_back(Conn);
          return true;
        });
    Connections.erase(End, Connections.end());
  }
  for (const std::shared_ptr<Connection> &Conn : Dead)
    if (Conn->Reader.joinable())
      Conn->Reader.join();
  // Fds close in ~Connection, i.e. only once the last in-flight response
  // writer has dropped its reference — never while a worker could still
  // write (and race a recycled fd number).
}

void BroptService::readerLoop(std::shared_ptr<Connection> Conn) {
  std::string Payload, Err;
  for (;;) {
    Payload.clear();
    Err.clear();
    if (!readFrame(Conn->Fd, Payload, Opts.MaxFrameBytes, &Err)) {
      if (Err == "eof")
        break; // clean close between frames
      if (Err.rfind("oversize frame", 0) == 0) {
        // The length prefix itself is garbage; the stream cannot be
        // resynced.  Answer, then close this one connection — the
        // server and every other client are untouched.
        C.ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
        ServiceResponse R;
        R.Status = ResponseStatus::Error;
        R.Error = Err;
        sendResponse(*Conn, R);
      } else if (!stopping()) {
        // Disconnected mid-frame (or a read error).
        C.DroppedConnections.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    ServiceRequest Req;
    if (!decodeRequest(Payload, Req, &Err)) {
      // Framing was intact, the payload was not: survivable.  Report and
      // keep serving this connection.
      C.ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
      ServiceResponse R;
      R.Status = ResponseStatus::Error;
      R.Error = "malformed request: " + Err;
      if (!sendResponse(*Conn, R)) {
        C.DroppedConnections.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      continue;
    }
    dispatch(Conn, std::move(Req));
  }
  C.ActiveConnections.fetch_sub(1, std::memory_order_relaxed);
  Conn->Done.store(true, std::memory_order_release);
}

bool BroptService::sendResponse(Connection &Conn,
                                const ServiceResponse &Response) {
  std::string Payload = encodeResponse(Response);
  std::lock_guard<std::mutex> Lock(Conn.WriteMutex);
  if (!Conn.Open.load(std::memory_order_acquire))
    return false;
  if (!writeFrame(Conn.Fd, Payload)) {
    Conn.Open.store(false, std::memory_order_release);
    return false;
  }
  return true;
}

void BroptService::sendOrDrop(const std::shared_ptr<Connection> &Conn,
                              const ServiceResponse &Response) {
  if (!sendResponse(*Conn, Response))
    C.DroppedConnections.fetch_add(1, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Admission and dispatch
//===----------------------------------------------------------------------===//

void BroptService::dispatch(const std::shared_ptr<Connection> &Conn,
                            ServiceRequest Request) {
  ServiceResponse Quick;
  Quick.Seq = Request.Seq;
  // Stats and Shutdown are served inline on the reader thread: the
  // monitoring and control plane must keep working when the admission
  // queue is saturated — that is exactly when it is needed.
  if (Request.Kind == RequestKind::Stats) {
    Quick.Stats = stats();
    sendOrDrop(Conn, Quick);
    return;
  }
  if (Request.Kind == RequestKind::Shutdown) {
    sendOrDrop(Conn, Quick);
    requestStop();
    return;
  }
  if (stopping()) {
    Quick.Status = ResponseStatus::ShuttingDown;
    Quick.Error = "daemon is draining";
    sendOrDrop(Conn, Quick);
    return;
  }
  uint64_t Depth = C.QueueDepth.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Depth > Opts.QueueHighWater) {
    C.QueueDepth.fetch_sub(1, std::memory_order_relaxed);
    C.RequestsRejected.fetch_add(1, std::memory_order_relaxed);
    Quick.Status = ResponseStatus::Rejected;
    Quick.RetryAfterMillis = Opts.RetryAfterMillis;
    Quick.Error = "admission queue past the high-water mark";
    sendOrDrop(Conn, Quick);
    return;
  }
  uint64_t Seen = C.QueueHighWaterSeen.load(std::memory_order_relaxed);
  while (Depth > Seen &&
         !C.QueueHighWaterSeen.compare_exchange_weak(
             Seen, Depth, std::memory_order_relaxed))
    ;
  C.RequestsAccepted.fetch_add(1, std::memory_order_relaxed);
  auto Admitted = std::chrono::steady_clock::now();
  // std::function needs a copyable closure; the request moves behind a
  // shared_ptr.
  auto Req = std::make_shared<ServiceRequest>(std::move(Request));
  Pool->enqueue([this, Conn, Req, Admitted] {
    uint64_t WaitMicros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - Admitted)
            .count());
    C.QueueWaitMicrosTotal.fetch_add(WaitMicros, std::memory_order_relaxed);
    uint64_t Max = C.QueueWaitMicrosMax.load(std::memory_order_relaxed);
    while (WaitMicros > Max &&
           !C.QueueWaitMicrosMax.compare_exchange_weak(
               Max, WaitMicros, std::memory_order_relaxed))
      ;
    ServiceResponse R = process(*Req);
    R.Seq = Req->Seq;
    R.QueueMicros = WaitMicros;
    // Count completion *before* the response goes out: a client that has
    // its response in hand must never read a Stats snapshot that does not
    // yet include the request it just completed.
    C.RequestsCompleted.fetch_add(1, std::memory_order_relaxed);
    sendOrDrop(Conn, R);
    C.QueueDepth.fetch_sub(1, std::memory_order_relaxed);
  });
}

ServiceResponse BroptService::process(const ServiceRequest &Request) {
  ServiceResponse R;
  try {
    switch (Request.Kind) {
    case RequestKind::Compile:
      handleCompile(Request, R);
      break;
    case RequestKind::Execute:
      handleExecute(Request, R);
      break;
    case RequestKind::Evaluate:
      handleEvaluate(Request, R);
      break;
    case RequestKind::ProfileExport:
      handleProfileExport(Request, R);
      break;
    case RequestKind::ProfileMerge:
      handleProfileMerge(Request, R);
      break;
    case RequestKind::Stats:
    case RequestKind::Shutdown:
      R.Status = ResponseStatus::Error;
      R.Error = "request kind served inline"; // unreachable via dispatch
      break;
    }
  } catch (const std::exception &E) {
    // A daemon never dies on one request.
    R = ServiceResponse();
    R.Status = ResponseStatus::Error;
    R.Error = formatString("internal error: %s", E.what());
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Artifacts
//===----------------------------------------------------------------------===//

void BroptService::buildArtifact(Artifact &A, const CompileSpec &Spec) {
  A.ProgramKey = programKeyFor(Spec);
  // Even a failed build is final for this artifact.
  auto fail = [&](std::string Error) {
    CompileResult Failed;
    Failed.Error = std::move(Error);
    A.setBuilt(std::move(Failed));
  };
  CompileOptions O = compileOptionsFor(Spec);
  // Diagnose a bad zoo name up front: without training inputs nothing
  // downstream would validate it.
  if (!Spec.Predictor.empty() && !makePredictor(Spec.Predictor))
    return fail("unknown predictor '" + Spec.Predictor +
                "' (see docs/PREDICT.md for the zoo)");
  ProfileDB Profile;
  bool HaveProfile = false;
  if (!Spec.ProfileData.empty()) {
    std::string Err;
    if (!Profile.deserialize(Spec.ProfileData, &Err))
      return fail("bad profile data: " + Err);
    HaveProfile = true;
  }
  if (!Spec.TrainingInputs.empty()) {
    std::vector<std::string_view> Views(Spec.TrainingInputs.begin(),
                                        Spec.TrainingInputs.end());
    Pass1Result P1 = runPass1(Spec.Source, Views, O);
    if (!P1.ok())
      return fail(P1.Error);
    // Fresh training traffic feeds the cross-tenant store.
    Shards.merge(A.ProgramKey, P1.Profile);
    Profile.merge(P1.Profile);
    HaveProfile = true;
  }
  if (Spec.WarmStart) {
    std::shared_ptr<const ProfileDB> Agg = Shards.aggregated(A.ProgramKey);
    if (Agg && profileNonEmpty(*Agg)) {
      Profile.merge(*Agg);
      A.WarmStarted = true;
      C.WarmStarts.fetch_add(1, std::memory_order_relaxed);
      HaveProfile = true;
    }
  }
  if (!HaveProfile)
    return A.setBuilt(compileBaseline(Spec.Source, O));
  CompileResult Result = compileWithProfile(Spec.Source, Profile, O);
  A.setBuilt(std::move(Result), std::move(Profile));
}

//===----------------------------------------------------------------------===//
// Request handlers
//===----------------------------------------------------------------------===//

void BroptService::handleCompile(const ServiceRequest &Request,
                                 ServiceResponse &R) {
  bool Hit = false;
  std::shared_ptr<Artifact> A =
      Cache->lookup(artifactKeyFor(Request.Spec), Hit);
  std::lock_guard<std::mutex> Lock(A->BuildMutex);
  if (!A->built())
    buildArtifact(*A, Request.Spec);
  describeBuild(*A, Hit, R);
}

void BroptService::handleExecute(const ServiceRequest &Request,
                                 ServiceResponse &R) {
  // Only the four pinned mode bytes are valid; any other byte (0, 5,
  // 255, ...) is not a mode, even though it fits the enum's storage.
  auto Mode = static_cast<Interpreter::Mode>(Request.Mode);
  switch (Mode) {
  case Interpreter::Mode::Tree:
  case Interpreter::Mode::Fused:
  case Interpreter::Mode::Adaptive:
  case Interpreter::Mode::Native:
    break;
  default:
    R.Status = ResponseStatus::Error;
    R.Error = formatString("invalid execution mode %u", Request.Mode);
    return;
  }

  bool Hit = false;
  std::shared_ptr<Artifact> A =
      Cache->lookup(artifactKeyFor(Request.Spec), Hit);
  ExecRequest ER;
  ER.Input = Request.Input;
  ER.InstructionLimit = Request.InstructionLimit;
  // Per-request predictor: each run measures on its own fresh instance,
  // so one client's branch history never leaks into another's numbers.
  // An unknown name is diagnosed by the build below.
  std::unique_ptr<Predictor> Measured;
  if (!Request.Spec.Predictor.empty()) {
    Measured = makePredictor(Request.Spec.Predictor);
    ER.AttachedPredictor = Measured.get();
  }
  AdaptiveController *Ctl = nullptr;
  {
    std::lock_guard<std::mutex> Lock(A->BuildMutex);
    if (!A->built())
      buildArtifact(*A, Request.Spec);
    if (!describeBuild(*A, Hit, R))
      return;

    // The engine this run needs, built once and shared across clients.  A
    // controller is built from the daemon's RuntimeOptions, so its
    // NativeTier (`broptd --native-tier`) decides whether tier 2 can
    // promote.
    bool EngineHit = false;
    std::string Error;
    if (!A->engine(Mode, A->profile(), Opts.Runtime,
                   Opts.Runtime.Runner ? *Opts.Runtime.Runner
                                       : NativeRunner::shared(),
                   ER, EngineHit, Error)) {
      R.Status = ResponseStatus::Error;
      R.Error = "native backend unavailable: " + Error;
      return;
    }
    Ctl = ER.Adaptive;
    if (Ctl && !EngineHit) {
      // Cross-tenant warm start: seed the controller with what the
      // shards already learned about this program, so the first run
      // can begin in the optimized tier.
      std::shared_ptr<const ProfileDB> Agg = Shards.aggregated(A->ProgramKey);
      if (Agg && profileNonEmpty(*Agg)) {
        Ctl->importProfile(*Agg);
        C.WarmStarts.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  RunResult RR;
  const Module &M = *A->compiled().M;
  if (Ctl) {
    // One controller is not reentrant; adaptive runs of one artifact
    // serialize here (the other engines run lock-free on immutable
    // programs).  The daemon reads its counters here, under the run lock,
    // and nowhere else: shutdown only cancels.
    std::lock_guard<std::mutex> Lock(A->RunMutex);
    const uint64_t Cancelled = Ctl->stats().NativeCompilesCancelled;
    RR = executeModule(M, Mode, ER);
    C.TierTwoCancellations.fetch_add(
        Ctl->stats().NativeCompilesCancelled - Cancelled,
        std::memory_order_relaxed);
    exportLearnedProfile(*A, *Ctl);
  } else {
    RR = executeModule(M, Mode, ER);
  }
  R.Trapped = RR.Trapped;
  R.TrapReason = RR.TrapReason;
  R.ExitValue = RR.ExitValue;
  R.Output = RR.Output;
  R.TotalInsts = RR.Counts.TotalInsts;
  R.CondBranches = RR.Counts.CondBranches;
  if (Measured) {
    const PredictorStats &PS = Measured->getStats();
    R.PredictedBranches = PS.Branches;
    R.Mispredictions = PS.Mispredictions;
    std::lock_guard<std::mutex> Lock(ZooMutex);
    auto &Usage = ZooUsage[Measured->name()];
    Usage[0] += 1;
    Usage[1] += PS.Branches;
    Usage[2] += PS.Mispredictions;
  }
}

void BroptService::exportLearnedProfile(Artifact &A,
                                        AdaptiveController &Ctl) {
  if (!Ctl.tiered())
    return;
  std::string Sig = Ctl.deployedOrderingSignature();
  // exportProfile() is cumulative (the snapshot that built the deployed
  // version); merging it once per deployed signature keeps shard counts
  // honest — re-merging every run would double-count the same traffic.
  if (Sig.empty() || Sig == A.LastExportedSig)
    return;
  ProfileDB Learned;
  Ctl.exportProfile(Learned);
  Shards.merge(A.ProgramKey, Learned);
  A.LastExportedSig = std::move(Sig);
  C.LearnedExports.fetch_add(1, std::memory_order_relaxed);
}

void BroptService::handleEvaluate(const ServiceRequest &Request,
                                  ServiceResponse &R) {
  const Workload *W = findWorkload(Request.WorkloadName);
  if (!W) {
    R.Status = ResponseStatus::Error;
    R.Error = "unknown workload: " + Request.WorkloadName;
    return;
  }
  WorkloadRecord Rec =
      Eval->evaluateWorkload(*W, compileOptionsFor(Request.Spec));
  if (!Rec.Eval.ok()) {
    R.Status = ResponseStatus::Error;
    R.Error = Rec.Eval.Error;
    return;
  }
  R.OutputsMatch = Rec.Eval.OutputsMatch;
  R.SequencesReordered = Rec.Eval.Stats.Reordered;
  R.BranchDeltaPercent = WorkloadEvaluation::deltaPercent(
      Rec.Eval.Baseline.Counts.CondBranches,
      Rec.Eval.Reordered.Counts.CondBranches);
  R.TotalInsts = Rec.Eval.Reordered.Counts.TotalInsts;
  R.CondBranches = Rec.Eval.Reordered.Counts.CondBranches;
  R.CodeSize = Rec.Eval.Reordered.CodeSize;
}

void BroptService::handleProfileExport(const ServiceRequest &Request,
                                       ServiceResponse &R) {
  if (Request.ProgramKey.empty()) {
    R.Status = ResponseStatus::Error;
    R.Error = "program key required";
    return;
  }
  std::shared_ptr<const ProfileDB> Agg =
      Shards.aggregated(Request.ProgramKey);
  R.ProfileData = Agg->serializeBinary();
  R.ProgramKey = Request.ProgramKey;
}

void BroptService::handleProfileMerge(const ServiceRequest &Request,
                                      ServiceResponse &R) {
  if (Request.ProgramKey.empty()) {
    R.Status = ResponseStatus::Error;
    R.Error = "program key required";
    return;
  }
  ProfileDB DB;
  std::string Err;
  if (!DB.deserialize(Request.ProfileData, &Err)) {
    R.Status = ResponseStatus::Error;
    R.Error = "bad profile data: " + Err;
    return;
  }
  ProfileMergeStats S = Shards.merge(Request.ProgramKey, DB);
  R.ProgramKey = Request.ProgramKey;
  R.MergeAdded = S.Added;
  R.MergeMerged = S.Merged;
  R.MergeSkipped = S.Skipped;
}
