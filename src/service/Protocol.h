//===- service/Protocol.h - broptd wire protocol ----------------*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The length-prefixed request/response protocol `broptd` serves over its
/// Unix-domain socket (docs/SERVICE.md).  One message per frame:
///
///   [u32 little-endian payload length][payload]
///
/// where the payload is a one-byte message kind followed by kind-specific
/// fields encoded with LEB128 varints and length-prefixed strings (the
/// same primitives ProfileDB's binary format uses).  Framing errors are
/// survivable by design: a decoder failure on one frame produces an Error
/// response (or drops the one connection) without touching server state,
/// and an oversize length prefix is rejected before any allocation.
///
/// Requests carry a client-chosen sequence number that the matching
/// response echoes, so clients may pipeline several requests on one
/// connection and match responses as they drain back.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_SERVICE_PROTOCOL_H
#define BROPT_SERVICE_PROTOCOL_H

#include <cstdint>
#include <string>
#include <vector>

namespace bropt {

/// What a request asks the daemon to do.
enum class RequestKind : uint8_t {
  Compile = 0,       ///< compile a CompileSpec, cache the artifact
  Execute = 1,       ///< compile (or hit the cache) and run on an input
  Evaluate = 2,      ///< run a named standard workload through the
                     ///< Evaluator (baseline vs reordered deltas)
  ProfileExport = 3, ///< aggregated cross-shard profile for a program key
  ProfileMerge = 4,  ///< merge a client profile into the shards
  Stats = 5,         ///< service counters snapshot
  Shutdown = 6,      ///< begin graceful shutdown
};

const char *requestKindName(RequestKind Kind);

/// Everything a server-side compile depends on.  The program key — and
/// with it the artifact-cache identity — is a hash of these fields, so
/// two clients sending the same spec share one compiled artifact.
struct CompileSpec {
  std::string Source;
  /// Training inputs for a fresh pass-1 profile run (may be empty).
  std::vector<std::string> TrainingInputs;
  /// Serialized ProfileDB (text or binary) to feed pass 2 directly.
  std::string ProfileData;
  uint8_t HeuristicSet = 0; ///< 0..3 = Sets I..IV
  bool CommonSuccessor = false;
  bool MethodSelection = false;
  /// Merge the daemon's aggregated cross-tenant profile for this program
  /// into the pass-2 profile: traffic other clients already served
  /// warm-starts this compile (docs/SERVICE.md).
  bool WarmStart = false;
  /// Zoo name of the predictor the compile targets and execute requests
  /// measure under (predict/Zoo.h, docs/PREDICT.md).  Empty: prediction
  /// stays unmodeled.  Part of the program key — aware and unaware builds
  /// of one source are different programs to the profile shards.
  std::string Predictor;
};

/// One request frame.
struct ServiceRequest {
  RequestKind Kind = RequestKind::Stats;
  /// Echoed verbatim in the response for pipelining clients.
  uint64_t Seq = 0;
  CompileSpec Spec;        ///< Compile and Execute
  std::string Input;       ///< Execute: program stdin
  /// Execute: Interpreter::Mode numeric value — 1 tree, 2 fused,
  /// 3 adaptive, 4 native; the daemon answers any other byte with Error.
  uint8_t Mode = 2;
  uint64_t InstructionLimit = 2'000'000'000; ///< Execute fuel
  std::string WorkloadName; ///< Evaluate: standard workload name
  std::string ProgramKey;  ///< ProfileExport/ProfileMerge target
  std::string ProfileData; ///< ProfileMerge payload (serialized ProfileDB)
};

/// How the daemon disposed of a request.
enum class ResponseStatus : uint8_t {
  Ok = 0,
  Error = 1,        ///< request-level failure (compile error, bad key...)
  Rejected = 2,     ///< backpressure: admission queue past the high-water
                    ///< mark; retry after RetryAfterMillis
  ShuttingDown = 3, ///< daemon is draining; no new work is admitted
};

const char *responseStatusName(ResponseStatus Status);

/// Aggregate daemon counters, served by RequestKind::Stats.  Serialized
/// as a count-prefixed u64 array in field order, so old clients can read
/// new servers (extra fields ignored) and vice versa (missing fields stay
/// zero).  Every field is monotonic over the daemon's lifetime except the
/// Depth/Active gauges.
struct ServiceStats {
  uint64_t RequestsAccepted = 0;   ///< admitted onto the worker pool
  uint64_t RequestsCompleted = 0;  ///< responses written (Ok or Error)
  uint64_t RequestsRejected = 0;   ///< backpressure rejections
  uint64_t ProtocolErrors = 0;     ///< malformed/oversize frames survived
  uint64_t DroppedConnections = 0; ///< peers gone before their response
  uint64_t QueueDepth = 0;         ///< gauge: admitted, not yet completed
  uint64_t QueueHighWaterSeen = 0; ///< max QueueDepth observed
  uint64_t QueueWaitMicrosTotal = 0; ///< admission -> execution start
  uint64_t QueueWaitMicrosMax = 0;
  uint64_t CompileHits = 0;   ///< artifact cache hits
  uint64_t CompileMisses = 0; ///< artifact cache misses (fresh compiles)
  uint64_t ArtifactEvictions = 0; ///< LRU evictions from the artifact cache
  uint64_t ProfileMerges = 0;     ///< shard merges (client + learned)
  uint64_t ProfileMergeConflicts = 0; ///< records skipped by the conflict
                                      ///< checker across all shard merges
  uint64_t ProfileAggregations = 0;   ///< cross-shard aggregation passes
  uint64_t ProfileRecords = 0;    ///< gauge: records currently sharded
  uint64_t WarmStarts = 0;        ///< compiles seeded from the shards
  uint64_t LearnedExports = 0;    ///< adaptive profiles exported to shards
  uint64_t ActiveConnections = 0; ///< gauge
  /// Tier-2 native compiles cancelled, by the shutdown drain or by
  /// RuntimeOptions::NativeCompileTimeout, counted as their runs end.
  uint64_t TierTwoCancellations = 0;

  /// Cumulative per-predictor measurement traffic across execute requests
  /// (one zoo entry per scheme that served at least one run).  Every run
  /// gets its own fresh instance — these aggregates are the only state
  /// that survives a request.
  struct PredictorUsage {
    std::string Name;
    uint64_t Runs = 0;
    uint64_t Branches = 0;
    uint64_t Mispredictions = 0;
  };
  std::vector<PredictorUsage> Zoo;
};

/// One response frame.
struct ServiceResponse {
  ResponseStatus Status = ResponseStatus::Ok;
  uint64_t Seq = 0;          ///< copied from the request
  std::string Error;         ///< non-empty when Status == Error
  uint32_t RetryAfterMillis = 0; ///< hint when Status == Rejected

  // Compile and Execute:
  std::string ProgramKey;  ///< stable artifact identity for this spec
  bool CompileCacheHit = false;
  bool WarmStarted = false; ///< the compile consumed sharded profile data
  uint32_t SequencesReordered = 0;
  uint64_t CodeSize = 0;

  // Execute:
  bool Trapped = false;
  std::string TrapReason;
  int64_t ExitValue = 0;
  std::string Output;
  uint64_t TotalInsts = 0;
  uint64_t CondBranches = 0;
  /// Filled when the spec names a predictor and an interpreter engine ran:
  /// what this run's fresh instance measured.
  uint64_t PredictedBranches = 0;
  uint64_t Mispredictions = 0;

  // Evaluate:
  double BranchDeltaPercent = 0.0; ///< reordered vs baseline branches
  bool OutputsMatch = false;

  // All kinds:
  uint64_t QueueMicros = 0; ///< time spent waiting for a worker

  // ProfileExport / ProfileMerge:
  std::string ProfileData; ///< export: serialized aggregate (binary)
  uint64_t MergeAdded = 0, MergeMerged = 0, MergeSkipped = 0;

  // Stats:
  ServiceStats Stats;

  bool ok() const { return Status == ResponseStatus::Ok; }
};

/// Frames larger than this are rejected before allocation; generous
/// enough for any workload source + profile, small enough that a garbage
/// length prefix cannot balloon the server.
constexpr uint32_t MaxServiceFrameBytes = 64u << 20;

/// Serializes \p Request / \p Response into a payload (no length prefix).
std::string encodeRequest(const ServiceRequest &Request);
std::string encodeResponse(const ServiceResponse &Response);

/// Parses a payload.  \returns false on malformed input with the reason
/// in \p Error; the out-param is left in an unspecified state.
bool decodeRequest(const std::string &Payload, ServiceRequest &Request,
                   std::string *Error = nullptr);
bool decodeResponse(const std::string &Payload, ServiceResponse &Response,
                    std::string *Error = nullptr);

/// Blocking frame I/O over a connected stream socket.  writeFrame sends
/// the u32 length prefix plus \p Payload (suppressing SIGPIPE);
/// readFrame reads exactly one frame, enforcing \p MaxBytes *before*
/// allocating.  \returns false on EOF, error, or an oversize frame, with
/// a reason in \p Error ("eof" for a clean close before any byte).
bool writeFrame(int Fd, const std::string &Payload,
                std::string *Error = nullptr);
bool readFrame(int Fd, std::string &Payload,
               uint32_t MaxBytes = MaxServiceFrameBytes,
               std::string *Error = nullptr);

/// Stable FNV-1a content hash used for program keys ("sha-like" hex).
std::string serviceContentHash(const std::string &Data);

/// The program key of \p Spec: a hash of the source and every
/// compilation-affecting knob *except* profile inputs — profiles refine
/// the ordering of one program, they do not change which program it is.
/// Cross-tenant profile aggregation shards by this key.
std::string programKeyFor(const CompileSpec &Spec);

/// The artifact key of \p Spec: the program key extended with the profile
/// inputs (training data, explicit profile, warm-start), i.e. module hash
/// + ordering signature.  Two specs with equal artifact keys compile to
/// identical modules, so the artifact cache may share one.
std::string artifactKeyFor(const CompileSpec &Spec);

} // namespace bropt

#endif // BROPT_SERVICE_PROTOCOL_H
