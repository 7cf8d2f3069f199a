//===- perfbench/src/DaemonMix.cpp - The daemon-mix workload --------------===//
//
// An in-process broptd on a real Unix socket, fed by this one thread over
// pipelined connections it polls.  Each round of the run has four timed
// phases:
//
//  * compile: each program's never-seen variant compiled cold, one request
//    in flight (compile_s);
//  * run: each program's test input executed on its cached artifact, one in
//    flight (run_s and the paper's counts);
//  * open loop: the request mix offered at a fixed rate, each request timed
//    from when it was due (latency_p50_ms, compile_p50_ms);
//  * closed loop: the same mix with a fixed number in flight (capacity_rps).
//
// Most requests are fused executes on short inputs against cached artifacts;
// the rest are adaptive executes, cold compiles, profile merges and profile
// exports.  Framing, admission, the artifact cache and many short runs
// dominate, so service and runtime changes show here and not in pgo-interp.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "exec/ExecBackend.h"
#include "predict/Zoo.h"
#include "runtime/AdaptiveController.h"
#include "service/Client.h"
#include "sim/Fuse.h"

#include <array>
#include <cmath>
#include <cerrno>
#include <optional>
#include <poll.h>
#include <stdexcept>
#include <unordered_map>

using namespace bropt;

namespace perfbench {

namespace {

/// Fixed worker and connection counts: the generator thread plus the
/// workers fit a 4-core host, whatever nproc says.
constexpr unsigned Workers = 2;
constexpr unsigned Connections = 2;
/// The offered rate sits near half the closed-loop capacity measured at
/// InFlight on a 4-core host (README.md), where p50 still repeats.
constexpr double OpenLoopRate = 2500;
constexpr unsigned InFlight = 8;
/// Executes and the warm artifacts' training inputs are a tenth of the
/// stock size (~4 KB); run-phase test inputs are stock size.  Cold compiles
/// train on half the stock size: on ~4 KB, how many sequences a variant's
/// training exercises (and so how much pass 2 does) swung with the seed.
constexpr double ShortScale = 0.1;
constexpr double ColdTrainScale = 0.5;
constexpr unsigned InputsPerProgram = 8;
/// One round: cold compiles and test-input executes of every program, then
/// an open-loop slice and a closed-loop slice (~1.1 s on a 4-core host).
/// Between two executes of a warm artifact fewer cold variants arrive than
/// the daemon's default artifact cache holds besides the 17 warm ones, so
/// warm executes always hit.
constexpr unsigned CompileRepsPerRound = 2;
constexpr unsigned RunRepsPerRound = 3;
constexpr double OpenSliceSeconds = 0.5;
constexpr double ClosedSliceSeconds = 0.4;
/// Rounds a run makes even when --seconds has passed (per kind in a traced
/// run, which alternates untraced and traced rounds).
constexpr unsigned MinRounds = 4;

enum class Kind : uint8_t { Fused, Adaptive, Compile, Merge, Export, Run };
constexpr size_t NumKinds = 6;
const char *const KindNames[NumKinds] = {"fused",  "adaptive", "compile",
                                         "merge",  "export",   "run"};

/// The request mix, fixed per block of 50 so every seed offers the same
/// proportions: 42 fused executes, 5 adaptive executes, one cold compile,
/// one profile merge, one profile export.  README.md gives the source of
/// each share.
Kind kindOf(uint64_t Op) {
  switch (Op % 50) {
  case 17:
    return Kind::Compile;
  case 33:
    return Kind::Merge;
  case 49:
    return Kind::Export;
  default:
    return Op % 10 == 5 ? Kind::Adaptive : Kind::Fused;
  }
}

std::string requestId(Kind K, uint64_t Seq) {
  return KindNames[static_cast<size_t>(K)] + std::string(" ") +
         std::to_string(Seq);
}

/// A program variant the daemon has never seen: a comment changes the
/// source, hence the program key, so its compile misses the artifact cache
/// and runs both passes.
std::string variantSource(const std::string &Source, uint64_t Seed,
                          uint64_t Variant) {
  return Source + "\n// perfbench variant " + std::to_string(Seed) + "." +
         std::to_string(Variant) + "\n";
}

RunResult observables(const ServiceResponse &Response) {
  RunResult Run;
  Run.Trapped = Response.Trapped;
  Run.ExitValue = Response.ExitValue;
  Run.Output = Response.Output;
  return Run;
}

struct DaemonSetup {
  /// Train: cold compiles' training input; Test: the run-phase input.
  std::vector<Program> Programs;
  std::vector<std::string> WarmTrain; ///< the warm artifacts' training input
  std::vector<CompileSpec> Specs;     ///< the warm artifacts
  std::vector<std::vector<std::string>> Inputs; ///< short execute inputs
  std::vector<std::vector<RunResult>> InputRefs;
  std::vector<RunResult> TestRefs;
  std::vector<uint64_t> CodeSizes;
  /// Prebuilt frames: [program * InputsPerProgram + input] for executes,
  /// [program] for the rest.
  std::vector<ServiceRequest> FusedReqs, AdaptiveReqs, RunReqs, MergeReqs,
      ExportReqs;
  std::unique_ptr<InProcessService> Daemon;
  std::vector<std::unique_ptr<ServiceClient>> Clients;
};

ServiceRequest executeRequest(const CompileSpec &Spec, const std::string &In,
                              Interpreter::Mode Mode) {
  ServiceRequest Q;
  Q.Kind = RequestKind::Execute;
  Q.Spec = Spec;
  Q.Input = In;
  Q.Mode = static_cast<uint8_t>(Mode);
  return Q;
}

DaemonSetup makeDaemonSetup(const Options &O, Tracer &T) {
  static unsigned SetupCount = 0;
  DaemonSetup S;
  {
    Scope Sp(T, "workloads.inputs", "all");
    S.Programs = makePrograms(O.Seed, ColdTrainScale, 1);
    SeedStream Seeds(O.Seed ^ 0xd1ce5eedULL);
    for (size_t Index = 0; Index < S.Programs.size(); ++Index) {
      S.WarmTrain.push_back(
          programInput(Index, Seeds.nextSeed(), ShortScale, true));
      S.Inputs.emplace_back();
      for (unsigned K = 0; K < InputsPerProgram; ++K)
        S.Inputs.back().push_back(
            programInput(Index, Seeds.nextSeed(), ShortScale));
    }
  }
  {
    Scope Sp(T, "sim.reference", "all");
    std::vector<std::vector<std::string_view>> All;
    for (size_t Index = 0; Index < S.Programs.size(); ++Index) {
      All.push_back({S.Programs[Index].Test});
      All.back().insert(All.back().end(), S.Inputs[Index].begin(),
                        S.Inputs[Index].end());
    }
    for (std::vector<RunResult> &Refs : referenceRuns(S.Programs, All)) {
      S.TestRefs.push_back(std::move(Refs.front()));
      S.InputRefs.emplace_back(std::make_move_iterator(Refs.begin() + 1),
                               std::make_move_iterator(Refs.end()));
    }
  }

  Scope Sp(T, "service.warmup", "all");
  ServiceOptions SO;
  SO.SocketPath = O.ScratchDir + "/broptd-" + std::to_string(SetupCount++) +
                  ".sock";
  SO.Threads = Workers;
  S.Daemon = std::make_unique<InProcessService>(SO);
  if (!S.Daemon->ok())
    throw std::runtime_error("perfbench: broptd did not start: " +
                             S.Daemon->error());
  for (unsigned C = 0; C < Connections; ++C) {
    std::string Error;
    S.Clients.push_back(S.Daemon->connect(&Error));
    if (!S.Clients.back())
      throw std::runtime_error("perfbench: cannot connect: " + Error);
  }

  // Warm compiles, then enough executes per program that the fused
  // engines are prepared and the adaptive controllers have tiered up.
  ServiceClient &Client = *S.Clients[0];
  auto Must = [&](const ServiceRequest &Q, ServiceResponse &A,
                  const std::string &What) {
    std::string Error;
    if (!Client.roundTrip(Q, A, &Error) || !A.ok())
      throw std::runtime_error("perfbench: warm-up " + What + " failed: " +
                               Error + A.Error);
  };
  for (size_t Index = 0; Index < S.Programs.size(); ++Index) {
    const Program &P = S.Programs[Index];
    CompileSpec Spec;
    Spec.Source = P.Source;
    Spec.TrainingInputs = {S.WarmTrain[Index]};
    Spec.HeuristicSet = 3; // Set IV
    Spec.Predictor = "paper";
    ServiceRequest Compile;
    Compile.Kind = RequestKind::Compile;
    Compile.Spec = Spec;
    ServiceResponse A;
    Must(Compile, A, P.Name + " compile");
    S.CodeSizes.push_back(A.CodeSize);
    for (unsigned K = 0; K < InputsPerProgram; ++K) {
      S.FusedReqs.push_back(executeRequest(Spec, S.Inputs[Index][K],
                                           Interpreter::Mode::Fused));
      S.AdaptiveReqs.push_back(executeRequest(Spec, S.Inputs[Index][K],
                                              Interpreter::Mode::Adaptive));
      for (const ServiceRequest *Q : {&S.FusedReqs.back(),
                                      &S.AdaptiveReqs.back()}) {
        Must(*Q, A, P.Name + " execute");
        if (!sameObservables(observables(A), S.InputRefs[Index][K]))
          throw std::runtime_error("perfbench: warm-up execute of " +
                                   P.Name + " differs from the reference");
      }
    }
    S.RunReqs.push_back(
        executeRequest(Spec, P.Test, Interpreter::Mode::Fused));
    Pass1Result Pass1 =
        runPass1(P.Source, std::vector<std::string_view>{S.WarmTrain[Index]},
                 paperOptions());
    ServiceRequest Merge;
    Merge.Kind = RequestKind::ProfileMerge;
    Merge.ProgramKey = A.ProgramKey;
    Merge.ProfileData = Pass1.Profile.serializeBinary();
    S.MergeReqs.push_back(std::move(Merge));
    ServiceRequest Export;
    Export.Kind = RequestKind::ProfileExport;
    Export.ProgramKey = A.ProgramKey;
    S.ExportReqs.push_back(std::move(Export));
    S.Specs.push_back(std::move(Spec));
  }
  return S;
}

/// One answered request.
struct Sample {
  Kind K = Kind::Fused;
  size_t Program = 0, Input = 0;
  uint64_t Seq = 0;
  uint64_t Variant = 0; ///< compiles: which never-seen variant
  bool Ok = false;
  double FromDue = 0, FromSend = 0; ///< seconds
  double QueueSeconds = 0;          ///< server-reported wait for a worker
  /// What an execute counted: instructions, branches, mispredictions.
  std::array<uint64_t, 3> Counts = {};
};

/// The generator's side of the sockets: builds each request of the mix,
/// pipelines it, and matches and checks responses by sequence number.
class Traffic {
public:
  Traffic(DaemonSetup &S, Report &R, Tracer &T, uint64_t Seed)
      : S(S), R(R), T(T), Picks(Seed ^ 0x9e3779b9ULL), Seed(Seed) {}

  /// Sends the next request of the mix, or one of kind \p Forced for
  /// program \p Program, on connection \p C.
  bool send(size_t C, Clock::time_point Due,
            std::optional<Kind> Forced = std::nullopt, size_t Program = 0);
  /// Reads one response from connection \p C into \p Out.
  bool receive(size_t C, Sample &Out);
  size_t pending() const { return Waiting.size(); }
  /// Counts every request still unanswered as failed.
  void abandon(const std::string &Why);

private:
  struct Pending {
    Kind K;
    size_t Program, Input;
    uint64_t Variant;
    Clock::time_point Due, Sent;
  };
  DaemonSetup &S;
  Report &R;
  Tracer &T;
  SeedStream Picks;
  uint64_t Seed;
  uint64_t NextOp = 0, NextSeq = 1, Variants = 0;
  size_t NextProgram[NumKinds] = {};
  std::unordered_map<uint64_t, Pending> Waiting;
};

bool Traffic::send(size_t C, Clock::time_point Due, std::optional<Kind> Forced,
                   size_t Program) {
  Kind K = Forced ? *Forced : kindOf(NextOp++);
  size_t N = S.Programs.size();
  if (!Forced)
    Program = NextProgram[static_cast<size_t>(K)]++ % N;
  size_t Input = Picks.next() % InputsPerProgram;
  uint64_t Seq = NextSeq++, VariantId = 0;
  ServiceRequest Variant;
  ServiceRequest *Q = nullptr;
  switch (K) {
  case Kind::Fused:
    Q = &S.FusedReqs[Program * InputsPerProgram + Input];
    break;
  case Kind::Adaptive:
    Q = &S.AdaptiveReqs[Program * InputsPerProgram + Input];
    break;
  case Kind::Run:
    Q = &S.RunReqs[Program];
    break;
  case Kind::Merge:
    Q = &S.MergeReqs[Program];
    break;
  case Kind::Export:
    Q = &S.ExportReqs[Program];
    break;
  case Kind::Compile:
    // A variant the daemon has never seen: a new program key, so a cold
    // artifact-cache miss and a full two-pass build.
    VariantId = Variants++;
    Variant.Kind = RequestKind::Compile;
    Variant.Spec = S.Specs[Program];
    Variant.Spec.Source = variantSource(Variant.Spec.Source, Seed, VariantId);
    Variant.Spec.TrainingInputs = {S.Programs[Program].Train};
    Q = &Variant;
    break;
  }
  Q->Seq = Seq;
  Clock::time_point Sent = Clock::now();
  std::string Error;
  if (!S.Clients[C]->send(*Q, &Error)) {
    R.op(false);
    R.fail("send failed: " + Error);
    return false;
  }
  Waiting.emplace(Seq, Pending{K, Program, Input, VariantId, Due, Sent});
  return true;
}

bool Traffic::receive(size_t C, Sample &Out) {
  std::string Error;
  ServiceResponse A;
  if (!S.Clients[C]->receive(A, &Error)) {
    abandon("receive failed: " + Error);
    return false;
  }
  Clock::time_point Done = Clock::now();
  auto It = Waiting.find(A.Seq);
  if (It == Waiting.end()) {
    R.fail("response with unknown sequence number");
    return false;
  }
  const Pending P = It->second;
  Waiting.erase(It);
  Out.K = P.K;
  Out.Program = P.Program;
  Out.Input = P.Input;
  Out.Variant = P.Variant;
  Out.Seq = A.Seq;
  Out.FromDue = secondsBetween(P.Due, Done);
  Out.FromSend = secondsBetween(P.Sent, Done);
  Out.QueueSeconds = static_cast<double>(A.QueueMicros) / 1e6;
  Out.Counts = {A.TotalInsts, A.CondBranches, A.Mispredictions};
  const std::string &Name = S.Programs[P.Program].Name;
  bool Ok = A.ok();
  switch (P.K) {
  case Kind::Fused:
  case Kind::Adaptive:
  case Kind::Run: {
    const RunResult &Ref = P.K == Kind::Run
                               ? S.TestRefs[P.Program]
                               : S.InputRefs[P.Program][P.Input];
    if (Ok && !A.CompileCacheHit)
      R.fail(Name + ": warm execute missed the artifact cache");
    Ok = Ok && A.CompileCacheHit && sameObservables(observables(A), Ref);
    break;
  }
  case Kind::Compile:
    if (Ok && A.CompileCacheHit)
      R.fail(Name + ": cold compile hit the artifact cache");
    Ok = Ok && !A.CompileCacheHit;
    break;
  case Kind::Merge:
    break;
  case Kind::Export:
    Ok = Ok && !A.ProfileData.empty();
    break;
  }
  Out.Ok = Ok;
  R.op(Ok);
  if (T.enabled())
    T.add("service.request", requestId(P.K, A.Seq), P.Sent, Done);
  return true;
}

void Traffic::abandon(const std::string &Why) {
  for (size_t Index = 0; Index < Waiting.size(); ++Index)
    R.op(false);
  if (!Waiting.empty())
    R.fail(Why);
  Waiting.clear();
}

/// Waits for readable connections until \p Until; receives one response
/// from each.  \returns false when a connection broke.
bool pollOnce(Traffic &Tr, DaemonSetup &S, Clock::time_point Until,
              std::vector<Sample> &Out,
              std::vector<size_t> *ReadyConns = nullptr) {
  pollfd Fds[Connections];
  for (unsigned C = 0; C < Connections; ++C)
    Fds[C] = pollfd{S.Clients[C]->fd(), POLLIN, 0};
  double Wait = std::max(0.0, secondsBetween(Clock::now(), Until));
  timespec Ts{static_cast<time_t>(Wait),
              static_cast<long>((Wait - static_cast<time_t>(Wait)) * 1e9)};
  if (ppoll(Fds, Connections, &Ts, nullptr) < 0)
    return errno == EINTR;
  for (unsigned C = 0; C < Connections; ++C) {
    if (Fds[C].revents & (POLLERR | POLLHUP | POLLNVAL)) {
      Tr.abandon("connection closed by the daemon");
      return false;
    }
    if (Fds[C].revents & POLLIN) {
      Sample Smp;
      if (!Tr.receive(C, Smp))
        return false;
      Out.push_back(std::move(Smp));
      if (ReadyConns)
        ReadyConns->push_back(C);
    }
  }
  return true;
}

/// What the rounds of one kind, traced or not, measured.
struct Rounds {
  std::vector<std::vector<double>> Compile, Run; ///< per program, seconds
  std::vector<Sample> RunSamples, Open;           ///< pooled over rounds
  /// Per round: the open-loop slice's p50 over all requests and over cold
  /// compiles (ms), and the closed-loop slice's OK responses per second.
  std::vector<double> SliceP50, SliceCompileP50, SliceCapacity;
};

/// \p Reps requests of kind \p K for each program in turn, one in flight.
void serialPhase(Traffic &Tr, Kind K, unsigned Reps,
                 std::vector<std::vector<double>> &PerProgram,
                 std::vector<Sample> *Keep) {
  for (unsigned Rep = 0; Rep < Reps; ++Rep)
    for (size_t Program = 0; Program < PerProgram.size(); ++Program) {
      Sample Smp;
      if (!Tr.send(0, Clock::now(), K, Program) || !Tr.receive(0, Smp))
        return;
      PerProgram[Program].push_back(Smp.FromSend);
      if (Keep)
        Keep->push_back(std::move(Smp));
    }
}

void openLoop(Traffic &Tr, DaemonSetup &S, double Seconds,
              std::vector<Sample> &Out) {
  size_t Total = std::max<size_t>(1, std::llround(OpenLoopRate * Seconds));
  Clock::time_point T0 = Clock::now() + std::chrono::milliseconds(2);
  auto Due = [&](size_t Index) {
    return T0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(Index / OpenLoopRate));
  };
  Clock::time_point GiveUp = Due(Total) + std::chrono::seconds(30);
  size_t Sent = 0;
  while (Sent < Total || Tr.pending()) {
    while (Sent < Total && Due(Sent) <= Clock::now()) {
      Tr.send(Sent % Connections, Due(Sent));
      ++Sent;
    }
    if (Clock::now() > GiveUp) {
      Tr.abandon("open loop: responses still missing 30 s after the last "
                 "request was due");
      return;
    }
    Clock::time_point Until =
        Sent < Total ? Due(Sent) : Clock::now() + std::chrono::milliseconds(200);
    if (!pollOnce(Tr, S, Until, Out))
      return;
  }
}

void closedLoop(Traffic &Tr, DaemonSetup &S, double Seconds,
                std::vector<Sample> &Out, double &Elapsed) {
  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Seconds));
  for (unsigned K = 0; K < InFlight; ++K)
    Tr.send(K % Connections, Clock::now());
  Clock::time_point LastDone = Start;
  while (Tr.pending()) {
    if (Clock::now() > Deadline + std::chrono::seconds(30)) {
      Tr.abandon("closed loop: responses still missing 30 s after the end");
      break;
    }
    std::vector<size_t> Ready;
    if (!pollOnce(Tr, S, Clock::now() + std::chrono::milliseconds(200), Out,
                  &Ready))
      break;
    if (!Ready.empty())
      LastDone = Clock::now();
    for (size_t C : Ready)
      if (LastDone < Deadline)
        Tr.send(C, Clock::now());
  }
  Elapsed = secondsBetween(Start, LastDone);
}

std::vector<double> fromDue(const std::vector<Sample> &Samples,
                            std::optional<Kind> Only = std::nullopt) {
  std::vector<double> Out;
  for (const Sample &S : Samples)
    if (!Only || S.K == *Only)
      Out.push_back(S.FromDue);
  return Out;
}

/// One round: compile and run repetitions, an open-loop slice, then a
/// closed-loop slice.  Rounds repeat through the whole run, so every
/// phase samples early and late moments of it alike.
void runRound(Traffic &Tr, DaemonSetup &S, Tracer &T, Rounds &R) {
  size_t N = S.Programs.size();
  if (R.Compile.empty()) {
    R.Compile.assign(N, {});
    R.Run.assign(N, {});
  }
  {
    Scope Sp(T, "daemon.compile", "round");
    serialPhase(Tr, Kind::Compile, CompileRepsPerRound, R.Compile, nullptr);
  }
  {
    Scope Sp(T, "daemon.run", "round");
    serialPhase(Tr, Kind::Run, RunRepsPerRound, R.Run, &R.RunSamples);
  }
  std::vector<Sample> Open, Closed;
  double ClosedSeconds = 0;
  {
    Scope Sp(T, "daemon.open_loop", "round");
    openLoop(Tr, S, OpenSliceSeconds, Open);
  }
  {
    Scope Sp(T, "daemon.closed_loop", "round");
    closedLoop(Tr, S, ClosedSliceSeconds, Closed, ClosedSeconds);
  }
  R.SliceP50.push_back(median(fromDue(Open)) * 1e3);
  std::vector<double> Compiles = fromDue(Open, Kind::Compile);
  if (!Compiles.empty())
    R.SliceCompileP50.push_back(median(Compiles) * 1e3);
  size_t ClosedOk = 0;
  for (const Sample &Smp : Closed)
    ClosedOk += Smp.Ok;
  R.SliceCapacity.push_back(
      ClosedSeconds > 0 ? static_cast<double>(ClosedOk) / ClosedSeconds : 0.0);
  R.Open.insert(R.Open.end(), std::make_move_iterator(Open.begin()),
                std::make_move_iterator(Open.end()));
}

/// The end-to-end timings of \p R.  Batch phases report the sum over
/// programs of each program's fastest request; the loops report their
/// least disturbed slice: the lowest slice p50 and the highest slice
/// capacity.  Host slowdowns on a shared machine only ever add time.
std::map<std::string, double> endToEnd(const Rounds &R) {
  std::map<std::string, double> E2E;
  double Compile = 0, Run = 0;
  for (size_t Index = 0; Index < R.Compile.size(); ++Index) {
    Compile += minOf(R.Compile[Index]);
    Run += minOf(R.Run[Index]);
  }
  E2E["compile_s"] = Compile;
  E2E["run_s"] = Run;
  E2E["latency_p50_ms"] = minOf(R.SliceP50);
  E2E["compile_p50_ms"] = minOf(R.SliceCompileP50);
  E2E["capacity_rps"] =
      R.SliceCapacity.empty()
          ? 0.0
          : *std::max_element(R.SliceCapacity.begin(), R.SliceCapacity.end());
  return E2E;
}

/// Replays each traced open-loop request in this process through the
/// calls the daemon makes for it (service/Service.cpp): pass 1 plus pass 2
/// for a cold compile, executeModule on the artifact's prepared program
/// for an execute, deserialize plus merge for a profile merge.  Each round
/// trip then splits into that call, the server-reported queue wait, and
/// the rest: framing, socket hops, admission and cache lookups.
/// Exports read the daemon's private shard aggregate and are not replayed.
void replay(const DaemonSetup &S, uint64_t Seed,
            const std::vector<Sample> &Open, Tracer &T, Report &R) {
  const CompileOptions CO = paperOptions();
  size_t N = S.Programs.size();
  auto build = [&](const std::string &Source, const std::string &Train,
                   ProfileDB &Profile) {
    Pass1Result Pass1 =
        runPass1(Source, std::vector<std::string_view>{Train}, CO);
    Profile.merge(Pass1.Profile);
    return compileWithProfile(Source, Profile, CO);
  };
  // The warm artifacts as the daemon built them, fused with their profile.
  std::vector<CompileResult> Builds(N);
  std::vector<ProfileDB> Profiles(N);
  std::vector<std::optional<DecodedModule>> Fused(N);
  std::vector<std::unique_ptr<AdaptiveController>> Controllers(N);
  for (size_t Index = 0; Index < N; ++Index) {
    const Program &P = S.Programs[Index];
    Builds[Index] = build(P.Source, S.WarmTrain[Index], Profiles[Index]);
    if (!Builds[Index].ok()) {
      R.fail(P.Name + ": replay build failed: " + Builds[Index].Error);
      return;
    }
    FuseOptions FO;
    FO.Profile = &Profiles[Index];
    Fused[Index].emplace(decodeFused(*Builds[Index].M, FO));
    Controllers[Index] =
        std::make_unique<AdaptiveController>(*Builds[Index].M);
    Controllers[Index]->importProfile(Profiles[Index]);
  }

  std::vector<double> CallMs[NumKinds], OverheadMs[NumKinds];
  for (const Sample &Smp : Open) {
    const Program &P = S.Programs[Smp.Program];
    const std::string Id = requestId(Smp.K, Smp.Seq);
    Clock::time_point T0 = Clock::now();
    switch (Smp.K) {
    case Kind::Merge: {
      Scope Sp(T, "profile.merge", Id);
      ProfileDB Into, Incoming;
      Incoming.deserialize(S.MergeReqs[Smp.Program].ProfileData);
      Into.merge(Incoming);
      break;
    }
    case Kind::Compile: {
      Scope Sp(T, "service.compile", Id);
      ProfileDB Profile;
      CompileResult C =
          build(variantSource(P.Source, Seed, Smp.Variant), P.Train, Profile);
      if (!C.ok())
        R.fail(P.Name + ": replayed variant compile failed: " + C.Error);
      break;
    }
    case Kind::Fused:
    case Kind::Adaptive: {
      std::unique_ptr<Predictor> Paper = makePredictor("paper");
      ExecRequest Req;
      Req.Input = S.Inputs[Smp.Program][Smp.Input];
      Req.AttachedPredictor = Paper.get();
      RunResult Run;
      if (Smp.K == Kind::Fused) {
        Req.Prepared = &*Fused[Smp.Program];
        Scope Sp(T, "sim.exec", Id);
        Run = executeModule(*Builds[Smp.Program].M,
                            Interpreter::Mode::Fused, Req);
      } else {
        Req.Adaptive = Controllers[Smp.Program].get();
        Scope Sp(T, "runtime.execute", Id);
        Run = executeModule(*Builds[Smp.Program].M,
                            Interpreter::Mode::Adaptive, Req);
      }
      bool Same = sameObservables(Run, S.InputRefs[Smp.Program][Smp.Input]);
      R.op(Same);
      if (!Same)
        R.fail(P.Name + ": in-process replay differs from the reference");
      if (Smp.K == Kind::Fused &&
          (Smp.Counts[0] != Run.Counts.TotalInsts ||
           Smp.Counts[2] != Paper->getStats().Mispredictions))
        R.fail(P.Name + ": daemon and in-process counts differ");
      break;
    }
    case Kind::Export:
    case Kind::Run:
      continue;
    }
    double Call = secondsSince(T0);
    size_t K = static_cast<size_t>(Smp.K);
    CallMs[K].push_back(Call * 1e3);
    OverheadMs[K].push_back((Smp.FromSend - Smp.QueueSeconds - Call) * 1e3);
  }

  JsonObject Calls, Overheads;
  for (Kind K : {Kind::Fused, Kind::Adaptive, Kind::Compile, Kind::Merge}) {
    size_t I = static_cast<size_t>(K);
    Calls.num(KindNames[I], median(CallMs[I]));
    Overheads.num(KindNames[I], median(OverheadMs[I]));
  }
  R.Details.raw("replayed_call_p50_ms", Calls.text())
      .raw("overhead_p50_ms", Overheads.text());
  RuntimeStats Runtime;
  for (const auto &Ctl : Controllers)
    Runtime += Ctl->stats();
  const size_t FusedK = static_cast<size_t>(Kind::Fused);
  R.PerLayer["service.execute_p50_ms"] = median(CallMs[FusedK]);
  R.PerLayer["service.overhead_p50_ms"] = median(OverheadMs[FusedK]);
  R.PerLayer["runtime.execute_p50_ms"] =
      median(CallMs[static_cast<size_t>(Kind::Adaptive)]);
  R.PerLayer["profile.merge_p50_ms"] =
      median(CallMs[static_cast<size_t>(Kind::Merge)]);
  R.PerLayer["runtime.tier_ups"] = static_cast<double>(Runtime.TierUps);
  R.PerLayer["runtime.swaps"] = static_cast<double>(Runtime.Swaps);
  R.PerLayer["runtime.recompile_s"] = Runtime.RecompileSeconds;
}

} // namespace

void runDaemonMix(const Options &O, Tracer &T, Report &R) {
  std::map<std::string, double> TracedE2E;
  DaemonSetup S = repeatedSetup(O, T, R, TracedE2E,
                                [&] { return makeDaemonSetup(O, T); });
  Traffic Tr(S, R, T, O.Seed);
  Rounds Plain, Traced;
  Clock::time_point Start = Clock::now();
  unsigned MinTotal = O.Trace ? 2 * MinRounds : MinRounds;
  for (unsigned Round = 0;
       Round < MinTotal || secondsSince(Start) < O.Seconds; ++Round) {
    bool Tracing = O.Trace && Round % 2 == 1;
    T.setEnabled(Tracing);
    runRound(Tr, S, T, Tracing ? Traced : Plain);
  }
  T.setEnabled(false);
  std::map<std::string, double> E2E = endToEnd(Plain);
  R.EndToEnd.insert(E2E.begin(), E2E.end());

  // The paper's counts from the run phases, which must repeat exactly.
  size_t N = S.Programs.size();
  std::vector<std::optional<std::array<uint64_t, 3>>> Counts(N);
  for (const Rounds *Half : {&Plain, &Traced})
    for (const Sample &Smp : Half->RunSamples) {
      if (!Counts[Smp.Program])
        Counts[Smp.Program] = Smp.Counts;
      else if (*Counts[Smp.Program] != Smp.Counts)
        R.fail(S.Programs[Smp.Program].Name +
               ": run-phase counts changed between repetitions");
    }
  uint64_t Totals[3] = {}, StaticInsts = 0;
  for (size_t Index = 0; Index < N; ++Index) {
    StaticInsts += S.CodeSizes[Index];
    if (Counts[Index])
      for (size_t K = 0; K < 3; ++K)
        Totals[K] += (*Counts[Index])[K];
  }
  R.EndToEnd["dyn_insts"] = static_cast<double>(Totals[0]);
  R.EndToEnd["dyn_branches"] = static_cast<double>(Totals[1]);
  R.EndToEnd["mispredictions"] = static_cast<double>(Totals[2]);
  R.EndToEnd["static_insts"] = static_cast<double>(StaticInsts);
  double GenLate = 0;
  for (const Sample &Smp : Plain.Open)
    GenLate = std::max(GenLate, Smp.FromDue - Smp.FromSend);
  R.Details.num("rounds", static_cast<double>(Plain.SliceP50.size()))
      .num("open_loop_requests", static_cast<double>(Plain.Open.size()))
      .samples("slice_p50_ms", Plain.SliceP50)
      .samples("slice_compile_p50_ms", Plain.SliceCompileP50)
      .samples("slice_capacity_rps", Plain.SliceCapacity)
      .num("gen_late_max_ms", GenLate * 1e3)
      .num("offered_rps", OpenLoopRate)
      .num("in_flight", InFlight)
      .num("workers", Workers)
      .num("connections", Connections);

  if (O.Trace) {
    std::map<std::string, double> WithSpans = endToEnd(Traced);
    TracedE2E.insert(WithSpans.begin(), WithSpans.end());
    T.setEnabled(true);
    replay(S, O.Seed, Traced.Open, T, R);
    T.setEnabled(false);

    std::vector<double> Latency = fromDue(Traced.Open), Queue;
    double Late = 0;
    for (const Sample &Smp : Traced.Open) {
      Queue.push_back(Smp.QueueSeconds * 1e3);
      Late = std::max(Late, Smp.FromDue - Smp.FromSend);
    }
    R.PerLayer["service.queue_wait_p50_ms"] = median(Queue);
    R.PerLayer["service.latency_p90_ms"] = percentile(Latency, 0.9) * 1e3;
    R.PerLayer["service.latency_p99_ms"] = percentile(Latency, 0.99) * 1e3;
    R.PerLayer["service.gen_late_max_ms"] = Late * 1e3;
    double Bytes = 0;
    for (const ServiceRequest &Merge : S.MergeReqs)
      Bytes += static_cast<double>(Merge.ProfileData.size());
    R.PerLayer["profile.bytes"] = Bytes;
    double ExecSeconds = 0, Insts = 0;
    for (const Sample &Smp : Traced.Open)
      if (Smp.K == Kind::Fused)
        Insts += static_cast<double>(Smp.Counts[0]);
    for (double Seconds : T.selfSecondsOf("sim.exec"))
      ExecSeconds += Seconds;
    R.PerLayer["sim.exec_s"] = ExecSeconds;
    R.PerLayer["sim.minsts_per_s"] =
        ExecSeconds > 0 ? Insts / ExecSeconds / 1e6 : 0.0;
  }

  ServiceStats Stats = S.Daemon->service().stats();
  uint64_t Lookups = Stats.CompileHits + Stats.CompileMisses;
  R.PerLayer["service.compile_hit_ratio"] =
      Lookups ? static_cast<double>(Stats.CompileHits) / Lookups : 0.0;
  R.PerLayer["service.rejected"] = static_cast<double>(Stats.RequestsRejected);
  R.PerLayer["service.queue_high_water"] =
      static_cast<double>(Stats.QueueHighWaterSeen);
  R.PerLayer["service.warm_starts"] = static_cast<double>(Stats.WarmStarts);
  R.PerLayer["service.learned_exports"] =
      static_cast<double>(Stats.LearnedExports);
  finishReport(R);
  if (O.Trace) {
    for (const char *Same : {"dyn_insts", "dyn_branches", "mispredictions",
                             "static_insts", "ok_ratio", "peak_rss_mb"})
      TracedE2E[Same] = R.EndToEnd[Same];
    reportTraceOverhead(R, R.EndToEnd, TracedE2E);
  }
}

} // namespace perfbench
