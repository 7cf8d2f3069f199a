//===- tests/service/service_test.cpp - broptd daemon tests ---------------===//
//
// The service layer's proof obligations (docs/SERVICE.md):
//
//  * the wire protocol round-trips every request/response field, and
//    malformed, truncated, or oversize frames are rejected without
//    tearing down the server;
//  * under many concurrent clients and a mixed request load, every
//    execute response equals a direct tree-walker run, and compiles share
//    the artifact cache across clients;
//  * backpressure engages at the queue high-water mark — rejections with
//    a retry hint, never unbounded queueing — while the Stats control
//    plane keeps answering inline;
//  * concurrent clients merging profiles converge to exactly the state a
//    serial merge produces (the PR-5 conflict-checked merge under real
//    contention);
//  * graceful shutdown drains admitted work and cancels an in-flight
//    tier-2 native compile instead of hanging on it.
//
// Every daemon here is a real BroptService on a private socket
// (InProcessService); traffic crosses the socket, not a shortcut.
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"

#include "codegen/NativeRunner.h"
#include "driver/Driver.h"
#include "profile/ProfileDB.h"
#include "sim/Interpreter.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/socket.h>

using namespace bropt;

namespace {

// A branchy tokenizer loop: enough distinct comparison outcomes that
// pass 1 records reorderable sequences, fast enough to run thousands of
// times.
const char *ChainSource = R"(
int counts0 = 0; int counts1 = 0; int counts2 = 0; int counts3 = 0;
int main() {
  int c;
  while ((c = getchar()) != -1) {
    if (c == 'a') { counts0 = counts0 + 1; }
    else if (c == 'b') { counts1 = counts1 + 1; }
    else if (c == 'c') { counts2 = counts2 + 1; }
    else { counts3 = counts3 + 1; }
  }
  printint(counts0); printint(counts1);
  printint(counts2); printint(counts3);
  return 0;
}
)";

// A compute loop with no input: each Execute burns a few million
// interpreted instructions, long enough to pile up a queue.
const char *SlowSource = R"(
int main() {
  int i = 0;
  int s = 0;
  while (i < 400000) {
    i = i + 1;
    if (i - i / 3 * 3 == 0) { s = s + 2; } else { s = s + 1; }
  }
  printint(s);
  return 0;
}
)";

ServiceRequest executeRequest(const char *Source, const std::string &Input,
                              Interpreter::Mode Mode = Interpreter::Mode::Fused) {
  ServiceRequest Request;
  Request.Kind = RequestKind::Execute;
  Request.Spec.Source = Source;
  Request.Input = Input;
  Request.Mode = (uint8_t)Mode;
  return Request;
}

RunResult directRun(const char *Source, const std::string &Input) {
  CompileResult Result = compileBaseline(Source, {});
  EXPECT_TRUE(Result.ok()) << Result.Error;
  Interpreter Interp(*Result.M, Interpreter::Mode::Tree);
  Interp.setInput(Input);
  return Interp.run();
}

/// A branchy classifier parameterized by \p Seed.  The thresholds, the
/// arithmetic and a baked-in tag differ per seed, so every seed is a
/// distinct module: a distinct artifact-cache entry and profile shard key.
std::string classifierSource(unsigned Seed) {
  const unsigned A = 48 + Seed % 30, B = 91 + Seed % 20, C = 3 + Seed % 5;
  std::ostringstream Out;
  Out << "int tag = " << Seed << ";\n"
      << "int low = 0; int mid = 0; int high = 0; int other = 0;\n"
      << "int main() {\n"
      << "  int c;\n"
      << "  while ((c = getchar()) != -1) {\n"
      << "    if (c < " << A << ") { low = low + " << 1 + Seed % 3 << "; }\n"
      << "    else if (c < " << B << ") { mid = mid + 1; }\n"
      << "    else if (c - c / " << C << " * " << C
      << " == 0) { high = high + 2; }\n"
      << "    else { other = other + 1; }\n"
      << "  }\n"
      << "  printint(low); printint(mid); printint(high);\n"
      << "  printint(other); printint(tag);\n"
      << "  return low + mid * 2 + high * 3 + other;\n"
      << "}\n";
  return Out.str();
}

/// Deterministic printable input bytes for \p Seed.
std::string classifierInput(unsigned Seed, size_t Bytes) {
  std::string Input;
  uint64_t State = 0x9e3779b97f4a7c15ULL ^ (Seed * 0x2545f4914f6cdd1dULL);
  for (size_t Index = 0; Index < Bytes; ++Index) {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    Input += static_cast<char>(' ' + (State >> 33) % 95);
  }
  return Input;
}

//===----------------------------------------------------------------------===//
// Protocol round trips
//===----------------------------------------------------------------------===//

TEST(ServiceProtocol, RequestRoundTripsEveryField) {
  ServiceRequest Request;
  Request.Kind = RequestKind::Execute;
  Request.Seq = 0xdeadbeefcafeULL;
  Request.Spec.Source = "int main() { return 7; }";
  Request.Spec.TrainingInputs = {"abc", std::string("\x00\xff\n", 3)};
  Request.Spec.ProfileData = std::string("\x01\x02\x00", 3);
  Request.Spec.HeuristicSet = 2;
  Request.Spec.CommonSuccessor = true;
  Request.Spec.MethodSelection = true;
  Request.Spec.WarmStart = true;
  Request.Spec.Predictor = "tage";
  Request.Input = "stdin bytes";
  Request.Mode = (uint8_t)Interpreter::Mode::Native;
  Request.InstructionLimit = 123456789;

  ServiceRequest Decoded;
  std::string Error;
  ASSERT_TRUE(decodeRequest(encodeRequest(Request), Decoded, &Error))
      << Error;
  EXPECT_EQ(Decoded.Kind, Request.Kind);
  EXPECT_EQ(Decoded.Seq, Request.Seq);
  EXPECT_EQ(Decoded.Spec.Source, Request.Spec.Source);
  EXPECT_EQ(Decoded.Spec.TrainingInputs, Request.Spec.TrainingInputs);
  EXPECT_EQ(Decoded.Spec.ProfileData, Request.Spec.ProfileData);
  EXPECT_EQ(Decoded.Spec.HeuristicSet, Request.Spec.HeuristicSet);
  EXPECT_EQ(Decoded.Spec.CommonSuccessor, Request.Spec.CommonSuccessor);
  EXPECT_EQ(Decoded.Spec.MethodSelection, Request.Spec.MethodSelection);
  EXPECT_EQ(Decoded.Spec.WarmStart, Request.Spec.WarmStart);
  EXPECT_EQ(Decoded.Spec.Predictor, Request.Spec.Predictor);
  EXPECT_EQ(Decoded.Input, Request.Input);
  EXPECT_EQ(Decoded.Mode, Request.Mode);
  EXPECT_EQ(Decoded.InstructionLimit, Request.InstructionLimit);
}

TEST(ServiceProtocol, KindSpecificFieldsRoundTrip) {
  // The payload encodes only the fields its kind uses; check each of the
  // non-Execute kinds carries its own.
  ServiceRequest Evaluate;
  Evaluate.Kind = RequestKind::Evaluate;
  Evaluate.WorkloadName = "wc";
  Evaluate.Spec.HeuristicSet = 3;
  ServiceRequest Decoded;
  ASSERT_TRUE(decodeRequest(encodeRequest(Evaluate), Decoded, nullptr));
  EXPECT_EQ(Decoded.WorkloadName, Evaluate.WorkloadName);
  EXPECT_EQ(Decoded.Spec.HeuristicSet, Evaluate.Spec.HeuristicSet);

  ServiceRequest Export;
  Export.Kind = RequestKind::ProfileExport;
  Export.ProgramKey = "0123456789abcdef";
  ASSERT_TRUE(decodeRequest(encodeRequest(Export), Decoded, nullptr));
  EXPECT_EQ(Decoded.ProgramKey, Export.ProgramKey);

  ServiceRequest Merge;
  Merge.Kind = RequestKind::ProfileMerge;
  Merge.ProgramKey = "feedfacefeedface";
  Merge.ProfileData = std::string("bin\x00profile", 11);
  ASSERT_TRUE(decodeRequest(encodeRequest(Merge), Decoded, nullptr));
  EXPECT_EQ(Decoded.ProgramKey, Merge.ProgramKey);
  EXPECT_EQ(Decoded.ProfileData, Merge.ProfileData);
}

TEST(ServiceProtocol, ResponseRoundTripsEveryField) {
  ServiceResponse Response;
  Response.Status = ResponseStatus::Rejected;
  Response.Seq = 42;
  Response.Error = "queue full";
  Response.RetryAfterMillis = 75;
  Response.ProgramKey = "feedface";
  Response.CompileCacheHit = true;
  Response.WarmStarted = true;
  Response.SequencesReordered = 3;
  Response.CodeSize = 512;
  Response.Trapped = true;
  Response.TrapReason = "division by zero";
  Response.ExitValue = -17;
  Response.Output = std::string("out\x00put", 7);
  Response.TotalInsts = 99999;
  Response.CondBranches = 1234;
  Response.PredictedBranches = 1200;
  Response.Mispredictions = 56;
  Response.BranchDeltaPercent = -12.5;
  Response.OutputsMatch = true;
  Response.QueueMicros = 777;
  Response.ProfileData = "agg";
  Response.MergeAdded = 1;
  Response.MergeMerged = 2;
  Response.MergeSkipped = 3;
  Response.Stats.RequestsAccepted = 10;
  Response.Stats.TierTwoCancellations = 4;
  Response.Stats.Zoo = {{"paper", 3, 4000, 120}, {"tage", 1, 900, 7}};

  ServiceResponse Decoded;
  std::string Error;
  ASSERT_TRUE(decodeResponse(encodeResponse(Response), Decoded, &Error))
      << Error;
  EXPECT_EQ(Decoded.Status, Response.Status);
  EXPECT_EQ(Decoded.Seq, Response.Seq);
  EXPECT_EQ(Decoded.Error, Response.Error);
  EXPECT_EQ(Decoded.RetryAfterMillis, Response.RetryAfterMillis);
  EXPECT_EQ(Decoded.ProgramKey, Response.ProgramKey);
  EXPECT_EQ(Decoded.CompileCacheHit, Response.CompileCacheHit);
  EXPECT_EQ(Decoded.WarmStarted, Response.WarmStarted);
  EXPECT_EQ(Decoded.SequencesReordered, Response.SequencesReordered);
  EXPECT_EQ(Decoded.CodeSize, Response.CodeSize);
  EXPECT_EQ(Decoded.Trapped, Response.Trapped);
  EXPECT_EQ(Decoded.TrapReason, Response.TrapReason);
  EXPECT_EQ(Decoded.ExitValue, Response.ExitValue);
  EXPECT_EQ(Decoded.Output, Response.Output);
  EXPECT_EQ(Decoded.TotalInsts, Response.TotalInsts);
  EXPECT_EQ(Decoded.CondBranches, Response.CondBranches);
  EXPECT_EQ(Decoded.PredictedBranches, Response.PredictedBranches);
  EXPECT_EQ(Decoded.Mispredictions, Response.Mispredictions);
  EXPECT_DOUBLE_EQ(Decoded.BranchDeltaPercent, Response.BranchDeltaPercent);
  EXPECT_EQ(Decoded.OutputsMatch, Response.OutputsMatch);
  EXPECT_EQ(Decoded.QueueMicros, Response.QueueMicros);
  EXPECT_EQ(Decoded.ProfileData, Response.ProfileData);
  EXPECT_EQ(Decoded.MergeAdded, Response.MergeAdded);
  EXPECT_EQ(Decoded.MergeMerged, Response.MergeMerged);
  EXPECT_EQ(Decoded.MergeSkipped, Response.MergeSkipped);
  EXPECT_EQ(Decoded.Stats.RequestsAccepted,
            Response.Stats.RequestsAccepted);
  EXPECT_EQ(Decoded.Stats.TierTwoCancellations,
            Response.Stats.TierTwoCancellations);
  ASSERT_EQ(Decoded.Stats.Zoo.size(), Response.Stats.Zoo.size());
  for (size_t Index = 0; Index < Response.Stats.Zoo.size(); ++Index) {
    EXPECT_EQ(Decoded.Stats.Zoo[Index].Name,
              Response.Stats.Zoo[Index].Name);
    EXPECT_EQ(Decoded.Stats.Zoo[Index].Runs,
              Response.Stats.Zoo[Index].Runs);
    EXPECT_EQ(Decoded.Stats.Zoo[Index].Branches,
              Response.Stats.Zoo[Index].Branches);
    EXPECT_EQ(Decoded.Stats.Zoo[Index].Mispredictions,
              Response.Stats.Zoo[Index].Mispredictions);
  }
}

TEST(ServiceProtocol, TruncatedPayloadsRejectedAtEveryLength) {
  ServiceRequest Request = executeRequest(ChainSource, "abcabc");
  Request.Seq = 9;
  const std::string Full = encodeRequest(Request);
  // Every strict prefix must fail to decode — cleanly, with a reason.
  for (size_t Length = 0; Length < Full.size(); ++Length) {
    ServiceRequest Decoded;
    std::string Error;
    EXPECT_FALSE(
        decodeRequest(Full.substr(0, Length), Decoded, &Error))
        << "prefix of " << Length << " bytes decoded";
  }
  ServiceRequest Decoded;
  EXPECT_TRUE(decodeRequest(Full, Decoded, nullptr));
}

TEST(ServiceProtocol, ProgramKeyIgnoresProfileInputsArtifactKeyDoesNot) {
  CompileSpec A;
  A.Source = ChainSource;
  CompileSpec B = A;
  B.TrainingInputs = {"aaabbbccc"};
  EXPECT_EQ(programKeyFor(A), programKeyFor(B));
  EXPECT_NE(artifactKeyFor(A), artifactKeyFor(B));
  CompileSpec C = A;
  C.HeuristicSet = 2;
  EXPECT_NE(programKeyFor(A), programKeyFor(C));
}

//===----------------------------------------------------------------------===//
// Wire-level robustness: the server survives hostile frames
//===----------------------------------------------------------------------===//

TEST(ServiceWire, MalformedFrameGetsErrorResponseConnectionSurvives) {
  InProcessService Daemon;
  ASSERT_TRUE(Daemon.ok()) << Daemon.error();
  auto Client = Daemon.connect();
  ASSERT_TRUE(Client);

  // Garbage payload in a well-formed frame: the decoder rejects it, the
  // server answers with Error, and the same connection keeps serving.
  ASSERT_TRUE(writeFrame(Client->fd(), "\xff garbage \x07\x07"));
  ServiceResponse Response;
  ASSERT_TRUE(Client->receive(Response));
  EXPECT_EQ(Response.Status, ResponseStatus::Error);
  EXPECT_NE(Response.Error.find("malformed"), std::string::npos)
      << Response.Error;

  ServiceRequest Request = executeRequest(ChainSource, "abc");
  ASSERT_TRUE(Client->roundTrip(Request, Response));
  EXPECT_TRUE(Response.ok()) << Response.Error;
  EXPECT_EQ(Response.ExitValue, 0);
  EXPECT_GE(Daemon.service().stats().ProtocolErrors, 1u);
}

TEST(ServiceWire, OversizeFrameClosesOnlyThatConnection) {
  ServiceOptions Options;
  Options.MaxFrameBytes = 4096; // small cap so the test stays cheap
  InProcessService Daemon(Options);
  ASSERT_TRUE(Daemon.ok()) << Daemon.error();
  auto Victim = Daemon.connect();
  ASSERT_TRUE(Victim);

  // A length prefix past the cap: rejected before allocation, answered
  // with an error, and the (unresyncable) connection is closed.
  const uint32_t Huge = Options.MaxFrameBytes + 1;
  const uint8_t Prefix[4] = {(uint8_t)(Huge & 0xff),
                             (uint8_t)((Huge >> 8) & 0xff),
                             (uint8_t)((Huge >> 16) & 0xff),
                             (uint8_t)((Huge >> 24) & 0xff)};
  ASSERT_EQ(::send(Victim->fd(), Prefix, sizeof(Prefix), MSG_NOSIGNAL), 4);
  ServiceResponse Response;
  if (Victim->receive(Response)) { // the error response (best effort)
    EXPECT_EQ(Response.Status, ResponseStatus::Error);
  }

  // The server is unharmed: fresh connections serve normally.
  auto Client = Daemon.connect();
  ASSERT_TRUE(Client);
  ASSERT_TRUE(Client->roundTrip(executeRequest(ChainSource, "ab"), Response));
  EXPECT_TRUE(Response.ok()) << Response.Error;
  EXPECT_GE(Daemon.service().stats().ProtocolErrors, 1u);
}

TEST(ServiceWire, MidFrameDisconnectCountsAsDrop) {
  InProcessService Daemon;
  ASSERT_TRUE(Daemon.ok()) << Daemon.error();
  {
    auto Client = Daemon.connect();
    ASSERT_TRUE(Client);
    const std::string Payload =
        encodeRequest(executeRequest(ChainSource, "x"));
    const uint32_t Length = (uint32_t)Payload.size();
    const uint8_t Prefix[4] = {(uint8_t)(Length & 0xff),
                               (uint8_t)((Length >> 8) & 0xff),
                               (uint8_t)((Length >> 16) & 0xff),
                               (uint8_t)((Length >> 24) & 0xff)};
    ASSERT_EQ(::send(Client->fd(), Prefix, sizeof(Prefix), MSG_NOSIGNAL), 4);
    ASSERT_GT(::send(Client->fd(), Payload.data(), Payload.size() / 2,
                     MSG_NOSIGNAL),
              0);
    Client->close(); // vanish mid-frame
  }
  // The reader notices the EOF asynchronously.
  for (int Spin = 0; Spin < 500; ++Spin) {
    if (Daemon.service().stats().DroppedConnections >= 1)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(Daemon.service().stats().DroppedConnections, 1u);

  // And the daemon still serves.
  auto Client = Daemon.connect();
  ASSERT_TRUE(Client);
  ServiceResponse Response;
  ASSERT_TRUE(Client->roundTrip(executeRequest(ChainSource, "abc"),
                                Response));
  EXPECT_TRUE(Response.ok()) << Response.Error;
}

//===----------------------------------------------------------------------===//
// Execution correctness + artifact cache
//===----------------------------------------------------------------------===//

TEST(ServiceExecute, MatchesDirectExecutionAndCaches) {
  InProcessService Daemon;
  ASSERT_TRUE(Daemon.ok()) << Daemon.error();
  auto Client = Daemon.connect();
  ASSERT_TRUE(Client);

  const std::string Input = "abcabca";
  RunResult Direct = directRun(ChainSource, Input);

  ServiceRequest Request = executeRequest(ChainSource, Input);
  ServiceResponse First, Second;
  ASSERT_TRUE(Client->roundTrip(Request, First));
  ASSERT_TRUE(First.ok()) << First.Error;
  EXPECT_FALSE(First.CompileCacheHit);
  EXPECT_EQ(First.Trapped, Direct.Trapped);
  EXPECT_EQ(First.ExitValue, Direct.ExitValue);
  EXPECT_EQ(First.Output, Direct.Output);
  EXPECT_EQ(First.TotalInsts, Direct.Counts.TotalInsts);
  EXPECT_EQ(First.CondBranches, Direct.Counts.CondBranches);

  // Same spec from a second client: artifact cache hit, same bytes.
  auto Other = Daemon.connect();
  ASSERT_TRUE(Other);
  ASSERT_TRUE(Other->roundTrip(Request, Second));
  ASSERT_TRUE(Second.ok()) << Second.Error;
  EXPECT_TRUE(Second.CompileCacheHit);
  EXPECT_EQ(Second.Output, First.Output);
  EXPECT_EQ(Second.TotalInsts, First.TotalInsts);

  ServiceStats Stats = Daemon.service().stats();
  EXPECT_GE(Stats.CompileMisses, 1u);
  EXPECT_GE(Stats.CompileHits, 1u);
}

TEST(ServiceExecute, AllEnginesAgreeOverTheWire) {
  InProcessService Daemon;
  ASSERT_TRUE(Daemon.ok()) << Daemon.error();
  auto Client = Daemon.connect();
  ASSERT_TRUE(Client);

  const std::string Input = "aabbaacc";
  RunResult Direct = directRun(ChainSource, Input);
  const Interpreter::Mode Modes[] = {Interpreter::Mode::Tree,
                                     Interpreter::Mode::Fused,
                                     Interpreter::Mode::Adaptive};
  for (Interpreter::Mode Mode : Modes) {
    ServiceResponse Response;
    ASSERT_TRUE(
        Client->roundTrip(executeRequest(ChainSource, Input, Mode),
                          Response));
    ASSERT_TRUE(Response.ok()) << Response.Error;
    EXPECT_EQ(Response.ExitValue, Direct.ExitValue) << (int)Mode;
    EXPECT_EQ(Response.Output, Direct.Output) << (int)Mode;
  }
}

TEST(ServiceExecute, BadModeAndBadSourceAreRequestLevelErrors) {
  InProcessService Daemon;
  ASSERT_TRUE(Daemon.ok()) << Daemon.error();
  auto Client = Daemon.connect();
  ASSERT_TRUE(Client);

  ServiceRequest Request = executeRequest("int main( {", "x");
  ServiceResponse Response;
  ASSERT_TRUE(Client->roundTrip(Request, Response));
  EXPECT_EQ(Response.Status, ResponseStatus::Error);
  EXPECT_FALSE(Response.Error.empty());

  // The wire mode bytes are pinned; every other byte is an error — 0 and
  // 5 (the retired decoded and adaptive-native bytes) as much as 255.
  EXPECT_EQ((uint8_t)Interpreter::Mode::Tree, 1);
  EXPECT_EQ((uint8_t)Interpreter::Mode::Fused, 2);
  EXPECT_EQ((uint8_t)Interpreter::Mode::Adaptive, 3);
  EXPECT_EQ((uint8_t)Interpreter::Mode::Native, 4);
  for (uint8_t Bad : {0, 5, 255}) {
    Request = executeRequest(ChainSource, "x");
    Request.Mode = Bad;
    ASSERT_TRUE(Client->roundTrip(Request, Response)) << (int)Bad;
    EXPECT_EQ(Response.Status, ResponseStatus::Error) << (int)Bad;
    EXPECT_NE(Response.Error.find("invalid execution mode"),
              std::string::npos)
        << Response.Error;
  }

  // Request-level failures never poison the connection or the daemon.
  ASSERT_TRUE(Client->roundTrip(executeRequest(ChainSource, "x"), Response));
  EXPECT_TRUE(Response.ok()) << Response.Error;
}

TEST(ServiceExecute, ConcurrentClientsMatchDirectExecution) {
  ServiceOptions Options;
  Options.Threads = 4;
  InProcessService Daemon(Options);
  ASSERT_TRUE(Daemon.ok()) << Daemon.error();

  // The corpus the mixed load draws on: each program with its direct
  // tree-walker run, its pass-1 profile as clients ship it, and the key
  // the daemon files it under.
  struct Program {
    std::string Source, Input, ProfileBlob, ProgramKey;
    RunResult Reference;
  };
  constexpr unsigned NumPrograms = 8;
  std::vector<Program> Corpus(NumPrograms);
  {
    auto Client = Daemon.connect();
    ASSERT_TRUE(Client);
    for (unsigned Index = 0; Index < NumPrograms; ++Index) {
      Program &P = Corpus[Index];
      P.Source = classifierSource(Index);
      P.Input = classifierInput(Index, 2048);
      P.Reference = directRun(P.Source.c_str(), P.Input);
      Pass1Result Pass1 = runPass1(P.Source, P.Input, CompileOptions());
      ASSERT_TRUE(Pass1.ok()) << Pass1.Error;
      P.ProfileBlob = Pass1.Profile.serializeBinary();
      ServiceRequest Request;
      Request.Kind = RequestKind::Compile;
      Request.Spec.Source = P.Source;
      ServiceResponse Response;
      ASSERT_TRUE(Client->roundTrip(Request, Response));
      ASSERT_TRUE(Response.ok()) << Response.Error;
      P.ProgramKey = Response.ProgramKey;
    }
  }

  constexpr unsigned NumClients = 16, PerClient = 32;
  std::atomic<unsigned> TransportErrors{0}, RequestErrors{0};

  // Cold, then warm compiles at the same concurrency.  Every client first
  // compiles a source the daemon has never seen; then, rotated by one,
  // the source another client just compiled, which the shared artifact
  // cache must serve.
  std::vector<std::string> Fresh(NumClients);
  for (unsigned Index = 0; Index < NumClients; ++Index)
    Fresh[Index] = classifierSource(1000 + Index);
  std::atomic<unsigned> ColdHits{0}, WarmMisses{0};
  auto CompileRound = [&](bool Warm) {
    std::vector<std::thread> Clients;
    for (unsigned Index = 0; Index < NumClients; ++Index)
      Clients.emplace_back([&, Index] {
        auto Client = Daemon.connect();
        ServiceRequest Request;
        Request.Kind = RequestKind::Compile;
        Request.Spec.Source = Fresh[Warm ? (Index + 1) % NumClients : Index];
        ServiceResponse Response;
        if (!Client || !Client->roundTrip(Request, Response)) {
          ++TransportErrors;
          return;
        }
        if (!Response.ok())
          ++RequestErrors;
        else if (Warm && !Response.CompileCacheHit)
          ++WarmMisses;
        else if (!Warm && Response.CompileCacheHit)
          ++ColdHits;
      });
    for (std::thread &T : Clients)
      T.join();
  };
  CompileRound(/*Warm=*/false);
  CompileRound(/*Warm=*/true);
  EXPECT_EQ(ColdHits, 0u) << "a never-seen source hit the cache";
  EXPECT_EQ(WarmMisses, 0u) << "another client's compile was not shared";

  // The mixed closed loop.  Of every 8 requests a client sends, 5 are
  // fused executes, 1 a compile, 1 a profile merge or export, and 1 a
  // stats request.
  std::atomic<unsigned> Executes{0}, Mismatches{0};
  std::vector<std::thread> Clients;
  for (unsigned ClientIndex = 0; ClientIndex < NumClients; ++ClientIndex)
    Clients.emplace_back([&, ClientIndex] {
      auto Client = Daemon.connect();
      if (!Client) {
        ++TransportErrors;
        return;
      }
      for (unsigned Iter = 0; Iter < PerClient; ++Iter) {
        const Program &P = Corpus[(ClientIndex + Iter) % NumPrograms];
        ServiceRequest Request;
        const unsigned Slot = Iter % 8;
        if (Slot < 5) {
          Request = executeRequest(P.Source.c_str(), P.Input);
        } else if (Slot == 5) {
          Request.Kind = RequestKind::Compile;
          Request.Spec.Source = P.Source;
        } else if (Slot == 6) {
          const bool Merge = (ClientIndex + Iter) % 2;
          Request.Kind =
              Merge ? RequestKind::ProfileMerge : RequestKind::ProfileExport;
          Request.ProgramKey = P.ProgramKey;
          if (Merge)
            Request.ProfileData = P.ProfileBlob;
        } else {
          Request.Kind = RequestKind::Stats;
        }
        ServiceResponse Response;
        if (!Client->roundTrip(Request, Response)) {
          ++TransportErrors;
          return;
        }
        if (!Response.ok()) {
          ++RequestErrors;
          continue;
        }
        if (Request.Kind != RequestKind::Execute)
          continue;
        ++Executes;
        if (Response.Output != P.Reference.Output ||
            Response.ExitValue != P.Reference.ExitValue ||
            Response.Trapped != P.Reference.Trapped ||
            Response.TotalInsts != P.Reference.Counts.TotalInsts ||
            Response.CondBranches != P.Reference.Counts.CondBranches)
          ++Mismatches;
      }
    });
  for (std::thread &T : Clients)
    T.join();

  EXPECT_EQ(TransportErrors, 0u);
  EXPECT_EQ(RequestErrors, 0u);
  EXPECT_EQ(Executes, NumClients * PerClient / 8 * 5);
  EXPECT_EQ(Mismatches, 0u);
}

//===----------------------------------------------------------------------===//
// Per-request predictor isolation (docs/PREDICT.md)
//===----------------------------------------------------------------------===//

TEST(ServicePredict, PerRequestPredictorIsolationAndZooStats) {
  InProcessService Daemon;
  ASSERT_TRUE(Daemon.ok()) << Daemon.error();
  auto Client = Daemon.connect();
  ASSERT_TRUE(Client);

  ServiceRequest Request =
      executeRequest(ChainSource, "abcabcaaab", Interpreter::Mode::Tree);
  Request.Spec.Predictor = "paper";

  // Two identical requests: the second hits the artifact cache, which is
  // exactly where a shared predictor would leak — its warmed counters
  // would predict the second run better than the first.  Fresh instances
  // make the measurements identical.
  ServiceResponse First, Second;
  ASSERT_TRUE(Client->roundTrip(Request, First));
  ASSERT_TRUE(First.ok()) << First.Error;
  ASSERT_TRUE(Client->roundTrip(Request, Second));
  ASSERT_TRUE(Second.ok()) << Second.Error;
  EXPECT_TRUE(Second.CompileCacheHit);
  EXPECT_GT(First.PredictedBranches, 0u);
  EXPECT_GT(First.Mispredictions, 0u); // cold counters always miss some
  EXPECT_EQ(First.PredictedBranches, Second.PredictedBranches);
  EXPECT_EQ(First.Mispredictions, Second.Mispredictions);

  // The cumulative zoo usage is the service-level audit trail.
  ServiceRequest StatsRequest;
  StatsRequest.Kind = RequestKind::Stats;
  ServiceResponse StatsResponse;
  ASSERT_TRUE(Client->roundTrip(StatsRequest, StatsResponse));
  ASSERT_TRUE(StatsResponse.ok()) << StatsResponse.Error;
  bool Found = false;
  for (const ServiceStats::PredictorUsage &Usage : StatsResponse.Stats.Zoo)
    if (Usage.Name == "paper") {
      Found = true;
      EXPECT_EQ(Usage.Runs, 2u);
      EXPECT_EQ(Usage.Branches,
                First.PredictedBranches + Second.PredictedBranches);
      EXPECT_EQ(Usage.Mispredictions,
                First.Mispredictions + Second.Mispredictions);
    }
  EXPECT_TRUE(Found);

  // An unknown zoo name is a request-level error, not a silent unaware
  // run.
  Request.Spec.Predictor = "oracle";
  ServiceResponse Bad;
  ASSERT_TRUE(Client->roundTrip(Request, Bad));
  EXPECT_EQ(Bad.Status, ResponseStatus::Error);
  EXPECT_NE(Bad.Error.find("unknown predictor"), std::string::npos)
      << Bad.Error;
}

//===----------------------------------------------------------------------===//
// Backpressure
//===----------------------------------------------------------------------===//

TEST(ServiceBackpressure, RejectsPastHighWaterAndStatsStayInline) {
  ServiceOptions Options;
  Options.Threads = 1;
  Options.QueueHighWater = 2;
  Options.RetryAfterMillis = 5;
  InProcessService Daemon(Options);
  ASSERT_TRUE(Daemon.ok()) << Daemon.error();

  // Pre-compile so the flood measures execution, not one giant compile.
  {
    auto Client = Daemon.connect();
    ASSERT_TRUE(Client);
    ServiceRequest Warm;
    Warm.Kind = RequestKind::Compile;
    Warm.Spec.Source = SlowSource;
    ServiceResponse Response;
    ASSERT_TRUE(Client->roundTrip(Warm, Response));
    ASSERT_TRUE(Response.ok()) << Response.Error;
  }

  constexpr unsigned NumClients = 8, PerClient = 4;
  std::atomic<unsigned> Ok{0}, Rejected{0}, Other{0};
  std::vector<std::thread> Clients;
  for (unsigned Index = 0; Index < NumClients; ++Index)
    Clients.emplace_back([&] {
      auto Client = Daemon.connect();
      ASSERT_TRUE(Client);
      for (unsigned Round = 0; Round < PerClient; ++Round) {
        ServiceResponse Response;
        if (!Client->roundTrip(executeRequest(SlowSource, ""), Response)) {
          ++Other;
          return;
        }
        if (Response.Status == ResponseStatus::Ok)
          ++Ok;
        else if (Response.Status == ResponseStatus::Rejected) {
          ++Rejected;
          EXPECT_GT(Response.RetryAfterMillis, 0u);
        } else
          ++Other;
      }
    });

  // While the flood runs, the Stats control plane must answer inline —
  // that is exactly when an operator needs it.
  {
    auto Client = Daemon.connect();
    ASSERT_TRUE(Client);
    ServiceRequest Request;
    Request.Kind = RequestKind::Stats;
    ServiceResponse Response;
    ASSERT_TRUE(Client->roundTrip(Request, Response));
    EXPECT_TRUE(Response.ok());
  }
  for (std::thread &T : Clients)
    T.join();

  EXPECT_EQ(Other, 0u);
  EXPECT_GT(Ok, 0u);
  EXPECT_GE(Rejected, 1u) << "backpressure never engaged";
  ServiceStats Stats = Daemon.service().stats();
  EXPECT_GE(Stats.RequestsRejected, 1u);
  // Readers race the admission check, so the gauge can overshoot by at
  // most one in-flight admission per connection.
  EXPECT_LE(Stats.QueueHighWaterSeen, Options.QueueHighWater + NumClients);

  // Retrying clients make progress once the queue drains.
  auto Client = Daemon.connect();
  ASSERT_TRUE(Client);
  ServiceResponse Response;
  ASSERT_TRUE(
      Client->roundTripRetrying(executeRequest(SlowSource, ""), Response));
  EXPECT_TRUE(Response.ok()) << Response.Error;
}

//===----------------------------------------------------------------------===//
// Concurrent profile merge convergence
//===----------------------------------------------------------------------===//

TEST(ServiceProfile, ConcurrentMergesConvergeToSerialResult) {
  InProcessService Daemon;
  ASSERT_TRUE(Daemon.ok()) << Daemon.error();

  // One real pass-1 profile, serialized the way clients ship it.
  const std::string Training = "aaaaabbbcca";
  Pass1Result Pass1 = runPass1(ChainSource, std::vector<std::string_view>{Training}, CompileOptions{});
  ASSERT_TRUE(Pass1.ok()) << Pass1.Error;
  const std::string Shipped = Pass1.Profile.serializeBinary();

  CompileSpec Spec;
  Spec.Source = ChainSource;
  const std::string Key = programKeyFor(Spec);

  constexpr unsigned NumClients = 8, PerClient = 4;
  std::vector<std::thread> Clients;
  std::atomic<unsigned> Failures{0};
  for (unsigned Index = 0; Index < NumClients; ++Index)
    Clients.emplace_back([&] {
      auto Client = Daemon.connect();
      if (!Client) {
        ++Failures;
        return;
      }
      for (unsigned Round = 0; Round < PerClient; ++Round) {
        ServiceRequest Request;
        Request.Kind = RequestKind::ProfileMerge;
        Request.ProgramKey = Key;
        Request.ProfileData = Shipped;
        ServiceResponse Response;
        if (!Client->roundTripRetrying(Request, Response) ||
            !Response.ok() || Response.MergeSkipped != 0)
          ++Failures;
      }
    });
  for (std::thread &T : Clients)
    T.join();
  ASSERT_EQ(Failures, 0u);

  // Export the aggregate and hold it to the serial reference: the same
  // profile merged NumClients * PerClient times on one thread.
  auto Client = Daemon.connect();
  ASSERT_TRUE(Client);
  ServiceRequest Export;
  Export.Kind = RequestKind::ProfileExport;
  Export.ProgramKey = Key;
  ServiceResponse Response;
  ASSERT_TRUE(Client->roundTrip(Export, Response));
  ASSERT_TRUE(Response.ok()) << Response.Error;
  ProfileDB Aggregate;
  std::string ParseError;
  ASSERT_TRUE(Aggregate.deserialize(Response.ProfileData, &ParseError))
      << ParseError;

  ProfileDB Reference;
  for (unsigned Merge = 0; Merge < NumClients * PerClient; ++Merge)
    Reference.merge(Pass1.Profile);

  EXPECT_EQ(Aggregate.numSequences(), Reference.numSequences());
  // The decisive check: pass-2 selection over the aggregate picks exactly
  // the orderings the serial merge picks.  (Uniform scaling preserves
  // ratios, so both also match a single-profile compile.)
  CompileResult Compiled = compileBaseline(ChainSource, {});
  ASSERT_TRUE(Compiled.ok()) << Compiled.Error;
  EXPECT_EQ(orderingSignaturesFromProfile(*Compiled.M, Aggregate),
            orderingSignaturesFromProfile(*Compiled.M, Reference));

  ServiceStats Stats = Daemon.service().stats();
  EXPECT_GE(Stats.ProfileMerges, (uint64_t)NumClients * PerClient);
  EXPECT_EQ(Stats.ProfileMergeConflicts, 0u);
}

TEST(ServiceProfile, WarmStartConsumesOtherClientsTraffic) {
  InProcessService Daemon;
  ASSERT_TRUE(Daemon.ok()) << Daemon.error();
  auto Client = Daemon.connect();
  ASSERT_TRUE(Client);

  // Tenant 1 compiles with training inputs: its pass-1 profile lands in
  // the shards.
  ServiceRequest Trained;
  Trained.Kind = RequestKind::Compile;
  Trained.Spec.Source = ChainSource;
  Trained.Spec.TrainingInputs = {"aaaaabbbcca"};
  ServiceResponse Response;
  ASSERT_TRUE(Client->roundTrip(Trained, Response));
  ASSERT_TRUE(Response.ok()) << Response.Error;

  // Tenant 2 compiles the same program with NO training data of its own,
  // but asks to warm-start from the daemon's cross-tenant aggregate.
  ServiceRequest Cold;
  Cold.Kind = RequestKind::Compile;
  Cold.Spec.Source = ChainSource;
  Cold.Spec.WarmStart = true;
  ASSERT_TRUE(Client->roundTrip(Cold, Response));
  ASSERT_TRUE(Response.ok()) << Response.Error;
  EXPECT_TRUE(Response.WarmStarted);
  EXPECT_GE(Daemon.service().stats().WarmStarts, 1u);
}

//===----------------------------------------------------------------------===//
// Graceful shutdown
//===----------------------------------------------------------------------===//

TEST(ServiceShutdown, DrainsAdmittedWorkBeforeClosing) {
  ServiceOptions Options;
  Options.Threads = 2;
  InProcessService Daemon(Options);
  ASSERT_TRUE(Daemon.ok()) << Daemon.error();
  auto Client = Daemon.connect();
  ASSERT_TRUE(Client);

  // Pipeline several requests, then ask for shutdown on another
  // connection: everything already admitted must still be answered.
  constexpr unsigned Pipelined = 4;
  for (unsigned Index = 0; Index < Pipelined; ++Index) {
    ServiceRequest Request = executeRequest(SlowSource, "");
    Request.Seq = 100 + Index;
    ASSERT_TRUE(Client->send(Request));
  }
  auto Stopper = Daemon.connect();
  ASSERT_TRUE(Stopper);
  ServiceRequest Stop;
  Stop.Kind = RequestKind::Shutdown;
  ServiceResponse Response;
  ASSERT_TRUE(Stopper->roundTrip(Stop, Response));
  EXPECT_TRUE(Response.ok());

  unsigned Answered = 0;
  for (unsigned Index = 0; Index < Pipelined; ++Index) {
    ServiceResponse Pending;
    if (!Client->receive(Pending))
      break;
    // Admitted requests complete; ones that raced the stop flag are
    // refused with ShuttingDown — never dropped silently.
    EXPECT_TRUE(Pending.Status == ResponseStatus::Ok ||
                Pending.Status == ResponseStatus::ShuttingDown)
        << (int)Pending.Status;
    if (Pending.ok())
      ++Answered;
  }
  EXPECT_GE(Answered, 1u);
  EXPECT_TRUE(Daemon.service().shutdown());
}

/// A private NativeRunner whose "host compiler" never returns, the
/// adaptive_native_test idiom: discoverCompiler() reads $BROPT_CC at
/// construction; restore the real value immediately after.
std::unique_ptr<NativeRunner> makeHangRunner() {
  const char *SavedCC = getenv("BROPT_CC");
  std::string Saved = SavedCC ? SavedCC : "";
  setenv("BROPT_CC", "sleep 600 #", 1);
  auto Runner = std::make_unique<NativeRunner>();
  if (SavedCC)
    setenv("BROPT_CC", Saved.c_str(), 1);
  else
    unsetenv("BROPT_CC");
  return Runner;
}

/// Daemon knobs under which SlowSource turns hot enough for tier 2 within
/// one execute; compiles go to \p Runner.
ServiceOptions tierTwoOptions(NativeRunner &Runner) {
  ServiceOptions Options;
  Options.Threads = 2;
  Options.DrainDeadlineSeconds = 2.0;
  Options.Runtime.HotThreshold = 64;
  Options.Runtime.SampleInterval = 16;
  Options.Runtime.NativeThreshold = 128;
  Options.Runtime.MinSamplesBetweenRecompiles = 16;
  Options.Runtime.MinSamplesBetweenNativeBuilds = 16;
  Options.Runtime.Runner = &Runner;
  return Options;
}

TEST(ServiceShutdown, DrainCancelsInFlightTierTwoCompile) {
  std::unique_ptr<NativeRunner> HangRunner = makeHangRunner();
  ServiceOptions Options = tierTwoOptions(*HangRunner);
  Options.Runtime.NativeTier = true; // broptd --native-tier
  InProcessService Daemon(Options);
  ASSERT_TRUE(Daemon.ok()) << Daemon.error();
  auto Client = Daemon.connect();
  ASSERT_TRUE(Client);

  // One hot adaptive execute: the controller tiers up and compiles its
  // tier-2 body on the fake compiler, which never returns, so the
  // response cannot arrive before shutdown.
  ASSERT_TRUE(Client->send(
      executeRequest(SlowSource, "", Interpreter::Mode::Adaptive)));
  // Shut down only once the daemon has admitted it; anything later is
  // answered ShuttingDown and never runs.
  for (int Tick = 0; Tick < 3000 && !Daemon.service().stats().RequestsAccepted;
       ++Tick)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(Daemon.service().stats().RequestsAccepted, 1u);

  const auto Start = std::chrono::steady_clock::now();
  Daemon.service().shutdown();
  const double Elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  // The wedged compile must be cancelled, not waited out: well inside
  // the 600s hang, bounded by the drain deadline plus teardown slack.
  EXPECT_LT(Elapsed, 30.0);
  EXPECT_GE(Daemon.service().stats().TierTwoCancellations, 1u)
      << "shutdown drained without cancelling the wedged tier-2 compile";
}

TEST(ServiceShutdown, DrainCancelsWedgedNativePrepare) {
  // A native-mode execute compiles its program under the artifact's build
  // lock, here on a host compiler that never returns.  Past the drain
  // deadline shutdown cancels that compile: the execute is answered with
  // an error, shutdown() returns, and so does the daemon's destructor,
  // which joins the worker that ran it.
  std::unique_ptr<NativeRunner> HangRunner = makeHangRunner();
  ServiceOptions Options;
  Options.Threads = 2;
  Options.DrainDeadlineSeconds = 1.0;
  Options.Runtime.Runner = HangRunner.get();
  auto Daemon = std::make_unique<InProcessService>(Options);
  ASSERT_TRUE(Daemon->ok()) << Daemon->error();
  auto Client = Daemon->connect();
  ASSERT_TRUE(Client);
  ASSERT_TRUE(Client->send(
      executeRequest(SlowSource, "", Interpreter::Mode::Native)));
  for (int Tick = 0;
       Tick < 3000 && !Daemon->service().stats().RequestsAccepted; ++Tick)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(Daemon->service().stats().RequestsAccepted, 1u);

  const auto Start = std::chrono::steady_clock::now();
  EXPECT_FALSE(Daemon->service().shutdown()) << "the drain cancelled nothing";
  ServiceResponse Response;
  ASSERT_TRUE(Client->receive(Response));
  EXPECT_EQ(Response.Status, ResponseStatus::Error);
  EXPECT_NE(Response.Error.find("native compile cancelled"),
            std::string::npos)
      << Response.Error;
  Daemon.reset();
  // Well inside the 600s hang: the drain deadline plus teardown slack.
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          Start)
                .count(),
            30.0);
}

TEST(ServiceExecute, NativeCompileTimeoutBoundsNativePrepare) {
  // The daemon's NativeCompileTimeout caps a native execute's host
  // compile as it caps a tier-2 one: the execute fails, and the daemon
  // drains cleanly.
  std::unique_ptr<NativeRunner> HangRunner = makeHangRunner();
  ServiceOptions Options;
  Options.Runtime.Runner = HangRunner.get();
  Options.Runtime.NativeCompileTimeout = 0.2;
  InProcessService Daemon(Options);
  ASSERT_TRUE(Daemon.ok()) << Daemon.error();
  auto Client = Daemon.connect();
  ASSERT_TRUE(Client);
  ServiceResponse Response;
  ASSERT_TRUE(Client->roundTrip(
      executeRequest(SlowSource, "", Interpreter::Mode::Native), Response));
  EXPECT_EQ(Response.Status, ResponseStatus::Error);
  EXPECT_NE(Response.Error.find("timed out"), std::string::npos)
      << Response.Error;
  EXPECT_TRUE(Daemon.service().shutdown());
}

TEST(ServiceShutdown, AdaptiveStaysInterpretedWithoutNativeTier) {
  // The same hot program and knobs as the drain test above, which with
  // --native-tier launches a tier-2 compile the drain must cancel.
  // Without the flag no adaptive execute may promote: native runs count
  // nothing, so every response must carry the full interpreted
  // instruction count, and no compile is ever launched for the drain to
  // cancel.
  std::unique_ptr<NativeRunner> HangRunner = makeHangRunner();
  InProcessService Daemon(tierTwoOptions(*HangRunner));
  ASSERT_TRUE(Daemon.ok()) << Daemon.error();
  auto Client = Daemon.connect();
  ASSERT_TRUE(Client);

  RunResult Direct = directRun(SlowSource, "");
  ASSERT_GT(Direct.Counts.TotalInsts, 0u);
  for (unsigned Round = 0; Round < 4; ++Round) {
    ServiceResponse Response;
    ASSERT_TRUE(Client->roundTrip(
        executeRequest(SlowSource, "", Interpreter::Mode::Adaptive),
        Response));
    ASSERT_TRUE(Response.ok()) << Response.Error;
    EXPECT_EQ(Response.TotalInsts, Direct.Counts.TotalInsts)
        << "round " << Round;
    EXPECT_EQ(Response.Output, Direct.Output);
  }
  EXPECT_TRUE(Daemon.service().shutdown());
  EXPECT_EQ(Daemon.service().stats().TierTwoCancellations, 0u);
}

//===----------------------------------------------------------------------===//
// Evaluate + stats over the wire
//===----------------------------------------------------------------------===//

TEST(ServiceEvaluate, RunsStandardWorkloadAndReportsDelta) {
  InProcessService Daemon;
  ASSERT_TRUE(Daemon.ok()) << Daemon.error();
  auto Client = Daemon.connect();
  ASSERT_TRUE(Client);

  ServiceRequest Request;
  Request.Kind = RequestKind::Evaluate;
  Request.WorkloadName = "wc";
  ServiceResponse Response;
  ASSERT_TRUE(Client->roundTrip(Request, Response));
  ASSERT_TRUE(Response.ok()) << Response.Error;
  EXPECT_TRUE(Response.OutputsMatch);

  Request.WorkloadName = "no-such-workload";
  ASSERT_TRUE(Client->roundTrip(Request, Response));
  EXPECT_EQ(Response.Status, ResponseStatus::Error);
}

TEST(ServiceStatsRequest, CountersArriveOverTheWire) {
  InProcessService Daemon;
  ASSERT_TRUE(Daemon.ok()) << Daemon.error();
  auto Client = Daemon.connect();
  ASSERT_TRUE(Client);

  ServiceResponse Response;
  ASSERT_TRUE(Client->roundTrip(executeRequest(ChainSource, "ab"),
                                Response));
  ASSERT_TRUE(Response.ok()) << Response.Error;

  ServiceRequest Request;
  Request.Kind = RequestKind::Stats;
  ASSERT_TRUE(Client->roundTrip(Request, Response));
  ASSERT_TRUE(Response.ok());
  EXPECT_GE(Response.Stats.RequestsAccepted, 1u);
  EXPECT_GE(Response.Stats.RequestsCompleted, 1u);
  EXPECT_GE(Response.Stats.CompileMisses, 1u);
  EXPECT_GE(Response.Stats.ActiveConnections, 1u);
}

} // namespace
