//===- fuzz/Oracle.cpp - Pipeline-wide differential-testing oracle --------===//

#include "fuzz/Oracle.h"

#include "codegen/NativeRunner.h"
#include "core/Reorder.h"
#include "exec/ExecBackend.h"
#include "ir/Verifier.h"
#include "opt/Passes.h"
#include "predict/Zoo.h"
#include "profile/ProfileDB.h"
#include "runtime/AdaptiveController.h"
#include "service/Client.h"
#include "sim/Fuse.h"
#include "sim/Interpreter.h"
#include "support/Strings.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include <sys/socket.h>

using namespace bropt;

const char *bropt::violationKindName(ViolationKind Kind) {
  switch (Kind) {
  case ViolationKind::None:
    return "none";
  case ViolationKind::CompileError:
    return "compile-error";
  case ViolationKind::BehaviorMismatch:
    return "behavior-mismatch";
  case ViolationKind::EngineMismatch:
    return "engine-mismatch";
  case ViolationKind::VerifierFailure:
    return "verifier-failure";
  case ViolationKind::CostRegression:
    return "cost-regression";
  case ViolationKind::ProfileReplayMismatch:
    return "profile-replay-mismatch";
  case ViolationKind::LoweringSuboptimal:
    return "lowering-suboptimal";
  }
  return "unknown";
}

namespace {

bool countsEqual(const DynamicCounts &A, const DynamicCounts &B) {
  return A.TotalInsts == B.TotalInsts && A.CondBranches == B.CondBranches &&
         A.TakenBranches == B.TakenBranches &&
         A.UncondJumps == B.UncondJumps &&
         A.IndirectJumps == B.IndirectJumps && A.Compares == B.Compares &&
         A.Loads == B.Loads && A.Stores == B.Stores && A.Calls == B.Calls &&
         A.ProfileHooks == B.ProfileHooks;
}

/// The predictors invariant 2 attaches, a fresh one per run: the paper's
/// (m,n) table on the baseline module and TAGE on the reordered one, so
/// every campaign drives both of the threaded loop's predictor feeds (the
/// table stepped in loop locals, any other scheme through the virtual
/// Predictor::observe).
constexpr const char *BaselineScheme = "paper";
constexpr const char *ReorderedScheme = "tage";

/// Runs \p M under \p Mode, with a fresh \p Scheme predictor attached
/// unless \p Scheme is null.
RunResult runOne(const Module &M, Interpreter::Mode Mode,
                 const std::string &Input, uint64_t Limit,
                 const char *Scheme = nullptr) {
  std::unique_ptr<Predictor> P = Scheme ? makePredictor(Scheme) : nullptr;
  Interpreter Interp(M, Mode);
  Interp.attachPredictor(P.get());
  Interp.setInput(Input);
  Interp.setInstructionLimit(Limit);
  return Interp.run();
}

/// Runs the fused engine against a pre-built fused program, the way runs
/// of an artifact's fused slot do.
RunResult runFused(const Module &M, const DecodedModule &DM,
                   const std::string &Input, uint64_t Limit,
                   const char *Scheme) {
  std::unique_ptr<Predictor> P = makePredictor(Scheme);
  Interpreter Interp(M, Interpreter::Mode::Fused);
  Interp.setPreparedProgram(&DM);
  Interp.attachPredictor(P.get());
  Interp.setInput(Input);
  Interp.setInstructionLimit(Limit);
  return Interp.run();
}

/// Runs the adaptive engine through a persistent controller, the way the
/// driver's Evaluator re-enters a cached one: tiering state accumulated on
/// earlier inputs carries into this run.  With the controller's NativeTier
/// on this is the full tier ladder: beginRun() decides per activation
/// whether the hot-swapped native body or the interpreter executes it.
RunResult runAdaptive(const Module &M, AdaptiveController &Controller,
                      const std::string &Input, uint64_t Limit,
                      const char *Scheme = nullptr) {
  std::unique_ptr<Predictor> P = Scheme ? makePredictor(Scheme) : nullptr;
  ExecRequest Req;
  Req.Input = Input;
  Req.InstructionLimit = Limit;
  Req.Adaptive = &Controller;
  Req.AttachedPredictor = P.get();
  return executeModule(M, Interpreter::Mode::Adaptive, Req);
}

std::string describeRun(const RunResult &R) {
  if (R.Trapped)
    return "trap: " + R.TrapReason;
  return formatString("exit %lld, %zu output bytes", (long long)R.ExitValue,
                      R.Output.size());
}

/// Invariant 2: the engines must agree on everything, counters and the
/// attached predictor's statistics included.  \p Label names the
/// non-tree engine in diagnostics.
bool enginesAgree(const RunResult &Tree, const RunResult &Other,
                  const char *Label, std::string &Detail) {
  if (Tree.Trapped != Other.Trapped ||
      Tree.TrapReason != Other.TrapReason ||
      Tree.ExitValue != Other.ExitValue || Tree.Output != Other.Output) {
    Detail = "tree: " + describeRun(Tree) + "; " + Label + ": " +
             describeRun(Other);
    return false;
  }
  if (!countsEqual(Tree.Counts, Other.Counts)) {
    Detail = formatString(
        "dynamic counters diverge: tree %llu insts / %llu branches, "
        "%s %llu insts / %llu branches",
        (unsigned long long)Tree.Counts.TotalInsts,
        (unsigned long long)Tree.Counts.CondBranches, Label,
        (unsigned long long)Other.Counts.TotalInsts,
        (unsigned long long)Other.Counts.CondBranches);
    return false;
  }
  if (Tree.Prediction.Branches != Other.Prediction.Branches ||
      Tree.Prediction.Mispredictions != Other.Prediction.Mispredictions) {
    Detail = formatString(
        "predictor statistics diverge: tree %llu branches / %llu "
        "mispredictions, %s %llu branches / %llu mispredictions",
        (unsigned long long)Tree.Prediction.Branches,
        (unsigned long long)Tree.Prediction.Mispredictions, Label,
        (unsigned long long)Other.Prediction.Branches,
        (unsigned long long)Other.Prediction.Mispredictions);
    return false;
  }
  return true;
}

/// Invariant 2, observables half: native code collects no dynamic
/// counters (that is the point of compiling it), so the native engine is
/// held to exact agreement on trap state, exit value, and output only.
bool observablesAgree(const RunResult &Tree, const RunResult &Other,
                      const char *Label, std::string &Detail) {
  if (Tree.Trapped != Other.Trapped ||
      Tree.TrapReason != Other.TrapReason ||
      Tree.ExitValue != Other.ExitValue || Tree.Output != Other.Output) {
    Detail = "tree: " + describeRun(Tree) + "; " + Label + ": " +
             describeRun(Other);
    return false;
  }
  return true;
}

/// Invariant 1: same input -> same observable behavior.  Counters are
/// allowed — expected — to differ; that is the optimization working.
bool behaviorsAgree(const RunResult &Base, const RunResult &Opt,
                    std::string &Detail) {
  if (Base.Trapped != Opt.Trapped ||
      (Base.Trapped && Base.TrapReason != Opt.TrapReason) ||
      (!Base.Trapped &&
       (Base.ExitValue != Opt.ExitValue || Base.Output != Opt.Output))) {
    Detail = "baseline: " + describeRun(Base) +
             "; reordered: " + describeRun(Opt);
    return false;
  }
  return true;
}

/// The campaign-wide daemon the service oracle replays through.  Shared
/// across every runOracle() call in the process on purpose: its artifact
/// cache and profile shards accumulate state from every prior program, so
/// a corruption planted by one run (or one dropped connection) has the
/// rest of the campaign to be observed — a fresh daemon per run would
/// only ever test a cold cache.
InProcessService &sharedOracleService() {
  static InProcessService Daemon([] {
    ServiceOptions Options;
    Options.Threads = 2;
    return Options;
  }());
  return Daemon;
}

std::string describeResponse(const ServiceResponse &Response) {
  if (Response.Trapped)
    return "trap: " + Response.TrapReason;
  return formatString("exit %lld, %zu output bytes",
                      (long long)Response.ExitValue,
                      Response.Output.size());
}

/// Invariant 2 over the wire: an Execute response must agree with the
/// direct run bit for bit — observables and the dynamic counters the
/// protocol carries.
bool serviceAgrees(const RunResult &Tree, const ServiceResponse &Response,
                   std::string &Detail) {
  if (Tree.Trapped != Response.Trapped ||
      Tree.TrapReason != Response.TrapReason ||
      Tree.ExitValue != Response.ExitValue ||
      Tree.Output != Response.Output) {
    Detail = "tree: " + describeRun(Tree) +
             "; service: " + describeResponse(Response);
    return false;
  }
  if (Tree.Counts.TotalInsts != Response.TotalInsts ||
      Tree.Counts.CondBranches != Response.CondBranches) {
    Detail = formatString(
        "dynamic counters diverge over the wire: tree %llu insts / %llu "
        "branches, service %llu insts / %llu branches",
        (unsigned long long)Tree.Counts.TotalInsts,
        (unsigned long long)Tree.Counts.CondBranches,
        (unsigned long long)Response.TotalInsts,
        (unsigned long long)Response.CondBranches);
    return false;
  }
  return true;
}

/// FaultKind::DropConnection saboteur: two extra connections die against
/// the shared daemon — one mid-frame (a length prefix promising more
/// bytes than ever arrive, which the reader records deterministically
/// once it sees the EOF), and one whose request completes but whose
/// response write finds the peer already gone.  The second races the
/// worker and may or may not be counted; the inverted expectation only
/// needs >= 1 recorded drop and an uncorrupted daemon afterwards.
void dropConnectionsMidRequest(InProcessService &Daemon,
                               const ServiceRequest &Request) {
  const std::string Payload = encodeRequest(Request);
  if (auto Client = Daemon.connect()) {
    const uint32_t Length = (uint32_t)Payload.size();
    const uint8_t Prefix[4] = {
        (uint8_t)(Length & 0xff), (uint8_t)((Length >> 8) & 0xff),
        (uint8_t)((Length >> 16) & 0xff), (uint8_t)((Length >> 24) & 0xff)};
    (void)::send(Client->fd(), Prefix, sizeof(Prefix), MSG_NOSIGNAL);
    (void)::send(Client->fd(), Payload.data(), Payload.size() / 2,
                 MSG_NOSIGNAL);
    Client->close();
  }
  if (auto Client = Daemon.connect()) {
    (void)Client->send(Request);
    Client->close();
  }
}

/// Test-only fault: flip the predicate of the first conditional branch in
/// a block the reorderer created, without swapping the successors.  The
/// corruption only fires when reordering actually restructured something,
/// so un-reordered programs stay clean (and the minimizer must preserve a
/// reorderable shape to keep the failure alive).
bool corruptReorderedBlock(Module &M) {
  for (auto &F : M)
    for (auto &Block : *F) {
      if (Block->getLabel().find("reord") == std::string::npos)
        continue;
      if (auto *Br = dyn_cast_or_null<CondBrInst>(Block->getTerminator())) {
        Br->setPred(invertCondCode(Br->getPred()));
        return true;
      }
    }
  return false;
}

/// Invariant 4 over every sequence the profile covers: the Figure 8
/// selection must never pick an ordering costing more (Equations 1-4)
/// than the original one.
OracleReport checkCosts(std::string_view Source,
                        const std::vector<std::string_view> &Training,
                        const OracleOptions &Opts) {
  OracleReport Report;
  Pass1Result Pass1 = runPass1(Source, Training, Opts.Compile);
  if (!Pass1.ok()) {
    Report.Kind = ViolationKind::CompileError;
    Report.Detail = "pass 1 failed: " + Pass1.Error;
    return Report;
  }
  SequenceKeyer Keyer;
  for (const RangeSequence &Seq : Pass1.Sequences) {
    size_t NumBins = Seq.Conds.size() + Seq.DefaultRanges.size();
    const ProfileEntry *Prof = Pass1.Profile.lookupSequence(
        ProfileKind::RangeBins, Seq.F->getName(), Seq.signature(), NumBins,
        Keyer.next(ProfileKind::RangeBins, Seq.F->getName()));
    if (!Prof ||
        Prof->totalExecutions() < Opts.Compile.Reorder.MinExecutions ||
        Prof->totalExecutions() == 0)
      continue; // reorderSequence skips these too
    std::vector<RangeInfo> Infos = buildRangeInfos(Seq, *Prof);
    OrderingDecision Decision =
        Opts.Compile.Reorder.UseExhaustiveSelection && Infos.size() <= 10
            ? selectOrderingExhaustive(Infos)
            : selectOrdering(Infos);
    // The original ordering tests the explicit conditions in source order
    // and leaves every default range unchecked.
    std::vector<size_t> OriginalOrder, OriginalEliminated;
    for (size_t Index = 0; Index < Seq.Conds.size(); ++Index)
      OriginalOrder.push_back(Index);
    for (size_t Index = Seq.Conds.size(); Index < Infos.size(); ++Index)
      OriginalEliminated.push_back(Index);
    double OriginalCost =
        orderingCost(Infos, OriginalOrder, OriginalEliminated);
    bool Regressed = Decision.Cost > OriginalCost + 1e-9;
    if (Opts.Fault == FaultKind::PretendCostRegression)
      Regressed = !Regressed;
    if (Regressed) {
      Report.Kind = ViolationKind::CostRegression;
      Report.Detail = formatString(
          "sequence %u in %s: selected cost %.6f > original %.6f "
          "(%zu ranges, %llu executions)",
          Seq.Id, Seq.F->getName().c_str(), Decision.Cost, OriginalCost,
          Infos.size(), (unsigned long long)Prof->totalExecutions());
      return Report;
    }
  }
  return Report;
}

} // namespace

OracleReport bropt::runOracle(std::string_view Source,
                              const std::vector<std::string> &TrainingInputs,
                              const std::vector<std::string> &HeldOutInputs,
                              const OracleOptions &Opts) {
  OracleReport Report;

  // Invariant 3: verify after every pass of every compilation below.
  std::string VerifierErrors;
  PassObserverScope Observer([&VerifierErrors](const char *Pass,
                                               Function &F) {
    std::string Errors;
    if (!verifyFunction(F, &Errors))
      VerifierErrors += formatString("after %s in %s: %s; ", Pass,
                                     F.getName().c_str(), Errors.c_str());
  });

  CompileResult Base = compileBaseline(Source, Opts.Compile);
  if (!Base.ok()) {
    Report.Kind = ViolationKind::CompileError;
    Report.Detail = "baseline compile failed: " + Base.Error;
    return Report;
  }

  std::vector<std::string_view> Training(TrainingInputs.begin(),
                                         TrainingInputs.end());
  CompileResult Optimized =
      compileWithReordering(Source, Training, Opts.Compile);
  if (!Optimized.ok()) {
    Report.Kind = ViolationKind::CompileError;
    Report.Detail = "reordering compile failed: " + Optimized.Error;
    return Report;
  }

  // Invariant 6: the Set IV build (optimal comparison trees + ext-TSP
  // layout).  Compiled under the observer too, so its passes get verifier
  // coverage; its held-out runs join the loop below.
  CompileResult SetIV;
  if (Opts.CheckLoweringOptimal) {
    CompileOptions IVOpts = Opts.Compile;
    IVOpts.HeuristicSet = SwitchHeuristicSet::SetIV;
    SetIV = compileWithReordering(Source, Training, IVOpts);
    if (!SetIV.ok()) {
      Report.Kind = ViolationKind::CompileError;
      Report.Detail = "Set IV compile failed: " + SetIV.Error;
      return Report;
    }
    bool Suboptimal =
        SetIV.Stats.ChosenModelCost > SetIV.Stats.ChainModelCost + 1e-9;
    if (Opts.Fault == FaultKind::PretendLoweringRegression)
      Suboptimal = !Suboptimal;
    if (Suboptimal) {
      Report.Kind = ViolationKind::LoweringSuboptimal;
      Report.Detail = formatString(
          "Set IV emitted shapes cost %.6f > chain cost %.6f across %u "
          "reordered sequence(s) (%u trees)",
          SetIV.Stats.ChosenModelCost, SetIV.Stats.ChainModelCost,
          SetIV.Stats.Reordered, SetIV.Stats.OptimalTrees);
      return Report;
    }
  }

  // The misprediction-aware half of invariant 6: the same Set IV build
  // repriced for the paper's predictor (docs/PREDICT.md).  Awareness may
  // only change which shapes win, never what the program computes, and
  // under its own (aware) pricing the chosen shape still never loses to
  // the chain.  Its held-out runs join the loop below across the
  // interpreter tiers.
  CompileResult AwareIV;
  if (Opts.CheckLoweringOptimal) {
    CompileOptions AwareOpts = Opts.Compile;
    AwareOpts.HeuristicSet = SwitchHeuristicSet::SetIV;
    AwareOpts.Predictor = "paper";
    AwareIV = compileWithReordering(Source, Training, AwareOpts);
    if (!AwareIV.ok()) {
      Report.Kind = ViolationKind::CompileError;
      Report.Detail = "aware Set IV compile failed: " + AwareIV.Error;
      return Report;
    }
    if (AwareIV.Stats.ChosenModelCost >
        AwareIV.Stats.ChainModelCost + 1e-9) {
      Report.Kind = ViolationKind::LoweringSuboptimal;
      Report.Detail = formatString(
          "aware Set IV emitted shapes cost %.6f > chain cost %.6f "
          "across %u reordered sequence(s) (%u trees)",
          AwareIV.Stats.ChosenModelCost, AwareIV.Stats.ChainModelCost,
          AwareIV.Stats.Reordered, AwareIV.Stats.OptimalTrees);
      return Report;
    }
  }

  if (!VerifierErrors.empty()) {
    Report.Kind = ViolationKind::VerifierFailure;
    Report.Detail = VerifierErrors;
    return Report;
  }

  if (Opts.Fault == FaultKind::CorruptReorderedBlock)
    corruptReorderedBlock(*Optimized.M);

  Report = checkCosts(Source, Training, Opts);
  if (!Report.ok())
    return Report;

  // Fused programs are decode-time products; build each module's once and
  // reuse it across every held-out input, the way an artifact's fused slot
  // (driver/Artifact.h) is.  The baseline module fuses against the reordering compile's
  // pass-1 profile so profile-guided arm ordering gets differential
  // coverage, not just the unprofiled fusions.
  ProfileDB FuseProfile;
  DecodedModule BaseFused, OptFused, AwareFused;
  if (Opts.CheckFusedEngine) {
    FuseOptions BaseFuseOpts;
    if (!Optimized.ProfileText.empty() &&
        FuseProfile.deserialize(Optimized.ProfileText))
      BaseFuseOpts.Profile = &FuseProfile;
    BaseFused = decodeFused(*Base.M, BaseFuseOpts);
    OptFused = decodeFused(*Optimized.M);
    if (AwareIV.M)
      AwareFused = decodeFused(*AwareIV.M);
  }

  // Adaptive controllers live across the whole held-out set: the first
  // inputs drive tier-up and mid-run hot-swaps, later inputs re-enter an
  // already-tiered controller.  Synchronous mode keeps swap timing
  // deterministic.  Built after fault injection on purpose — a corrupted
  // module must still execute identically across engines.
  std::unique_ptr<AdaptiveController> BaseAdaptive, OptAdaptive;
  if (Opts.CheckAdaptiveEngine) {
    RuntimeOptions RO;
    RO.HotThreshold = Opts.AdaptiveHotThreshold;
    RO.SampleInterval = Opts.AdaptiveSampleInterval;
    RO.DriftWindow = Opts.AdaptiveDriftWindow;
    RO.MinSamplesBetweenRecompiles = 64;
    RO.Background = false;
    BaseAdaptive = std::make_unique<AdaptiveController>(*Base.M, RO);
    OptAdaptive = std::make_unique<AdaptiveController>(*Optimized.M, RO);
  }

  // The full tier ladder (tier-2 JIT), persisted across the held-out set
  // the same way: early inputs drive fused tier-up and then native
  // promotion, later inputs re-enter through beginRun() and execute the
  // hot-swapped body.  Under HangNativeCompile the controllers own a
  // private runner whose "compiler" never returns; the compile deadline
  // must cancel it and every run must stay on the fused tier, observably
  // clean — that inverted expectation is what proves the teardown path.
  std::unique_ptr<NativeRunner> HangRunner;
  std::unique_ptr<AdaptiveController> BaseAN, OptAN;
  const bool HangFault = Opts.Fault == FaultKind::HangNativeCompile;
  if (Opts.CheckAdaptiveNativeEngine &&
      (HangFault || NativeRunner::shared().available())) {
    RuntimeOptions RO;
    RO.HotThreshold = Opts.AdaptiveHotThreshold;
    RO.SampleInterval = Opts.AdaptiveSampleInterval;
    RO.DriftWindow = Opts.AdaptiveDriftWindow;
    RO.MinSamplesBetweenRecompiles = 64;
    RO.Background = false;
    RO.NativeTier = true;
    RO.NativeThreshold = Opts.AdaptiveHotThreshold * 2;
    RO.MinSamplesBetweenNativeBuilds = 64;
    RO.NativeRecheckMin = 2;
    RO.NativeRecheckMax = 8;
    if (HangFault) {
      // discoverCompiler() reads $BROPT_CC when the runner is built:
      // point a private runner at a command that never finishes, then
      // restore the environment before anything else can observe it.
      // This runner must never be probed — available() compiles a test
      // TU with no deadline and would hang; only the controllers'
      // NativeCompileTimeout ever touches it.
      const char *SavedCC = getenv("BROPT_CC");
      std::string Saved = SavedCC ? SavedCC : "";
      setenv("BROPT_CC", "sleep 600 #", 1);
      HangRunner = std::make_unique<NativeRunner>();
      if (SavedCC)
        setenv("BROPT_CC", Saved.c_str(), 1);
      else
        unsetenv("BROPT_CC");
      RO.Runner = HangRunner.get();
      RO.NativeCompileTimeout = 0.2;
    }
    BaseAN = std::make_unique<AdaptiveController>(*Base.M, RO);
    OptAN = std::make_unique<AdaptiveController>(*Optimized.M, RO);
  }

  // Native shared objects, also built once per module and reused across
  // the held-out set (NativeRunner's source-hash cache makes repeats of
  // the same module cheap across oracle runs too).  Like the adaptive
  // controllers these are built after fault injection: a corrupted module
  // must compile to native code that misbehaves *identically*.  A module
  // whose emitted C the host compiler rejects is an emitter bug.
  std::shared_ptr<const NativeProgram> BaseNative, OptNative;
  if (Opts.CheckNativeEngine && NativeRunner::shared().available()) {
    std::string NativeError;
    BaseNative = NativeRunner::shared().prepare(*Base.M, &NativeError);
    if (!BaseNative) {
      Report.Kind = ViolationKind::EngineMismatch;
      Report.Detail = "native compile of baseline module failed: " +
                      NativeError;
      return Report;
    }
    OptNative = NativeRunner::shared().prepare(*Optimized.M, &NativeError);
    if (!OptNative) {
      Report.Kind = ViolationKind::EngineMismatch;
      Report.Detail = "native compile of reordered module failed: " +
                      NativeError;
      return Report;
    }
  }

  // The service engine: replay the program through the shared in-process
  // broptd and hold every Execute response to bit-identical agreement
  // with a direct run.  The wire protocol's CompileSpec carries fewer
  // knobs than OracleOptions::Compile (it encodes the heuristic set,
  // common-successor, and method-selection flags only), so the daemon's
  // builds are compared against *reference modules compiled under the
  // daemon's own option mapping* — not against Base/Optimized — making
  // counter agreement meaningful even when the campaign varied knobs the
  // protocol does not encode.  Skipped under CorruptReorderedBlock: that
  // fault corrupts the oracle's in-memory module, while the daemon
  // compiles its own pristine one from source.
  InProcessService *Daemon = nullptr;
  std::unique_ptr<ServiceClient> SvcClient;
  CompileSpec BaseSpec, OptSpec;
  CompileResult SvcBaseRef, SvcOptRef;
  uint64_t DropsBefore = 0;
  const bool DropFault = Opts.Fault == FaultKind::DropConnection;
  if (Opts.CheckServiceEngine &&
      Opts.Fault != FaultKind::CorruptReorderedBlock) {
    Daemon = &sharedOracleService();
    if (!Daemon->ok()) {
      Report.Kind = ViolationKind::EngineMismatch;
      Report.Detail =
          "service: in-process daemon failed to start: " + Daemon->error();
      return Report;
    }
    DropsBefore = Daemon->service().stats().DroppedConnections;
    std::string ConnectError;
    SvcClient = Daemon->connect(&ConnectError);
    if (!SvcClient) {
      Report.Kind = ViolationKind::EngineMismatch;
      Report.Detail = "service: connect failed: " + ConnectError;
      return Report;
    }
    BaseSpec.Source = std::string(Source);
    BaseSpec.HeuristicSet =
        (uint8_t)std::min<unsigned>((unsigned)Opts.Compile.HeuristicSet, 3);
    BaseSpec.CommonSuccessor = Opts.Compile.EnableCommonSuccessorReordering;
    BaseSpec.MethodSelection = Opts.Compile.Reorder.EnableMethodSelection;
    OptSpec = BaseSpec;
    OptSpec.TrainingInputs = TrainingInputs;
    CompileOptions SvcOpts; // mirror of the daemon's compileOptionsFor()
    SvcOpts.HeuristicSet = (SwitchHeuristicSet)BaseSpec.HeuristicSet;
    SvcOpts.EnableCommonSuccessorReordering = BaseSpec.CommonSuccessor;
    SvcOpts.Reorder.EnableMethodSelection = BaseSpec.MethodSelection;
    SvcBaseRef = compileBaseline(Source, SvcOpts);
    // The trained reference mirrors the daemon's buildArtifact() exactly:
    // pass 1 over the training inputs, then compileWithProfile — NOT
    // compileWithReordering, whose extra fresh-measurement layout pass
    // would produce a differently-laid-out (and differently-counting)
    // module than the daemon serves.
    if (Training.empty()) {
      SvcOptRef = compileBaseline(Source, SvcOpts);
    } else {
      Pass1Result SvcP1 = runPass1(Source, Training, SvcOpts);
      if (SvcP1.ok()) {
        ProfileDB SvcProfile;
        SvcProfile.merge(SvcP1.Profile);
        SvcOptRef = compileWithProfile(Source, SvcProfile, SvcOpts);
      } else {
        SvcOptRef.Error = SvcP1.Error;
      }
    }
    if (!SvcBaseRef.ok() || !SvcOptRef.ok()) {
      Report.Kind = ViolationKind::EngineMismatch;
      Report.Detail = "service reference compile failed: " +
                      (SvcBaseRef.ok() ? SvcOptRef.Error : SvcBaseRef.Error);
      return Report;
    }
  }

  for (size_t InputIndex = 0; InputIndex < HeldOutInputs.size();
       ++InputIndex) {
    const std::string &Input = HeldOutInputs[InputIndex];
    RunResult BaseTree = runOne(*Base.M, Interpreter::Mode::Tree, Input,
                                Opts.InstructionLimit, BaselineScheme);
    // Adaptive with no controller is tier 0 alone: the unfused stream on
    // the threaded loop.  Checked on every program, whatever the options.
    RunResult BaseUnfused =
        runOne(*Base.M, Interpreter::Mode::Adaptive, Input,
               Opts.InstructionLimit, BaselineScheme);
    RunResult OptTree = runOne(*Optimized.M, Interpreter::Mode::Tree, Input,
                               Opts.InstructionLimit, ReorderedScheme);
    RunResult OptUnfused =
        runOne(*Optimized.M, Interpreter::Mode::Adaptive, Input,
               Opts.InstructionLimit, ReorderedScheme);

    std::string Detail;
    if (!enginesAgree(BaseTree, BaseUnfused, "unfused", Detail)) {
      Report.Kind = ViolationKind::EngineMismatch;
      Report.Detail = formatString("baseline module, held-out input %zu: ",
                                   InputIndex) +
                      Detail;
      return Report;
    }
    if (!enginesAgree(OptTree, OptUnfused, "unfused", Detail)) {
      Report.Kind = ViolationKind::EngineMismatch;
      Report.Detail = formatString("reordered module, held-out input %zu: ",
                                   InputIndex) +
                      Detail;
      return Report;
    }
    if (Opts.CheckFusedEngine) {
      RunResult BaseFusedRun = runFused(*Base.M, BaseFused, Input,
                                        Opts.InstructionLimit, BaselineScheme);
      RunResult OptFusedRun =
          runFused(*Optimized.M, OptFused, Input, Opts.InstructionLimit,
                   ReorderedScheme);
      if (!enginesAgree(BaseTree, BaseFusedRun, "fused", Detail)) {
        Report.Kind = ViolationKind::EngineMismatch;
        Report.Detail = formatString("baseline module, held-out input %zu: ",
                                     InputIndex) +
                        Detail;
        return Report;
      }
      if (!enginesAgree(OptTree, OptFusedRun, "fused", Detail)) {
        Report.Kind = ViolationKind::EngineMismatch;
        Report.Detail = formatString("reordered module, held-out input %zu: ",
                                     InputIndex) +
                        Detail;
        return Report;
      }
    }
    if (Opts.CheckAdaptiveEngine) {
      RunResult BaseAdaptiveRun =
          runAdaptive(*Base.M, *BaseAdaptive, Input, Opts.InstructionLimit,
                      BaselineScheme);
      RunResult OptAdaptiveRun =
          runAdaptive(*Optimized.M, *OptAdaptive, Input,
                      Opts.InstructionLimit, ReorderedScheme);
      if (!enginesAgree(BaseTree, BaseAdaptiveRun, "adaptive", Detail)) {
        Report.Kind = ViolationKind::EngineMismatch;
        Report.Detail = formatString("baseline module, held-out input %zu: ",
                                     InputIndex) +
                        Detail;
        return Report;
      }
      if (!enginesAgree(OptTree, OptAdaptiveRun, "adaptive", Detail)) {
        Report.Kind = ViolationKind::EngineMismatch;
        Report.Detail = formatString("reordered module, held-out input %zu: ",
                                     InputIndex) +
                        Detail;
        return Report;
      }
    }
    if (BaseNative) {
      RunResult BaseNativeRun =
          BaseNative->run(Input, {}, Opts.InstructionLimit);
      RunResult OptNativeRun =
          OptNative->run(Input, {}, Opts.InstructionLimit);
      if (!observablesAgree(BaseTree, BaseNativeRun, "native", Detail)) {
        Report.Kind = ViolationKind::EngineMismatch;
        Report.Detail = formatString("baseline module, held-out input %zu: ",
                                     InputIndex) +
                        Detail;
        return Report;
      }
      if (!observablesAgree(OptTree, OptNativeRun, "native", Detail)) {
        Report.Kind = ViolationKind::EngineMismatch;
        Report.Detail = formatString("reordered module, held-out input %zu: ",
                                     InputIndex) +
                        Detail;
        return Report;
      }
    }
    if (BaseAN) {
      RunResult BaseANRun =
          runAdaptive(*Base.M, *BaseAN, Input, Opts.InstructionLimit);
      RunResult OptANRun =
          runAdaptive(*Optimized.M, *OptAN, Input, Opts.InstructionLimit);
      if (!observablesAgree(BaseTree, BaseANRun, "tier-ladder", Detail)) {
        Report.Kind = ViolationKind::EngineMismatch;
        Report.Detail = formatString("baseline module, held-out input %zu: ",
                                     InputIndex) +
                        Detail;
        return Report;
      }
      if (!observablesAgree(OptTree, OptANRun, "tier-ladder", Detail)) {
        Report.Kind = ViolationKind::EngineMismatch;
        Report.Detail = formatString("reordered module, held-out input %zu: ",
                                     InputIndex) +
                        Detail;
        return Report;
      }
    }
    if (!behaviorsAgree(BaseTree, OptTree, Detail)) {
      Report.Kind = ViolationKind::BehaviorMismatch;
      Report.Detail =
          formatString("held-out input %zu: ", InputIndex) + Detail;
      return Report;
    }
    if (SetIV.M) {
      RunResult IVTree = runOne(*SetIV.M, Interpreter::Mode::Tree, Input,
                                Opts.InstructionLimit);
      if (!behaviorsAgree(BaseTree, IVTree, Detail)) {
        Report.Kind = ViolationKind::LoweringSuboptimal;
        Report.Detail = formatString("Set IV module, held-out input %zu: ",
                                     InputIndex) +
                        Detail;
        return Report;
      }
    }
    if (AwareIV.M) {
      // Aware selection: identical observables to the baseline, and the
      // engine tiers must agree on the aware module exactly (counters
      // included) — the repriced orderings are just another module to
      // them.  Its runs attach the predictor it is priced for.
      RunResult AwareTree = runOne(*AwareIV.M, Interpreter::Mode::Tree,
                                   Input, Opts.InstructionLimit, "paper");
      if (!behaviorsAgree(BaseTree, AwareTree, Detail)) {
        Report.Kind = ViolationKind::LoweringSuboptimal;
        Report.Detail =
            formatString("aware Set IV module, held-out input %zu: ",
                         InputIndex) +
            Detail;
        return Report;
      }
      RunResult AwareUnfused =
          runOne(*AwareIV.M, Interpreter::Mode::Adaptive, Input,
                 Opts.InstructionLimit, "paper");
      if (!enginesAgree(AwareTree, AwareUnfused, "unfused", Detail)) {
        Report.Kind = ViolationKind::EngineMismatch;
        Report.Detail =
            formatString("aware Set IV module, held-out input %zu: ",
                         InputIndex) +
            Detail;
        return Report;
      }
      if (Opts.CheckFusedEngine) {
        RunResult AwareFusedRun =
            runFused(*AwareIV.M, AwareFused, Input, Opts.InstructionLimit,
                     "paper");
        if (!enginesAgree(AwareTree, AwareFusedRun, "fused", Detail)) {
          Report.Kind = ViolationKind::EngineMismatch;
          Report.Detail =
              formatString("aware Set IV module, held-out input %zu: ",
                           InputIndex) +
              Detail;
          return Report;
        }
      }
    }
    if (SvcClient) {
      ServiceRequest Request;
      Request.Kind = RequestKind::Execute;
      Request.Spec = BaseSpec;
      Request.Input = Input;
      Request.Mode = (uint8_t)Interpreter::Mode::Fused;
      Request.InstructionLimit = Opts.InstructionLimit;
      if (DropFault)
        dropConnectionsMidRequest(*Daemon, Request);
      struct WireCheck {
        const CompileSpec *Spec;
        const Module *Ref;
        const char *Label;
      } Checks[] = {{&BaseSpec, SvcBaseRef.M.get(), "baseline"},
                    {&OptSpec, SvcOptRef.M.get(), "reordered"}};
      for (const WireCheck &Check : Checks) {
        Request.Spec = *Check.Spec;
        RunResult Ref = runOne(*Check.Ref, Interpreter::Mode::Tree, Input,
                               Opts.InstructionLimit);
        ServiceResponse Response;
        std::string TransportError;
        if (!SvcClient->roundTripRetrying(Request, Response,
                                          &TransportError)) {
          Report.Kind = ViolationKind::EngineMismatch;
          Report.Detail =
              formatString("service %s spec, held-out input %zu: "
                           "transport failed: ",
                           Check.Label, InputIndex) +
              (TransportError.empty() ? std::string("rejected")
                                      : TransportError);
          return Report;
        }
        if (!Response.ok()) {
          Report.Kind = ViolationKind::EngineMismatch;
          Report.Detail = formatString("service %s spec, held-out input "
                                       "%zu: request failed: ",
                                       Check.Label, InputIndex) +
                          Response.Error;
          return Report;
        }
        if (!serviceAgrees(Ref, Response, Detail)) {
          Report.Kind = ViolationKind::EngineMismatch;
          Report.Detail = formatString("service %s spec, held-out input "
                                       "%zu: ",
                                       Check.Label, InputIndex) +
                          Detail;
          return Report;
        }
      }
    }
  }

  // The saboteur's mid-frame EOFs are recorded on the daemon's reader
  // threads; give the last one a moment to land before snapshotting.
  if (Daemon) {
    uint64_t Drops = Daemon->service().stats().DroppedConnections;
    for (int Spin = 0; DropFault && Drops <= DropsBefore && Spin < 200;
         ++Spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      Drops = Daemon->service().stats().DroppedConnections;
    }
    Report.DroppedConnections = Drops - DropsBefore;
  }

  // Sync mode means nothing is still in flight here; the stats are final.
  if (BaseAN)
    Report.NativeCompileCancellations =
        BaseAN->stats().NativeCompilesCancelled +
        OptAN->stats().NativeCompilesCancelled;

  // Invariant 5: what the adaptive runtime learned must survive disk.  The
  // exported profile, reloaded from either format and replayed through the
  // offline pass-2 selection, has to reproduce the deployed orderings, and
  // an AOT build from it has to behave like the live run did.
  if (Opts.CheckAdaptiveEngine && Opts.CheckProfileReplay &&
      BaseAdaptive->tiered()) {
    ProfileDB Learned;
    BaseAdaptive->exportProfile(Learned);
    ProfileDB FromText, FromBinary;
    std::string ParseError;
    if (!FromText.deserialize(Learned.serializeText(), &ParseError) ||
        !FromBinary.deserialize(Learned.serializeBinary(), &ParseError)) {
      Report.Kind = ViolationKind::ProfileReplayMismatch;
      Report.Detail = "exported profile failed to re-load: " + ParseError;
      return Report;
    }
    const std::string Live = BaseAdaptive->deployedOrderingSignature();
    const std::string TextSig = orderingSignaturesFromProfile(*Base.M,
                                                              FromText);
    const std::string BinarySig = orderingSignaturesFromProfile(*Base.M,
                                                                FromBinary);
    if (TextSig != Live || BinarySig != Live) {
      Report.Kind = ViolationKind::ProfileReplayMismatch;
      Report.Detail = "replayed orderings diverge from live tier-up: live '" +
                      Live + "', text replay '" + TextSig +
                      "', binary replay '" + BinarySig + "'";
      return Report;
    }

    CompileResult Replayed =
        compileWithProfile(Source, FromText, Opts.Compile);
    if (!Replayed.ok()) {
      Report.Kind = ViolationKind::ProfileReplayMismatch;
      Report.Detail = "recompile from saved profile failed: " +
                      Replayed.Error;
      return Report;
    }
    for (size_t InputIndex = 0; InputIndex < HeldOutInputs.size();
         ++InputIndex) {
      const std::string &Input = HeldOutInputs[InputIndex];
      RunResult Ref = runOne(*Base.M, Interpreter::Mode::Tree, Input,
                             Opts.InstructionLimit);
      RunResult Rep = runOne(*Replayed.M, Interpreter::Mode::Tree, Input,
                             Opts.InstructionLimit);
      std::string Detail;
      if (!behaviorsAgree(Ref, Rep, Detail)) {
        Report.Kind = ViolationKind::ProfileReplayMismatch;
        Report.Detail = formatString("profile-replayed build, held-out "
                                     "input %zu: ",
                                     InputIndex) +
                        Detail;
        return Report;
      }
    }
  }
  return Report;
}
