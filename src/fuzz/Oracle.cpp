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
#include "service/Service.h"
#include "sim/Fuse.h"
#include "sim/Interpreter.h"
#include "support/Strings.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <functional>
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

const char *bropt::faultKindName(FaultKind Kind) {
  switch (Kind) {
  case FaultKind::None:
    return "none";
  case FaultKind::CorruptReorderedBlock:
    return "corrupt-reorder";
  case FaultKind::PretendCostRegression:
    return "pretend-cost";
  case FaultKind::PretendLoweringRegression:
    return "pretend-lowering";
  case FaultKind::HangNativeCompile:
    return "hang-native-compile";
  case FaultKind::DropConnection:
    return "drop-connection";
  }
  return "unknown";
}

namespace {

/// The predictors invariant 2 attaches, a fresh one per run: the paper's
/// (m,n) table on the baseline module and TAGE on the reordered one, so
/// every campaign drives both of the threaded loop's predictor feeds (the
/// table stepped in loop locals, any other scheme through the virtual
/// Predictor::observe).
constexpr const char *BaselineScheme = "paper";
constexpr const char *ReorderedScheme = "tage";

/// Runs \p M under \p Mode through the engine state \p Req carries, with
/// a fresh \p Scheme predictor attached unless \p Scheme is null.
RunResult runEngine(const Module &M, Interpreter::Mode Mode, ExecRequest Req,
                    const char *Scheme, std::string_view Input,
                    uint64_t Limit) {
  std::unique_ptr<Predictor> P = Scheme ? makePredictor(Scheme) : nullptr;
  Req.Input = Input;
  Req.InstructionLimit = Limit;
  Req.AttachedPredictor = P.get();
  return executeModule(M, Mode, Req);
}

/// The bar an engine row's run is held to against the tree walker's.
enum class Bar : uint8_t {
  /// Observables, every DynamicCounts field, and the attached predictor's
  /// statistics.
  Exact,
  /// Trap, exit value and output only: native code collects no dynamic
  /// counters (that is the point of compiling it).
  Observables,
  /// Observables plus the two dynamic counters the wire protocol carries.
  Wire,
};

/// One engine row of invariant 2: how the engine runs one held-out input
/// under an instruction limit, and the bar its run is held to.
struct EngineRow {
  const char *Engine;
  Bar HeldTo;
  std::function<RunResult(std::string_view Input, uint64_t Limit)> Run;
};

/// One module under test.  Its tree-walker run of each held-out input is
/// the reference every one of its engine rows is compared with.  A
/// subject with a Behavior kind also has that run compared with the
/// baseline's (invariants 1, 5 and 6), after every engine row of the
/// input has run.
struct Subject {
  Subject(const char *Name, const Module &M, const char *Scheme,
          ViolationKind Behavior = ViolationKind::None)
      : Name(Name), M(M), Scheme(Scheme), Behavior(Behavior) {}

  /// A row run through executeModule under \p Mode with the engine state
  /// \p Slot carries.  Exact rows attach a fresh predictor of the
  /// subject's scheme, as its tree run does.
  void addRow(const char *Engine, Bar HeldTo, Interpreter::Mode Mode,
              ExecRequest Slot) {
    const char *RowScheme = HeldTo == Bar::Exact ? Scheme : nullptr;
    Rows.push_back(
        {Engine, HeldTo, [=, this](std::string_view Input, uint64_t Limit) {
           return runEngine(M, Mode, Slot, RowScheme, Input, Limit);
         }});
  }

  const char *Name;
  const Module &M;
  /// Predictor attached to the tree run and the exact rows; null: none.
  const char *Scheme;
  ViolationKind Behavior;
  std::vector<EngineRow> Rows;
  /// Engine state the rows run through, built once and reused across the
  /// held-out set, the way an artifact's slots are (driver/Artifact.h).
  DecodedModule Fused;
  std::unique_ptr<AdaptiveController> Adaptive, Ladder;
  std::shared_ptr<const NativeProgram> Native;
};

/// Rows point into their subject, so a table never moves its subjects.
using Table = std::deque<Subject>;

std::string describeRun(const RunResult &R) {
  if (R.Trapped)
    return "trap: " + R.TrapReason;
  return formatString("exit %lld, %zu output bytes", (long long)R.ExitValue,
                      R.Output.size());
}

/// Invariant 2: \p Other agrees with the tree walker's run \p Tree up to
/// \p Row's bar.
bool engineAgrees(const RunResult &Tree, const RunResult &Other,
                  const EngineRow &Row, std::string &Detail) {
  if (Tree.Trapped != Other.Trapped ||
      Tree.TrapReason != Other.TrapReason ||
      Tree.ExitValue != Other.ExitValue || Tree.Output != Other.Output) {
    Detail = "tree: " + describeRun(Tree) + "; " + Row.Engine + ": " +
             describeRun(Other);
    return false;
  }
  if (Row.HeldTo == Bar::Observables)
    return true;
  bool CountsAgree =
      Row.HeldTo == Bar::Exact
          ? Tree.Counts == Other.Counts
          : Tree.Counts.TotalInsts == Other.Counts.TotalInsts &&
                Tree.Counts.CondBranches == Other.Counts.CondBranches;
  if (!CountsAgree) {
    Detail = formatString(
        "dynamic counters diverge: tree %llu insts / %llu branches, "
        "%s %llu insts / %llu branches",
        (unsigned long long)Tree.Counts.TotalInsts,
        (unsigned long long)Tree.Counts.CondBranches, Row.Engine,
        (unsigned long long)Other.Counts.TotalInsts,
        (unsigned long long)Other.Counts.CondBranches);
    return false;
  }
  if (Row.HeldTo == Bar::Exact && !(Tree.Prediction == Other.Prediction)) {
    Detail = formatString(
        "predictor statistics diverge: tree %llu branches / %llu "
        "mispredictions, %s %llu branches / %llu mispredictions",
        (unsigned long long)Tree.Prediction.Branches,
        (unsigned long long)Tree.Prediction.Mispredictions, Row.Engine,
        (unsigned long long)Other.Prediction.Branches,
        (unsigned long long)Other.Prediction.Mispredictions);
    return false;
  }
  return true;
}

/// Invariants 1, 5 and 6: same input -> same observable behavior.
/// Counters are allowed — expected — to differ; that is the optimization
/// working.
bool behaviorsAgree(const RunResult &Base, const RunResult &Other,
                    const char *Name, std::string &Detail) {
  if (Base.Trapped != Other.Trapped ||
      (Base.Trapped && Base.TrapReason != Other.TrapReason) ||
      (!Base.Trapped &&
       (Base.ExitValue != Other.ExitValue || Base.Output != Other.Output))) {
    Detail = "baseline: " + describeRun(Base) + "; " + Name + ": " +
             describeRun(Other);
    return false;
  }
  return true;
}

/// Runs every held-out input through \p Subjects: each one's tree walker
/// and engine rows, then each one's behavior against the first subject,
/// the baseline.  Records the first violation in \p Report, which it
/// leaves untouched otherwise.  \returns false on a violation.
bool checkTable(const Table &Subjects, const std::vector<std::string> &Inputs,
                uint64_t Limit, OracleReport &Report) {
  std::vector<RunResult> Trees(Subjects.size());
  std::string Detail;
  for (size_t InputIndex = 0; InputIndex < Inputs.size(); ++InputIndex) {
    const std::string &Input = Inputs[InputIndex];
    auto fail = [&](ViolationKind Kind, const Subject &S) {
      Report.Kind = Kind;
      Report.Detail = formatString("%s module, held-out input %zu: ",
                                   S.Name, InputIndex) +
                      Detail;
      return false;
    };
    for (size_t Index = 0; Index < Subjects.size(); ++Index) {
      const Subject &S = Subjects[Index];
      Trees[Index] = runEngine(S.M, Interpreter::Mode::Tree, {}, S.Scheme,
                               Input, Limit);
      for (const EngineRow &Row : S.Rows)
        if (!engineAgrees(Trees[Index], Row.Run(Input, Limit), Row, Detail))
          return fail(ViolationKind::EngineMismatch, S);
    }
    for (size_t Index = 1; Index < Subjects.size(); ++Index) {
      const Subject &S = Subjects[Index];
      if (S.Behavior != ViolationKind::None &&
          !behaviorsAgree(Trees[0], Trees[Index], S.Name, Detail))
        return fail(S.Behavior, S);
    }
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

/// Executes \p Request over the wire, as a run of the daemon's fused
/// engine.  A failed round trip or request comes back as a trap no engine
/// raises, so the service row reports the daemon's error.
RunResult runOverWire(ServiceClient &Client, const ServiceRequest &Request) {
  ServiceResponse Response;
  std::string TransportError;
  RunResult R;
  if (!Client.roundTripRetrying(Request, Response, &TransportError)) {
    R.Trapped = true;
    R.TrapReason = "transport failed: " + (TransportError.empty()
                                               ? std::string("rejected")
                                               : TransportError);
  } else if (!Response.ok()) {
    R.Trapped = true;
    R.TrapReason = "request failed: " + Response.Error;
  } else {
    R.Trapped = Response.Trapped;
    R.TrapReason = Response.TrapReason;
    R.ExitValue = Response.ExitValue;
    R.Output = Response.Output;
    R.Counts.TotalInsts = Response.TotalInsts;
    R.Counts.CondBranches = Response.CondBranches;
  }
  return R;
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
  if (Opts.Checks.LoweringOptimal) {
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
  if (Opts.Checks.LoweringOptimal) {
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

  // The adaptive and tier-ladder rows run through persistent controllers:
  // the first inputs drive tier-up, mid-run hot-swaps and native
  // promotion, later inputs re-enter an already-tiered controller.
  // Under HangNativeCompile the ladder controllers own a private runner
  // whose "compiler" never returns; the compile deadline must cancel it
  // and every run must stay on the fused tier, observably clean — that
  // inverted expectation is what proves the teardown path.
  RuntimeOptions RO;
  RO.HotThreshold = Opts.AdaptiveHotThreshold;
  RO.SampleInterval = Opts.AdaptiveSampleInterval;
  RO.DriftWindow = Opts.AdaptiveDriftWindow;
  RO.MinSamplesBetweenRecompiles = 64;
  RuntimeOptions LadderRO = RO;
  LadderRO.NativeTier = true;
  LadderRO.NativeThreshold = Opts.AdaptiveHotThreshold * 2;
  LadderRO.MinSamplesBetweenNativeBuilds = 64;
  LadderRO.NativeRecheckMin = 2;
  LadderRO.NativeRecheckMax = 8;
  std::unique_ptr<NativeRunner> HangRunner;
  const bool HangFault = Opts.Fault == FaultKind::HangNativeCompile;
  if (HangFault) {
    // discoverCompiler() reads $BROPT_CC when the runner is built: point
    // a private runner at a command that never finishes, then restore the
    // environment before anything else can observe it.  This runner must
    // never be probed — available() compiles a test TU with no deadline
    // and would hang; only the controllers' NativeCompileTimeout ever
    // touches it.
    const char *SavedCC = getenv("BROPT_CC");
    std::string Saved = SavedCC ? SavedCC : "";
    setenv("BROPT_CC", "sleep 600 #", 1);
    HangRunner = std::make_unique<NativeRunner>();
    if (SavedCC)
      setenv("BROPT_CC", Saved.c_str(), 1);
    else
      unsetenv("BROPT_CC");
    LadderRO.Runner = HangRunner.get();
    LadderRO.NativeCompileTimeout = 0.2;
  }
  const bool NativeRow =
      Opts.Checks.Native && NativeRunner::shared().available();
  const bool LadderRow =
      HangFault ||
      (Opts.Checks.AdaptiveNative && NativeRunner::shared().available());

  // The service rows replay the program through the shared in-process
  // broptd.  The wire protocol's CompileSpec carries fewer knobs than
  // OracleOptions::Compile, so the daemon's builds are compared against
  // reference modules compiled under the daemon's own option mapping —
  // not against Base/Optimized — making counter agreement meaningful
  // even when the campaign varied knobs the protocol does not encode.
  // Skipped under CorruptReorderedBlock: that fault corrupts the oracle's
  // in-memory module, while the daemon compiles its own pristine one.
  InProcessService *Daemon = nullptr;
  std::unique_ptr<ServiceClient> SvcClient;
  CompileSpec BaseSpec, OptSpec;
  CompileResult SvcBaseRef, SvcOptRef;
  uint64_t DropsBefore = 0;
  const bool DropFault = Opts.Fault == FaultKind::DropConnection;
  if ((Opts.Checks.Service || DropFault) &&
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
    const CompileOptions SvcOpts = compileOptionsFor(BaseSpec);
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

  // Invariant 2's table, built after fault injection on purpose: a
  // corrupted module must still run identically on every engine.  The
  // behavior rows follow the baseline in the order they are checked.
  Table Subjects;
  Subject &Baseline = Subjects.emplace_back("baseline", *Base.M,
                                            BaselineScheme);
  Subject &Reordered =
      Subjects.emplace_back("reordered", *Optimized.M, ReorderedScheme,
                            ViolationKind::BehaviorMismatch);
  if (SetIV.M)
    Subjects.emplace_back("Set IV", *SetIV.M, nullptr,
                          ViolationKind::LoweringSuboptimal);
  // The aware module is just another module to the interpreter rows; its
  // runs attach the predictor it is priced for.
  Subject *Aware = AwareIV.M ? &Subjects.emplace_back(
                                   "aware Set IV", *AwareIV.M, "paper",
                                   ViolationKind::LoweringSuboptimal)
                             : nullptr;

  // The interpreter rows.  The baseline module fuses against the
  // reordering compile's pass-1 profile, so profile-guided arm ordering
  // gets differential coverage, not just the unprofiled fusions.
  ProfileDB FuseProfile;
  FuseOptions BaseFuse;
  if (!Optimized.ProfileText.empty() &&
      FuseProfile.deserialize(Optimized.ProfileText))
    BaseFuse.Profile = &FuseProfile;
  for (Subject *S : {&Baseline, &Reordered, Aware}) {
    if (!S)
      continue;
    S->Fused = decodeFused(S->M, S == &Baseline ? BaseFuse : FuseOptions());
    // Adaptive with no controller is tier 0 alone: the unfused stream.
    S->addRow("unfused", Bar::Exact, Interpreter::Mode::Adaptive, {});
    ExecRequest FusedSlot;
    FusedSlot.Prepared = &S->Fused;
    S->addRow("fused", Bar::Exact, Interpreter::Mode::Fused, FusedSlot);
  }

  for (Subject *S : {&Baseline, &Reordered}) {
    S->Adaptive = std::make_unique<AdaptiveController>(S->M, RO);
    ExecRequest AdaptiveSlot;
    AdaptiveSlot.Adaptive = S->Adaptive.get();
    S->addRow("adaptive", Bar::Exact, Interpreter::Mode::Adaptive,
              AdaptiveSlot);
    if (NativeRow) {
      // Built once per module; NativeRunner's source-hash cache makes
      // repeats of the same module cheap across oracle runs too.
      std::string NativeError;
      S->Native = NativeRunner::shared().prepare(S->M, &NativeError);
      if (!S->Native) {
        Report.Kind = ViolationKind::EngineMismatch;
        Report.Detail = formatString("native compile of %s module failed: ",
                                     S->Name) +
                        NativeError;
        return Report;
      }
      ExecRequest NativeSlot;
      NativeSlot.Native = S->Native.get();
      S->addRow("native", Bar::Observables, Interpreter::Mode::Native,
                NativeSlot);
    }
    if (LadderRow) {
      S->Ladder = std::make_unique<AdaptiveController>(S->M, LadderRO);
      ExecRequest LadderSlot;
      LadderSlot.Adaptive = S->Ladder.get();
      S->addRow("tier-ladder", Bar::Observables, Interpreter::Mode::Adaptive,
                LadderSlot);
    }
  }

  if (SvcClient)
    for (const CompileSpec *Spec : {&BaseSpec, &OptSpec}) {
      const bool IsBase = Spec == &BaseSpec;
      Subject &S = Subjects.emplace_back(
          IsBase ? "service baseline" : "service reordered",
          IsBase ? *SvcBaseRef.M : *SvcOptRef.M, nullptr);
      S.Rows.push_back(
          {"service", Bar::Wire,
           [&, Spec, IsBase](std::string_view Input, uint64_t Limit) {
             ServiceRequest Request;
             Request.Kind = RequestKind::Execute;
             Request.Spec = *Spec;
             Request.Input = std::string(Input);
             Request.Mode = (uint8_t)Interpreter::Mode::Fused;
             Request.InstructionLimit = Limit;
             if (DropFault && IsBase)
               dropConnectionsMidRequest(*Daemon, Request);
             return runOverWire(*SvcClient, Request);
           }});
    }

  if (!checkTable(Subjects, HeldOutInputs, Opts.InstructionLimit, Report))
    return Report;

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
  for (const Subject &S : Subjects)
    if (S.Ladder)
      Report.NativeCompileCancellations +=
          S.Ladder->stats().NativeCompilesCancelled;

  // Invariant 5: what the adaptive runtime learned must survive disk.  The
  // exported profile, reloaded from either format and replayed through the
  // offline pass-2 selection, has to reproduce the deployed orderings, and
  // an AOT build from it has to behave like the live run did.
  const AdaptiveController &Live = *Baseline.Adaptive;
  if (!Live.tiered())
    return Report;
  ProfileDB Learned;
  Live.exportProfile(Learned);
  ProfileDB FromText, FromBinary;
  std::string ParseError;
  if (!FromText.deserialize(Learned.serializeText(), &ParseError) ||
      !FromBinary.deserialize(Learned.serializeBinary(), &ParseError)) {
    Report.Kind = ViolationKind::ProfileReplayMismatch;
    Report.Detail = "exported profile failed to re-load: " + ParseError;
    return Report;
  }
  const std::string LiveSig = Live.deployedOrderingSignature();
  const std::string TextSig = orderingSignaturesFromProfile(*Base.M, FromText);
  const std::string BinarySig =
      orderingSignaturesFromProfile(*Base.M, FromBinary);
  if (TextSig != LiveSig || BinarySig != LiveSig) {
    Report.Kind = ViolationKind::ProfileReplayMismatch;
    Report.Detail = "replayed orderings diverge from live tier-up: live '" +
                    LiveSig + "', text replay '" + TextSig +
                    "', binary replay '" + BinarySig + "'";
    return Report;
  }
  CompileResult Replayed = compileWithProfile(Source, FromText, Opts.Compile);
  if (!Replayed.ok()) {
    Report.Kind = ViolationKind::ProfileReplayMismatch;
    Report.Detail = "recompile from saved profile failed: " + Replayed.Error;
    return Report;
  }
  Table Replay;
  Replay.emplace_back("baseline", *Base.M, nullptr);
  Replay.emplace_back("profile-replayed", *Replayed.M, nullptr,
                      ViolationKind::ProfileReplayMismatch);
  checkTable(Replay, HeldOutInputs, Opts.InstructionLimit, Report);
  return Report;
}
