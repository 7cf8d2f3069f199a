//===- tests/runtime/adaptive_native_test.cpp - Tier-2 JIT tests ----------===//
//
// Lifecycle tests for the adaptive runtime's native tier (tier-2 JIT):
// promotion past NativeThreshold hot-swaps whole activations onto a
// compiled body, exponential-backoff rechecks keep watching for drift, a
// phase shift de-optimizes back to the fused tier and re-promotes from
// the signature cache without recompiling, the compile budget latches a
// permanent fused fallback, and a wedged host compiler is cancelled by
// the compile deadline (or from another thread) without ever wedging
// execution.  Observables stay bit-identical to the tree walker through
// every one of those transitions.
//
//===----------------------------------------------------------------------===//

#include "codegen/NativeRunner.h"
#include "driver/Driver.h"
#include "exec/ExecBackend.h"
#include "runtime/AdaptiveController.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>

using namespace bropt;

namespace {

#define SKIP_WITHOUT_HOST_COMPILER()                                          \
  do {                                                                        \
    if (!NativeRunner::shared().available())                                  \
      GTEST_SKIP() << NativeRunner::shared().unavailableReason();             \
  } while (0)

/// Aggressive tier-2 knobs: small inputs must tier up to fused, then
/// promote to native, within a handful of activations.  Builds run inline
/// at the triggering sample, so promotion timing is deterministic.
RuntimeOptions nativeOptions() {
  RuntimeOptions Opts;
  Opts.HotThreshold = 64;
  Opts.SampleInterval = 4;
  Opts.DriftWindow = 16;
  Opts.MinSamplesBetweenRecompiles = 32;
  Opts.NativeTier = true;
  Opts.NativeThreshold = 256;
  Opts.MinSamplesBetweenNativeBuilds = 32;
  Opts.NativeRecheckMin = 2;
  Opts.NativeRecheckMax = 8;
  return Opts;
}

RunResult runTree(const Module &M, const std::string &Input) {
  Interpreter Interp(M, Interpreter::Mode::Tree);
  Interp.setInput(Input);
  return Interp.run();
}

/// One activation through the full tier ladder: with NativeTier on,
/// beginRun() decides whether the native body or the adaptive interpreter
/// executes it.
RunResult runLadder(const Module &M, AdaptiveController &Controller,
                    const std::string &Input) {
  ExecRequest Req;
  Req.Input = Input;
  Req.Adaptive = &Controller;
  return executeModule(M, Interpreter::Mode::Adaptive, Req);
}

/// Native bodies collect no dynamic counters, so the ladder is held to
/// the observables half of the engine-agreement bar.
void expectSameOutcome(const RunResult &Tree, const RunResult &Other) {
  EXPECT_EQ(Tree.Trapped, Other.Trapped);
  EXPECT_EQ(Tree.TrapReason, Other.TrapReason);
  EXPECT_EQ(Tree.ExitValue, Other.ExitValue);
  EXPECT_EQ(Tree.Output, Other.Output);
}

/// Same range-classifier fixture the adaptive tests use: a three-arm
/// ladder on the input byte, hot enough to promote for inputs of a few
/// thousand bytes.
const char *ClassifierSource = R"(
int digits = 0;
int upper = 0;
int lower = 0;
int main() {
  int c;
  while ((c = getchar()) != -1) {
    if (c < 58) { digits = digits + 1; }
    else if (c < 91) { upper = upper + 1; }
    else if (c < 123) { lower = lower + 1; }
    else { lower = lower; }
  }
  printint(digits);
  printint(upper);
  printint(lower);
  return digits + upper * 2 + lower * 3;
}
)";

std::string digitInput(size_t Length = 4096) {
  std::string Input;
  for (size_t Index = 0; Index < Length; ++Index)
    Input += static_cast<char>('0' + Index % 10);
  return Input;
}

std::string letterInput(size_t Length = 4096) {
  std::string Input;
  for (size_t Index = 0; Index < Length; ++Index)
    Input += static_cast<char>('a' + Index % 26);
  return Input;
}

Module &compileClassifier(CompileResult &Keep) {
  Keep = compileBaseline(ClassifierSource, CompileOptions());
  EXPECT_TRUE(Keep.ok()) << Keep.Error;
  return *Keep.M;
}

/// Builds a private NativeRunner whose "compiler" never returns.
/// discoverCompiler() reads $BROPT_CC at construction, so the environment
/// is restored before anything else can observe it.  The returned runner
/// must never be probed (available() compiles a test TU with no deadline
/// and would hang) — only controller-driven compiles with a deadline may
/// touch it.
std::unique_ptr<NativeRunner> makeHangingRunner() {
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

TEST(AdaptiveNativeTest, PromotesAndRunsWholeActivationsNatively) {
  // The headline lifecycle: a steady hot profile tiers up to fused, then
  // promotes to a compiled body; later activations execute natively with
  // periodic interpreted rechecks, and every run matches the tree walker.
  SKIP_WITHOUT_HOST_COMPILER();
  CompileResult Keep;
  Module &M = compileClassifier(Keep);
  std::string Input = digitInput();
  RunResult Tree = runTree(M, Input);

  AdaptiveController Controller(M, nativeOptions());
  for (int Run = 0; Run < 12; ++Run) {
    SCOPED_TRACE(Run);
    expectSameOutcome(Tree, runLadder(M, Controller, Input));
  }

  RuntimeStats Stats = Controller.stats();
  EXPECT_TRUE(Controller.tiered());
  EXPECT_TRUE(Controller.nativeTiered());
  EXPECT_EQ(Stats.NativeTierUps, 1u);
  EXPECT_EQ(Stats.NativeCompiles, 1u);
  EXPECT_GT(Stats.NativeRuns, 0u) << "no activation ever ran natively";
  EXPECT_GT(Stats.NativeRecheckRuns, 0u)
      << "backoff never scheduled an interpreted drift recheck";
  EXPECT_GT(Stats.NativeRuns, Stats.NativeRecheckRuns)
      << "steady state should be mostly native";
  EXPECT_EQ(Stats.NativeDeopts, 0u) << "steady profile must not deopt";
  EXPECT_GT(Stats.NativeCompileSeconds, 0.0);
}

TEST(AdaptiveNativeTest, PhaseShiftDeoptsAndRepromotesWithoutThrashing) {
  // Alternating input phases: the first promotes, the shift is caught by
  // an interpreted recheck and de-optimizes back to fused, the new phase
  // re-promotes, and returning to the first phase reactivates its cached
  // body instead of paying the budget again.
  SKIP_WITHOUT_HOST_COMPILER();
  CompileResult Keep;
  Module &M = compileClassifier(Keep);
  std::string Digits = digitInput();
  std::string Letters = letterInput();
  RunResult DigitsTree = runTree(M, Digits);
  RunResult LettersTree = runTree(M, Letters);

  AdaptiveController Controller(M, nativeOptions());
  for (int Phase = 0; Phase < 3; ++Phase) {
    const std::string &Input = Phase % 2 ? Letters : Digits;
    const RunResult &Tree = Phase % 2 ? LettersTree : DigitsTree;
    for (int Run = 0; Run < 14; ++Run) {
      SCOPED_TRACE(testing::Message() << "phase " << Phase << " run " << Run);
      expectSameOutcome(Tree, runLadder(M, Controller, Input));
    }
  }

  RuntimeStats Stats = Controller.stats();
  EXPECT_GE(Stats.NativeDeopts, 1u) << "phase shift went unnoticed";
  EXPECT_GE(Stats.NativeTierUps, 2u) << "never re-promoted after deopt";
  EXPECT_LE(Stats.NativeCompiles,
            (uint64_t)Controller.options().MaxNativeCompiles);
  EXPECT_EQ(Stats.NativeCompilesSuppressed, 0u)
      << "oscillation burned the whole budget — the signature cache is "
         "not making re-promotion free";
}

TEST(AdaptiveNativeTest, CompileBudgetLatchesFusedFallback) {
  // One compile allowed: the first phase spends it, the second phase's
  // promotion attempt must be suppressed — and from then on the
  // controller stays on the fused tier, still bit-identical.
  SKIP_WITHOUT_HOST_COMPILER();
  CompileResult Keep;
  Module &M = compileClassifier(Keep);
  std::string Digits = digitInput();
  std::string Letters = letterInput();
  RunResult DigitsTree = runTree(M, Digits);
  RunResult LettersTree = runTree(M, Letters);

  RuntimeOptions Opts = nativeOptions();
  Opts.MaxNativeCompiles = 1;
  AdaptiveController Controller(M, Opts);
  for (int Run = 0; Run < 10; ++Run)
    expectSameOutcome(DigitsTree, runLadder(M, Controller, Digits));
  ASSERT_TRUE(Controller.nativeTiered());
  for (int Run = 0; Run < 20; ++Run)
    expectSameOutcome(LettersTree, runLadder(M, Controller, Letters));

  RuntimeStats Stats = Controller.stats();
  EXPECT_EQ(Stats.NativeCompiles, 1u);
  EXPECT_GE(Stats.NativeDeopts, 1u);
  if (Stats.NativeCompilesSuppressed > 0) {
    // The second phase fused to a different ordering: its promotion hit
    // the spent budget and the controller latched the fused fallback.
    EXPECT_FALSE(Controller.nativeTiered());
  } else {
    // Both phases fused to the same ordering, so re-promotion was served
    // from the signature cache without needing budget.
    EXPECT_GE(Stats.NativeTierUps, 2u);
  }
}

TEST(AdaptiveNativeTest, HungCompilerIsCancelledByCompileDeadline) {
  // Synchronous promotion against a compiler that never returns: the
  // per-compile deadline must kill it, record a cancellation, latch the
  // fused fallback, and never wedge or perturb execution.  Needs no real
  // host compiler, so it runs everywhere.
  CompileResult Keep;
  Module &M = compileClassifier(Keep);
  std::string Input = digitInput();
  RunResult Tree = runTree(M, Input);

  std::unique_ptr<NativeRunner> Hanging = makeHangingRunner();
  RuntimeOptions Opts = nativeOptions();
  Opts.Runner = Hanging.get();
  Opts.NativeCompileTimeout = 0.25;
  AdaptiveController Controller(M, Opts);
  for (int Run = 0; Run < 6; ++Run) {
    SCOPED_TRACE(Run);
    expectSameOutcome(Tree, runLadder(M, Controller, Input));
  }

  RuntimeStats Stats = Controller.stats();
  EXPECT_EQ(Stats.NativeCompilesCancelled, 1u);
  EXPECT_EQ(Stats.NativeTierUps, 0u);
  EXPECT_FALSE(Controller.nativeTiered());
}

TEST(AdaptiveNativeTest, CancelFromAnotherThreadEndsAHungCompile) {
  // No per-compile deadline: the run that promotes stays stuck in the hung
  // compile until another thread calls cancelNativeCompile(), as broptd's
  // shutdown does.  That run must then finish in the fused tier with the
  // tree walker's observables, and the controller must keep working.
  CompileResult Keep;
  Module &M = compileClassifier(Keep);
  std::string Input = digitInput();
  RunResult Tree = runTree(M, Input);

  std::unique_ptr<NativeRunner> Hanging = makeHangingRunner();
  RuntimeOptions Opts = nativeOptions();
  Opts.Runner = Hanging.get();
  std::atomic<bool> Launched{false}, Finished{false};
  Opts.Trace = [&](const std::string &Event) {
    if (Event.rfind("native: compile launched", 0) == 0)
      Launched.store(true);
  };
  AdaptiveController Controller(M, Opts);
  std::thread Canceller([&] {
    while (!Launched.load() && !Finished.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Controller.cancelNativeCompile();
  });
  for (int Run = 0; Run < 6; ++Run) {
    SCOPED_TRACE(Run);
    expectSameOutcome(Tree, runLadder(M, Controller, Input));
  }
  Finished.store(true);
  Canceller.join();

  RuntimeStats Stats = Controller.stats();
  EXPECT_TRUE(Launched.load()) << "no compile started; nothing to cancel";
  EXPECT_EQ(Stats.NativeCompiles, 1u);
  EXPECT_EQ(Stats.NativeCompilesCancelled, 1u);
  EXPECT_EQ(Stats.NativeTierUps, 0u);
  EXPECT_TRUE(Controller.tiered());
  EXPECT_FALSE(Controller.nativeTiered());
  // The controller survives the teardown: later activations still run.
  for (int Run = 0; Run < 3; ++Run)
    expectSameOutcome(Tree, runLadder(M, Controller, Input));
  EXPECT_EQ(Controller.stats().NativeCompiles, 1u);
}

} // namespace
