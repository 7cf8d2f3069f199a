//===- tests/sim/zoo_engines_test.cpp - Zoo-wide engine agreement ---------===//
//
// Every predictor in the zoo must end a run in the same state whichever
// interpreter engine fed it: the tree walker (the reference, which feeds
// Predictor::observe), the fused engine and adaptive tier 0.  Those two
// share the threaded loop, which steps a BranchPredictor (`paper`,
// `gshare`) in loop locals and feeds every other scheme through the
// virtual observe(), so each scheme here reaches one of its two paths.
// Equal PredictorStats and equal per-branch records are required on the
// 17 workloads, on a recursive program whose activations hand the
// predictor state back and forth around calls, and at every instruction
// limit of a short run, which trips inside fused compare chains.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "predict/Zoo.h"
#include "sim/Fuse.h"
#include "sim/Interpreter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace bropt;

namespace {

const Interpreter::Mode Engines[] = {Interpreter::Mode::Fused,
                                     Interpreter::Mode::Adaptive};

struct PredictedRun {
  RunResult Result;
  std::vector<BranchRecord> Records;
};

/// Runs main() under \p Mode with a fresh \p Scheme predictor recording
/// per-branch outcomes.  \p Limit of 0 keeps the default limit.
PredictedRun runWith(const Module &M, Interpreter::Mode Mode,
                     const std::string &Scheme, std::string_view Input,
                     uint64_t Limit = 0) {
  std::unique_ptr<Predictor> P = makePredictor(Scheme);
  P->enableBranchRecords();
  Interpreter Interp(M, Mode);
  Interp.attachPredictor(P.get());
  Interp.setInput(Input);
  if (Limit)
    Interp.setInstructionLimit(Limit);
  PredictedRun Run{Interp.run(), P->branchRecords()};
  return Run;
}

/// The tree walker's records end at the highest id it observed; ids past
/// either end compare as all-zero.
void expectAgree(const PredictedRun &Tree, const PredictedRun &Other) {
  EXPECT_EQ(Tree.Result.Trapped, Other.Result.Trapped);
  EXPECT_EQ(Tree.Result.TrapReason, Other.Result.TrapReason);
  EXPECT_EQ(Tree.Result.Output, Other.Result.Output);
  EXPECT_EQ(Tree.Result.Counts.TotalInsts, Other.Result.Counts.TotalInsts);
  EXPECT_EQ(Tree.Result.Counts.CondBranches,
            Other.Result.Counts.CondBranches);
  EXPECT_EQ(Tree.Result.Prediction.Branches,
            Other.Result.Prediction.Branches);
  EXPECT_EQ(Tree.Result.Prediction.Mispredictions,
            Other.Result.Prediction.Mispredictions);
  size_t NumIds = std::max(Tree.Records.size(), Other.Records.size());
  for (size_t Id = 0; Id < NumIds; ++Id) {
    BranchRecord A = Id < Tree.Records.size() ? Tree.Records[Id]
                                              : BranchRecord();
    BranchRecord B = Id < Other.Records.size() ? Other.Records[Id]
                                               : BranchRecord();
    EXPECT_TRUE(A.Executions == B.Executions && A.Taken == B.Taken &&
                A.Mispredicts == B.Mispredicts)
        << "branch " << Id << ": tree " << A.Executions << "/" << A.Taken
        << "/" << A.Mispredicts << ", engine " << B.Executions << "/"
        << B.Taken << "/" << B.Mispredicts;
  }
}

/// Runs \p M under every scheme on the tree walker and both threaded-loop
/// engines, holding the latter two to the former.
void expectZooAgrees(const Module &M, std::string_view Input,
                     uint64_t Limit = 0) {
  for (const std::string &Scheme : predictorZooNames()) {
    SCOPED_TRACE(Scheme);
    PredictedRun Tree =
        runWith(M, Interpreter::Mode::Tree, Scheme, Input, Limit);
    EXPECT_EQ(Tree.Result.Prediction.Branches,
              Tree.Result.Counts.CondBranches);
    for (Interpreter::Mode Mode : Engines) {
      SCOPED_TRACE(Mode == Interpreter::Mode::Fused ? "fused" : "tier 0");
      expectAgree(Tree, runWith(M, Mode, Scheme, Input, Limit));
    }
  }
}

TEST(ZooEnginesTest, EverySchemeAgreesOnAllWorkloads) {
  CompileOptions Options;
  Options.HeuristicSet = SwitchHeuristicSet::SetIV;
  Options.Predictor = "paper";
  for (const Workload &W : standardWorkloads()) {
    SCOPED_TRACE(W.Name);
    CompileResult R =
        compileWithReordering(W.Source, W.TrainingInput, Options);
    ASSERT_TRUE(R.ok()) << R.Error;
    expectZooAgrees(*R.M, W.TestInput);
  }
}

/// A recursive-descent walk over brackets: every '(' calls a new
/// activation, and the caller keeps branching after the callee returns,
/// so the engine must write the predictor's state back before each call
/// and pick the callee's history up after it.  The letter test is an
/// if/else-if ladder the reorderer and the fuser turn into a MultiCmp.
const char *RecursiveSource = R"(
int letters = 0;
int walk(int depth) {
  int count = 0;
  int c;
  while ((c = getchar()) != -1) {
    if (c == '(') {
      count = count + walk(depth + 1);
    } else if (c == ')') {
      return count + depth;
    } else if (c == 'a') {
      count = count + 1;
    } else if (c == 'b') {
      count = count + 2;
    } else if (c == 'c') {
      count = count + 3;
    } else {
      letters = letters + 1;
    }
  }
  return count;
}
int main() {
  printint(walk(0));
  printint(letters);
  return 0;
}
)";

std::string bracketInput(size_t Length) {
  std::string Input;
  uint32_t State = 12345;
  int Depth = 0;
  while (Input.size() < Length) {
    State = State * 1103515245u + 12345u;
    unsigned Pick = (State >> 16) % 8;
    if (Pick < 2 && Depth < 30) {
      Input += '(';
      ++Depth;
    } else if (Pick < 4 && Depth > 0) {
      Input += ')';
      --Depth;
    } else {
      Input += "abcx"[Pick % 4];
    }
  }
  return Input + std::string(Depth, ')');
}

CompileResult compileRecursive(std::string_view Training) {
  CompileOptions Options;
  Options.HeuristicSet = SwitchHeuristicSet::SetIV;
  return compileWithReordering(RecursiveSource, Training, Options);
}

TEST(ZooEnginesTest, RecursiveActivationsHandThePredictorOn) {
  const std::string Input = bracketInput(4000);
  CompileResult R = compileRecursive(Input);
  ASSERT_TRUE(R.ok()) << R.Error;
  RunResult Tree = runWith(*R.M, Interpreter::Mode::Tree, "paper", Input)
                       .Result;
  ASSERT_FALSE(Tree.Trapped) << Tree.TrapReason;
  EXPECT_GT(Tree.Counts.Calls, 500u);
  expectZooAgrees(*R.M, Input);
}

TEST(ZooEnginesTest, InstructionLimitTripsInsideFusedChainsAgree) {
  // Every limit from the first instruction to past the end of a short run:
  // some land between the arms of a MultiCmp, whose slow path then traps
  // mid-chain with arms already observed.
  const std::string Input = "a(bx(c)a)xb(a)c";
  CompileResult R = compileRecursive(bracketInput(400));
  ASSERT_TRUE(R.ok()) << R.Error;
  DecodedModule Fused = decodeFused(*R.M);
  const DecodedFunction *Walk = Fused.getFunction("walk");
  ASSERT_NE(Walk, nullptr);
  bool HasChain = false;
  for (const DecodedInst &Inst : Walk->Insts)
    HasChain |= Inst.Op == DecodedOp::MultiCmp && Inst.ExtraCount >= 2;
  ASSERT_TRUE(HasChain) << "the letter ladder no longer fuses";
  RunResult Full =
      runWith(*R.M, Interpreter::Mode::Tree, "paper", Input).Result;
  ASSERT_FALSE(Full.Trapped) << Full.TrapReason;
  for (uint64_t Limit = 1; Limit <= Full.Counts.TotalInsts + 1; ++Limit) {
    SCOPED_TRACE(Limit);
    expectZooAgrees(*R.M, Input, Limit);
    if (HasFailure())
      return;
  }
}

} // namespace
