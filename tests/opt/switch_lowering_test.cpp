//===- tests/opt/switch_lowering_test.cpp - Table 2 heuristics tests ------===//

#include "opt/SwitchLowering.h"

#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "lang/Lowering.h"
#include "opt/Passes.h"
#include "sim/Interpreter.h"
#include "support/Strings.h"

#include <gtest/gtest.h>

using namespace bropt;

namespace {

std::unique_ptr<Module> compileOrDie(std::string_view Source) {
  std::string Errors;
  std::unique_ptr<Module> M = compileSource(Source, &Errors);
  EXPECT_TRUE(M) << Errors;
  return M;
}

/// Generates a switch-heavy program with \p N dense cases.
std::string denseSwitchProgram(int N) {
  std::string Source = "int main() {\n  int total = 0;\n  int c;\n"
                       "  while ((c = getchar()) != -1) {\n    switch (c) {\n";
  for (int Index = 0; Index < N; ++Index)
    Source += formatString("    case %d: total += %d; break;\n", Index,
                           Index + 1);
  Source += "    default: total -= 1;\n    }\n  }\n  return total;\n}\n";
  return Source;
}

std::string testInput() {
  std::string Input;
  for (int Round = 0; Round < 40; ++Round)
    Input.push_back(static_cast<char>(Round % 23));
  return Input;
}

int64_t runExit(Module &M, std::string_view Input) {
  Interpreter Interp(M);
  Interp.setInput(Input);
  RunResult Result = Interp.run();
  EXPECT_FALSE(Result.Trapped) << Result.TrapReason;
  return Result.ExitValue;
}

//===----------------------------------------------------------------------===//
// classifySwitch: the decision table from paper Table 2
//===----------------------------------------------------------------------===//

/// One row of the table. gtest names each instance after the raw bytes of
/// its parameter, so the struct has no implicit padding: left to the
/// compiler, the holes after the two enums carried whatever the stack held
/// and the case names changed from run to run. `Tag` fills the hole after
/// `Set`; its values keep the names each case is listed under. It takes no
/// part in the check.
struct ClassifyCase {
  SwitchHeuristicSet Set;
  uint32_t Tag;
  size_t NumCases;
  uint64_t Span;
  SwitchShape Expected;
  uint32_t TailTag = 0;
};
static_assert(sizeof(ClassifyCase) == 32, "ClassifyCase must stay unpadded");

class ClassifyTest : public ::testing::TestWithParam<ClassifyCase> {};

TEST_P(ClassifyTest, MatchesHeuristicTable) {
  const ClassifyCase &Case = GetParam();
  EXPECT_EQ(classifySwitch(Case.Set, Case.NumCases, Case.Span),
            Case.Expected);
}

INSTANTIATE_TEST_SUITE_P(
    Table2, ClassifyTest,
    ::testing::Values(
        // Set I: indirect when n >= 4 and dense.
        ClassifyCase{SwitchHeuristicSet::SetI, 0, 4, 4,
                     SwitchShape::JumpTable},
        ClassifyCase{SwitchHeuristicSet::SetI, 0, 4, 12,
                     SwitchShape::JumpTable},
        ClassifyCase{SwitchHeuristicSet::SetI, 0x7F24, 4, 13,
                     SwitchShape::LinearSearch},
        ClassifyCase{SwitchHeuristicSet::SetI, 0x7F24, 3, 3,
                     SwitchShape::LinearSearch},
        ClassifyCase{SwitchHeuristicSet::SetI, 0, 8, 100,
                     SwitchShape::BinarySearch},
        ClassifyCase{SwitchHeuristicSet::SetI, 0, 7, 100,
                     SwitchShape::LinearSearch},
        // Set II: indirect only from n >= 16.
        ClassifyCase{SwitchHeuristicSet::SetII, 0, 15, 15,
                     SwitchShape::BinarySearch},
        ClassifyCase{SwitchHeuristicSet::SetII, 0, 16, 16,
                     SwitchShape::JumpTable},
        ClassifyCase{SwitchHeuristicSet::SetII, 0, 16, 100,
                     SwitchShape::BinarySearch},
        ClassifyCase{SwitchHeuristicSet::SetII, 0xEFD00000, 6, 6,
                     SwitchShape::LinearSearch},
        // Set III: always linear.
        ClassifyCase{SwitchHeuristicSet::SetIII, 0, 40, 40,
                     SwitchShape::LinearSearch},
        ClassifyCase{SwitchHeuristicSet::SetIII, 0xCAD00000, 4, 4,
                     SwitchShape::LinearSearch}));

//===----------------------------------------------------------------------===//
// Differential behaviour tests: lowered == interpreted SwitchInst
//===----------------------------------------------------------------------===//

class LoweringBehaviourTest
    : public ::testing::TestWithParam<std::tuple<SwitchHeuristicSet, int>> {};

TEST_P(LoweringBehaviourTest, PreservesSemantics) {
  auto [Set, NumCases] = GetParam();
  std::string Source = denseSwitchProgram(NumCases);
  auto Reference = compileOrDie(Source);
  auto Lowered = compileOrDie(Source);
  ASSERT_TRUE(Reference && Lowered);

  SwitchLoweringStats Stats;
  EXPECT_TRUE(lowerSwitches(*Lowered, Set, &Stats));
  std::string Errors;
  ASSERT_TRUE(verifyModule(*Lowered, &Errors)) << Errors;
  for (auto &F : *Lowered)
    finalizeFunction(*F);
  ASSERT_TRUE(verifyModule(*Lowered, &Errors)) << Errors;

  std::string Input = testInput();
  EXPECT_EQ(runExit(*Reference, Input), runExit(*Lowered, Input));
}

INSTANTIATE_TEST_SUITE_P(
    AllSetsAndSizes, LoweringBehaviourTest,
    ::testing::Combine(::testing::Values(SwitchHeuristicSet::SetI,
                                         SwitchHeuristicSet::SetII,
                                         SwitchHeuristicSet::SetIII),
                       ::testing::Values(2, 3, 5, 9, 17, 33)));

//===----------------------------------------------------------------------===//
// Shape checks
//===----------------------------------------------------------------------===//

bool moduleHasIndirectJump(const Module &M) {
  for (const auto &F : M)
    for (const auto &Block : *F)
      for (const auto &Inst : *Block)
        if (Inst->getKind() == InstKind::IndirectJump)
          return true;
  return false;
}

TEST(SwitchLoweringTest, SetIUsesJumpTableForDenseSwitch) {
  auto M = compileOrDie(denseSwitchProgram(10));
  SwitchLoweringStats Stats;
  lowerSwitches(*M, SwitchHeuristicSet::SetI, &Stats);
  EXPECT_EQ(Stats.JumpTables, 1u);
  EXPECT_TRUE(moduleHasIndirectJump(*M));
}

TEST(SwitchLoweringTest, SetIIAvoidsSmallJumpTables) {
  auto M = compileOrDie(denseSwitchProgram(10));
  SwitchLoweringStats Stats;
  lowerSwitches(*M, SwitchHeuristicSet::SetII, &Stats);
  EXPECT_EQ(Stats.JumpTables, 0u);
  EXPECT_EQ(Stats.BinarySearches, 1u);
  EXPECT_FALSE(moduleHasIndirectJump(*M));
}

TEST(SwitchLoweringTest, SetIIINeverEmitsIndirectJumps) {
  auto M = compileOrDie(denseSwitchProgram(24));
  SwitchLoweringStats Stats;
  lowerSwitches(*M, SwitchHeuristicSet::SetIII, &Stats);
  EXPECT_EQ(Stats.JumpTables, 0u);
  EXPECT_EQ(Stats.BinarySearches, 0u);
  EXPECT_EQ(Stats.LinearSearches, 1u);
  EXPECT_FALSE(moduleHasIndirectJump(*M));
}

TEST(SwitchLoweringTest, HolesRouteToDefault) {
  auto M = compileOrDie(R"(
    int main() {
      int c = getchar();
      switch (c) {
      case 0: return 100;
      case 2: return 102;
      case 4: return 104;
      case 6: return 106;
      }
      return -1;
    }
  )");
  ASSERT_TRUE(M);
  lowerSwitches(*M, SwitchHeuristicSet::SetI);
  std::string Errors;
  ASSERT_TRUE(verifyModule(*M, &Errors)) << Errors;
  std::string In1(1, static_cast<char>(3)); // a hole
  EXPECT_EQ(runExit(*M, In1), -1);
  std::string In2(1, static_cast<char>(4));
  EXPECT_EQ(runExit(*M, In2), 104);
  std::string In3(1, static_cast<char>(9)); // above range
  EXPECT_EQ(runExit(*M, In3), -1);
}

TEST(SwitchLoweringTest, EmptySwitchJumpsToDefault) {
  auto M = compileOrDie(R"(
    int main() {
      switch (getchar()) {
      default: return 7;
      }
    }
  )");
  ASSERT_TRUE(M);
  lowerSwitches(*M, SwitchHeuristicSet::SetI);
  EXPECT_EQ(runExit(*M, "x"), 7);
}

TEST(SwitchLoweringTest, LinearSearchProducesCompareBranchChain) {
  auto M = compileOrDie(denseSwitchProgram(6));
  lowerSwitches(*M, SwitchHeuristicSet::SetIII);
  // Expect six eq-compares against the case constants in main.
  const Function *F = M->getFunction("main");
  unsigned EqBranches = 0;
  for (const auto &Block : *F)
    for (const auto &Inst : *Block)
      if (const auto *Br = dyn_cast<CondBrInst>(Inst.get()))
        if (Br->getPred() == CondCode::EQ)
          ++EqBranches;
  EXPECT_GE(EqBranches, 6u) << printFunction(*F);
}

} // namespace
