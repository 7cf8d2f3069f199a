//===- tests/ir/roundtrip_test.cpp - Printer/parser golden round trips ----===//
//
// Proves the IR text format is lossless: for every example program, under
// every pipeline configuration, print -> parse -> print is a fixpoint, the
// reparsed module passes the verifier, and it runs bit-identically to the
// original (dynamic counters included).  Instrumented pass-1 modules are
// covered too, so the profile hook instructions round-trip as well.

#include "ir/IRParser.h"

#include "driver/Driver.h"
#include "fuzz/Generator.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "sim/Interpreter.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace bropt;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream Stream(Path, std::ios::binary);
  EXPECT_TRUE(Stream) << "cannot read " << Path;
  std::ostringstream Buffer;
  Buffer << Stream.rdbuf();
  return Buffer.str();
}

std::string examplePath(const char *Name) {
  return std::string(BROPT_SOURCE_DIR) + "/examples/mini/" + Name;
}

bool countsEqual(const DynamicCounts &A, const DynamicCounts &B) {
  return A.TotalInsts == B.TotalInsts && A.CondBranches == B.CondBranches &&
         A.TakenBranches == B.TakenBranches &&
         A.UncondJumps == B.UncondJumps &&
         A.IndirectJumps == B.IndirectJumps && A.Compares == B.Compares &&
         A.Loads == B.Loads && A.Stores == B.Stores && A.Calls == B.Calls &&
         A.ProfileHooks == B.ProfileHooks;
}

/// print -> parse -> print fixpoint, verifier, and run equivalence.
void expectRoundTrip(const Module &M, const std::string &Input,
                     const std::string &Context) {
  std::string Text = printModule(M);
  std::string Error;
  std::unique_ptr<Module> Reparsed = parseModuleText(Text, &Error);
  ASSERT_NE(Reparsed, nullptr) << Context << ": " << Error;
  EXPECT_EQ(printModule(*Reparsed), Text)
      << Context << ": reprint is not a fixpoint";
  EXPECT_TRUE(verifyModule(*Reparsed, &Error)) << Context << ": " << Error;

  // Adaptive with no controller runs the unfused stream.
  for (auto Mode : {Interpreter::Mode::Tree, Interpreter::Mode::Adaptive}) {
    Interpreter Original(M, Mode);
    Original.setInput(Input);
    RunResult A = Original.run();
    Interpreter Rebuilt(*Reparsed, Mode);
    Rebuilt.setInput(Input);
    RunResult B = Rebuilt.run();
    EXPECT_EQ(A.Trapped, B.Trapped) << Context;
    EXPECT_EQ(A.TrapReason, B.TrapReason) << Context;
    EXPECT_EQ(A.ExitValue, B.ExitValue) << Context;
    EXPECT_EQ(A.Output, B.Output) << Context;
    EXPECT_TRUE(countsEqual(A.Counts, B.Counts))
        << Context << ": dynamic counters diverge after reparse";
  }
}

class RoundTripTest : public ::testing::TestWithParam<const char *> {};

TEST_P(RoundTripTest, BaselineEverySet) {
  std::string Source = readFile(examplePath(GetParam()));
  std::string Input = readFile(examplePath("wc.mc"));
  for (auto Set : {SwitchHeuristicSet::SetI, SwitchHeuristicSet::SetII,
                   SwitchHeuristicSet::SetIII}) {
    CompileOptions Options;
    Options.HeuristicSet = Set;
    CompileResult Result = compileBaseline(Source, Options);
    ASSERT_TRUE(Result.ok()) << Result.Error;
    expectRoundTrip(*Result.M, Input,
                    std::string(GetParam()) + " baseline set " +
                        switchHeuristicSetName(Set));
  }
}

TEST_P(RoundTripTest, ReorderedWithExtensions) {
  std::string Source = readFile(examplePath(GetParam()));
  std::string Training = readFile(examplePath("tokens.mc"));
  std::string Input = readFile(examplePath("wc.mc"));
  CompileOptions Options;
  Options.HeuristicSet = SwitchHeuristicSet::SetIII;
  Options.Reorder.EnableMethodSelection = true;
  Options.EnableCommonSuccessorReordering = true;
  CompileResult Result = compileWithReordering(Source, Training, Options);
  ASSERT_TRUE(Result.ok()) << Result.Error;
  expectRoundTrip(*Result.M, Input,
                  std::string(GetParam()) + " reordered");
}

TEST_P(RoundTripTest, InstrumentedPassOneModule) {
  // The pass-1 module carries profile (and, with common-successor
  // reordering, comboprofile) hook instructions.
  std::string Source = readFile(examplePath(GetParam()));
  std::string Training = readFile(examplePath("tokens.mc"));
  CompileOptions Options;
  Options.HeuristicSet = SwitchHeuristicSet::SetIII;
  Options.EnableCommonSuccessorReordering = true;
  Pass1Result Pass1 = runPass1(Source, Training, Options);
  ASSERT_TRUE(Pass1.ok()) << Pass1.Error;
  expectRoundTrip(*Pass1.M, Training,
                  std::string(GetParam()) + " instrumented");
}

INSTANTIATE_TEST_SUITE_P(Examples, RoundTripTest,
                         ::testing::Values("wc.mc", "tokens.mc"));

TEST(RoundTripGenerated, FuzzProgramsRoundTrip) {
  // Generated programs reach shapes the examples do not (jump tables from
  // dense switches, Form-4 range pairs, reordered default clones).
  for (uint64_t Seed : {7ull, 19ull, 23ull, 101ull, 555ull}) {
    GeneratedProgram Program = generateProgram(Seed);
    CompileOptions Options;
    Options.Reorder.EnableMethodSelection = true;
    CompileResult Result = compileWithReordering(
        Program.Source, Program.TrainingInputs.front(), Options);
    ASSERT_TRUE(Result.ok()) << "seed " << Seed << ": " << Result.Error;
    expectRoundTrip(*Result.M, Program.HeldOutInputs.front(),
                    "generated seed " + std::to_string(Seed));
  }
}

TEST(RoundTripErrors, DiagnosticsCarryLineNumbers) {
  std::string Error;
  EXPECT_EQ(parseModuleText("func f(0 params, 1 regs) {\nbb0:\n  bogus r0\n}",
                            &Error),
            nullptr);
  EXPECT_NE(Error.find("line 3"), std::string::npos) << Error;

  Error.clear();
  EXPECT_EQ(parseModuleText("func f(0 params, 1 regs) {\nbb0:\n  jmp bb9\n}",
                            &Error),
            nullptr);
  EXPECT_NE(Error.find("bb9"), std::string::npos) << Error;
}

} // namespace
