//===- tests/fuzz/fuzzer_test.cpp - Fuzzing subsystem self-tests ----------===//
//
// Tests for the differential-testing subsystem itself: the generator is
// deterministic and produces compiling programs, the oracle passes on a
// clean pipeline, an injected transformation fault is detected and
// minimized to a small reproducer, reproducers land in the corpus, compile
// as written and name a replay command that re-runs their program, and
// every committed corpus case replays clean.

#include "fuzz/Fuzzer.h"

#include "fuzz/AstRender.h"
#include "fuzz/Generator.h"
#include "fuzz/Minimizer.h"
#include "fuzz/Oracle.h"
#include "fuzz/Rng.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace bropt;

namespace {

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::ostringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

/// The program seed a reproducer's header records, or 0.
uint64_t headerSeed(const std::string &Reproducer) {
  unsigned long long Seed = 0;
  size_t At = Reproducer.find("// seed: ");
  if (At == std::string::npos ||
      std::sscanf(Reproducer.c_str() + At, "// seed: %llu", &Seed) != 1)
    return 0;
  return Seed;
}

/// The program seed a reproducer's replay line regenerates, or 0:
/// `--seed C --programs N` runs programs Rng::mix(C, 0) through
/// Rng::mix(C, N - 1), and the last of them is the reported one.
uint64_t replayedProgramSeed(const std::string &Reproducer) {
  unsigned long long Campaign = 0, Programs = 0;
  size_t At = Reproducer.find("// replay: ");
  if (At == std::string::npos ||
      std::sscanf(Reproducer.c_str() + At,
                  "// replay: bropt-fuzz --seed %llu --programs %llu",
                  &Campaign, &Programs) != 2 ||
      Programs == 0)
    return 0;
  return Rng::mix(Campaign, Programs - 1);
}

void expectParses(const std::string &Source) {
  TranslationUnit Unit;
  std::vector<Diagnostic> Diags;
  EXPECT_TRUE(parseSource(Source, Unit, Diags))
      << renderDiagnostics(Diags) << "\n"
      << Source;
}

TEST(GeneratorTest, IsDeterministic) {
  GeneratedProgram A = generateProgram(12345);
  GeneratedProgram B = generateProgram(12345);
  EXPECT_EQ(A.Source, B.Source);
  EXPECT_EQ(A.TrainingInputs, B.TrainingInputs);
  EXPECT_EQ(A.HeldOutInputs, B.HeldOutInputs);
  GeneratedProgram C = generateProgram(54321);
  EXPECT_NE(A.Source, C.Source);
}

TEST(GeneratorTest, ProgramsParseAndProvideInputs) {
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    GeneratedProgram Program = generateProgram(Seed);
    TranslationUnit Unit;
    std::vector<Diagnostic> Diags;
    ASSERT_TRUE(parseSource(Program.Source, Unit, Diags))
        << "seed " << Seed << ":\n"
        << renderDiagnostics(Diags) << "\n"
        << Program.Source;
    EXPECT_FALSE(Program.TrainingInputs.empty());
    // Held-out inputs always include the empty boundary input.
    bool HasEmpty = false;
    for (const std::string &Input : Program.HeldOutInputs)
      HasEmpty |= Input.empty();
    EXPECT_TRUE(HasEmpty) << "seed " << Seed;
  }
}

TEST(AstRenderTest, RenderParsesBackIdentically) {
  // render(parse(render(parse(S)))) must be a fixpoint: rendering is fully
  // parenthesized, so one reparse normalizes and the second must agree.
  GeneratedProgram Program = generateProgram(777);
  TranslationUnit Unit;
  std::vector<Diagnostic> Diags;
  ASSERT_TRUE(parseSource(Program.Source, Unit, Diags));
  std::string Once = renderUnit(Unit);
  TranslationUnit Unit2;
  ASSERT_TRUE(parseSource(Once, Unit2, Diags)) << Once;
  EXPECT_EQ(renderUnit(Unit2), Once);
  EXPECT_EQ(countStatements(Unit2), countStatements(Unit));
}

TEST(OracleTest, CleanPipelinePassesAllInvariants) {
  for (uint64_t Seed = 100; Seed < 120; ++Seed) {
    GeneratedProgram Program = generateProgram(Seed);
    OracleOptions Opts = optionsForSeed(Seed, FaultKind::None);
    OracleReport Report = runOracle(Program.Source, Program.TrainingInputs,
                                    Program.HeldOutInputs, Opts);
    EXPECT_TRUE(Report.ok())
        << "seed " << Seed << ": " << violationKindName(Report.Kind) << ": "
        << Report.Detail << "\n"
        << Program.Source;
  }
}

/// Finds a seed where the injected fault actually changes behavior (the
/// fault only fires when reordering restructured a sequence).
uint64_t findFaultySeed(FaultKind Fault, ViolationKind Expected,
                        OracleOptions &OptsOut, GeneratedProgram &ProgramOut) {
  for (uint64_t Base = 0; Base < 40; ++Base) {
    uint64_t Seed = Rng::mix(42, Base);
    GeneratedProgram Program = generateProgram(Seed);
    OracleOptions Opts = optionsForSeed(Seed, Fault);
    OracleReport Report = runOracle(Program.Source, Program.TrainingInputs,
                                    Program.HeldOutInputs, Opts);
    if (Report.Kind == Expected) {
      OptsOut = Opts;
      ProgramOut = std::move(Program);
      return Seed;
    }
  }
  return 0;
}

TEST(OracleTest, DetectsCorruptedReordering) {
  OracleOptions Opts;
  GeneratedProgram Program;
  uint64_t Seed = findFaultySeed(FaultKind::CorruptReorderedBlock,
                                 ViolationKind::BehaviorMismatch, Opts,
                                 Program);
  ASSERT_NE(Seed, 0u)
      << "no seed tripped the behavior oracle under fault injection";
}

TEST(OracleTest, DetectsCostRegressions) {
  OracleOptions Opts;
  GeneratedProgram Program;
  uint64_t Seed = findFaultySeed(FaultKind::PretendCostRegression,
                                 ViolationKind::CostRegression, Opts,
                                 Program);
  ASSERT_NE(Seed, 0u)
      << "no seed tripped the cost oracle under fault injection";
}

TEST(OracleTest, DetectsLoweringRegressions) {
  OracleOptions Opts;
  GeneratedProgram Program;
  uint64_t Seed = findFaultySeed(FaultKind::PretendLoweringRegression,
                                 ViolationKind::LoweringSuboptimal, Opts,
                                 Program);
  ASSERT_NE(Seed, 0u)
      << "no seed tripped the lowering oracle under fault injection";
}

TEST(MinimizerTest, ShrinksInjectedFaultToSmallReproducer) {
  // The acceptance bar for the whole subsystem: a deliberately broken
  // reordering pass must minimize to a reproducer of at most 15
  // statements that still trips the behavior oracle.
  OracleOptions Opts;
  GeneratedProgram Program;
  uint64_t Seed = findFaultySeed(FaultKind::CorruptReorderedBlock,
                                 ViolationKind::BehaviorMismatch, Opts,
                                 Program);
  ASSERT_NE(Seed, 0u);

  auto StillFails = [&](const std::string &Candidate) {
    return runOracle(Candidate, Program.TrainingInputs,
                     Program.HeldOutInputs, Opts)
               .Kind == ViolationKind::BehaviorMismatch;
  };
  MinimizeResult Minimized =
      minimizeSource(Program.Source, StillFails, /*MaxRounds=*/8);
  EXPECT_LE(Minimized.Statements, 15u) << Minimized.Source;
  EXPECT_LT(Minimized.Source.size(), Program.Source.size());
  // The reproducer must still fail, and must still compile cleanly
  // without the fault.
  EXPECT_TRUE(StillFails(Minimized.Source));
  OracleOptions Clean = Opts;
  Clean.Fault = FaultKind::None;
  OracleReport CleanReport =
      runOracle(Minimized.Source, Program.TrainingInputs,
                Program.HeldOutInputs, Clean);
  EXPECT_TRUE(CleanReport.ok()) << CleanReport.Detail;
}

TEST(MinimizerTest, ReturnsInputWhenPredicateNeverFires) {
  GeneratedProgram Program = generateProgram(31337);
  MinimizeResult Result = minimizeSource(
      Program.Source, [](const std::string &) { return false; });
  EXPECT_EQ(Result.Source, Program.Source);
  EXPECT_EQ(Result.Probes, 0u);
}

TEST(CampaignTest, WritesMinimizedReproducersToCorpus) {
  std::string Dir =
      (std::filesystem::temp_directory_path() / "bropt-fuzz-corpus-test")
          .string();
  std::filesystem::remove_all(Dir);

  FuzzOptions Opts;
  Opts.Seed = 42;
  Opts.Programs = 4; // enough for at least one reordered program
  Opts.Fault = FaultKind::CorruptReorderedBlock;
  Opts.CorpusDir = Dir;
  // One round is enough to prove the corpus path; the <= 15-statement
  // guarantee is MinimizerTest's job.
  Opts.MinimizeRounds = 1;
  Opts.Verbose = false;
  FuzzCampaignResult Result = runFuzzCampaign(Opts);
  EXPECT_EQ(Result.ProgramsRun, 4u);
  EXPECT_EQ(Result.CompileErrors, 0u);
  ASSERT_FALSE(Result.Violations.empty());

  const FuzzViolation &V = Result.Violations.front();
  EXPECT_EQ(V.Kind, ViolationKind::BehaviorMismatch);
  ASSERT_FALSE(V.Path.empty());
  std::string Text = readFile(V.Path);
  EXPECT_NE(Text.find("violation: behavior-mismatch"), std::string::npos);
  EXPECT_EQ(headerSeed(Text), V.ProgramSeed);
  // The reproducer compiles as written, and its replay line re-runs the
  // reported program under the campaign's fault.
  expectParses(Text);
  EXPECT_EQ(replayedProgramSeed(Text), V.ProgramSeed) << Text;
  EXPECT_NE(Text.find("--fault corrupt-reorder"), std::string::npos) << Text;
  std::filesystem::remove_all(Dir);
}

TEST(CampaignTest, ReproducerCommentsEveryDetailLine) {
  // Verifier details span lines; each one must stay inside the header.
  FuzzViolation V;
  V.ProgramSeed = 7;
  V.Kind = ViolationKind::VerifierFailure;
  V.Detail = "after branch-chaining in main: bad block\n; \nsecond pass";
  V.Source = "int main() {\n}\n";
  expectParses(renderReproducer(V, FuzzOptions()));
}

TEST(CampaignTest, CleanCampaignFindsNothing) {
  FuzzOptions Opts;
  Opts.Seed = 2026;
  Opts.Programs = 25;
  Opts.Verbose = false;
  FuzzCampaignResult Result = runFuzzCampaign(Opts);
  EXPECT_EQ(Result.ProgramsRun, 25u);
  EXPECT_EQ(Result.CompileErrors, 0u);
  EXPECT_TRUE(Result.Violations.empty());
}

TEST(CorpusReplayTest, EveryCorpusCaseReplaysClean) {
  // Each committed reproducer, run through the oracle with the inputs and
  // pipeline configuration its header seed derives, must stay fixed.
  size_t Cases = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(
           std::filesystem::path(BROPT_SOURCE_DIR) / "fuzz" / "corpus")) {
    if (Entry.path().extension() != ".minic")
      continue;
    ++Cases;
    std::string Text = readFile(Entry.path());
    uint64_t Seed = headerSeed(Text);
    ASSERT_NE(Seed, 0u) << Entry.path();
    EXPECT_EQ(replayedProgramSeed(Text), Seed)
        << Entry.path() << ": the replay line runs another program";
    GeneratedProgram Program = generateProgram(Seed);
    OracleReport Report =
        runOracle(Text, Program.TrainingInputs, Program.HeldOutInputs,
                  optionsForSeed(Seed, FaultKind::None));
    EXPECT_TRUE(Report.ok()) << Entry.path() << ": "
                             << violationKindName(Report.Kind) << ": "
                             << Report.Detail;
  }
  EXPECT_GT(Cases, 0u);
}

} // namespace
