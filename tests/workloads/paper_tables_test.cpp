//===- tests/workloads/paper_tables_test.cpp - The paper's tables, golden -===//
//
// Renders the reproduction's evidence as text from one shared Evaluator:
// paper Tables 4, 5, 6 and 8, Table 7's model cycles, Figures 11-13, the
// design-choice ablations and the §10 extension study.  The text is pinned
// byte for byte to golden/paper_tables.txt, which EXPERIMENTS.md quotes, so
// a change that moves any reported count shows up as a reviewable diff:
//
//   BROPT_UPDATE_GOLDEN=1 ctest -R PaperTablesTest
//
// Tables 4, 5 and 8 print the reordered build's raw count beside each
// percentage, so a one-count change never hides in rounding.
//
//===----------------------------------------------------------------------===//

#include "driver/Evaluator.h"
#include "support/Strings.h"

#include "../GoldenFile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace bropt;

namespace {

/// Formats a percentage like the paper: "-7.91%" / "+3.42%".
std::string pct(double Value) { return formatString("%+.2f%%", Value); }

/// Δ% from \p Before to \p After.
double delta(uint64_t Before, uint64_t After) {
  return WorkloadEvaluation::deltaPercent(Before, After);
}

/// A horizontal rule of \p Width dashes.
std::string rule(unsigned Width) { return std::string(Width, '-') + "\n"; }

unsigned long long ull(uint64_t Value) {
  return static_cast<unsigned long long>(Value);
}

/// Evaluates every standard workload under \p Options; each evaluation
/// must succeed.
std::vector<WorkloadEvaluation>
evaluate(Evaluator &Eval, const CompileOptions &Options,
         const std::optional<PredictorConfig> &Predictor = std::nullopt) {
  std::vector<WorkloadEvaluation> Evals = Eval.evaluateAll(Options, Predictor);
  for (const WorkloadEvaluation &E : Evals)
    EXPECT_TRUE(E.ok()) << E.Error;
  return Evals;
}

CompileOptions optionsFor(SwitchHeuristicSet Set) {
  CompileOptions Options;
  Options.HeuristicSet = Set;
  return Options;
}

const SwitchHeuristicSet PaperSets[] = {SwitchHeuristicSet::SetI,
                                        SwitchHeuristicSet::SetII,
                                        SwitchHeuristicSet::SetIII};

/// Table 4: per program and heuristic set, the baseline's dynamic
/// instructions and the change in instructions and conditional branches
/// after reordering.
std::string renderTable4(Evaluator &Eval) {
  std::string Out = "Table 4: Dynamic Frequency Measurements\n"
                    "(baseline instructions; % change after branch "
                    "reordering)\n\n";
  for (SwitchHeuristicSet Set : PaperSets) {
    Out += formatString("Switch Translation Heuristic Set %s\n",
                        switchHeuristicSetName(Set));
    Out += formatString("%-10s %14s %14s %12s %14s %12s\n", "program",
                        "orig insts", "reord insts", "insts",
                        "reord branches", "branches");
    Out += rule(82);
    std::vector<WorkloadEvaluation> Evals = evaluate(Eval, optionsFor(Set));
    double SumInstDelta = 0.0, SumBranchDelta = 0.0;
    uint64_t SumInsts = 0;
    for (const WorkloadEvaluation &E : Evals) {
      const DynamicCounts &Before = E.Baseline.Counts;
      const DynamicCounts &After = E.Reordered.Counts;
      double InstDelta = delta(Before.TotalInsts, After.TotalInsts);
      double BranchDelta = delta(Before.CondBranches, After.CondBranches);
      Out += formatString("%-10s %14llu %14llu %12s %14llu %12s\n",
                          E.Name.c_str(), ull(Before.TotalInsts),
                          ull(After.TotalInsts), pct(InstDelta).c_str(),
                          ull(After.CondBranches), pct(BranchDelta).c_str());
      SumInstDelta += InstDelta;
      SumBranchDelta += BranchDelta;
      SumInsts += Before.TotalInsts;
    }
    Out += rule(82);
    Out += formatString("%-10s %14llu %14s %12s %14s %12s\n\n", "average",
                        ull(SumInsts / Evals.size()), "",
                        pct(SumInstDelta / Evals.size()).c_str(), "",
                        pct(SumBranchDelta / Evals.size()).c_str());
  }
  return Out;
}

/// Table 5: mispredictions under the SPARC Ultra I's (0,2) predictor
/// before and after reordering, and for each program that mispredicts
/// more, the instructions saved per extra misprediction.
std::string renderTable5(Evaluator &Eval) {
  PredictorConfig Config = PredictorConfig::ultraSparc();
  std::string Out = formatString(
      "Table 5: Branch Prediction Measurements Using a (0,%u) Predictor "
      "with %u Entries\n\n",
      Config.CounterBits, Config.NumEntries);
  Out += formatString("%-10s %14s %14s %12s %14s\n", "program",
                      "orig mispred", "reord mispred", "mispred",
                      "insts:mispred");
  Out += rule(71);
  std::vector<WorkloadEvaluation> Evals =
      evaluate(Eval, optionsFor(SwitchHeuristicSet::SetI), Config);
  double SumDelta = 0.0, RatioSum = 0.0;
  unsigned Regressions = 0;
  for (const WorkloadEvaluation &E : Evals) {
    uint64_t Before = E.Baseline.Mispredictions;
    uint64_t After = E.Reordered.Mispredictions;
    double MispredDelta = delta(Before, After);
    std::string Ratio = "N/A";
    if (After > Before) {
      double Saved = static_cast<double>(E.Baseline.Counts.TotalInsts) -
                     static_cast<double>(E.Reordered.Counts.TotalInsts);
      double Value = Saved / static_cast<double>(After - Before);
      Ratio = formatString("%.2f", Value);
      ++Regressions;
      RatioSum += Value;
    }
    Out += formatString("%-10s %14llu %14llu %12s %14s\n", E.Name.c_str(),
                        ull(Before), ull(After), pct(MispredDelta).c_str(),
                        Ratio.c_str());
    SumDelta += MispredDelta;
  }
  Out += rule(71);
  Out += formatString(
      "%-10s %14s %14s %12s %14s\n", "average", "", "",
      pct(SumDelta / Evals.size()).c_str(),
      Regressions ? formatString("%.2f", RatioSum / Regressions).c_str()
                  : "N/A");
  Out += formatString("\n%u of %zu programs had more mispredictions after "
                      "reordering\n",
                      Regressions, Evals.size());
  return Out;
}

/// "%.2f", or "N/A" for a negative ratio (mispredictions decreased).
std::string ratioText(double Value) {
  return Value < 0 ? "N/A" : formatString("%.2f", Value);
}

/// Table 6: aggregate misprediction change and instructions-saved ratio
/// for (0,1) and (0,2) predictors across table sizes 32..2048.
std::string renderTable6(Evaluator &Eval) {
  std::string Out =
      "Table 6: Branch Prediction Measurements Across Predictors\n"
      "(aggregate over all programs, Heuristic Set I)\n\n";
  Out += formatString("%8s | %12s %12s | %12s %12s\n", "entries",
                      "(0,1) mispr", "ratio", "(0,2) mispr", "ratio");
  Out += rule(66);
  for (unsigned Entries : {32u, 64u, 128u, 256u, 512u, 1024u, 2048u}) {
    double MispredDelta[2], Ratio[2];
    for (unsigned Width = 1; Width <= 2; ++Width) {
      PredictorConfig Config;
      Config.HistoryBits = 0;
      Config.CounterBits = Width;
      Config.NumEntries = Entries;
      uint64_t BeforeMispred = 0, AfterMispred = 0;
      uint64_t BeforeInsts = 0, AfterInsts = 0;
      for (const WorkloadEvaluation &E :
           evaluate(Eval, optionsFor(SwitchHeuristicSet::SetI), Config)) {
        BeforeMispred += E.Baseline.Mispredictions;
        AfterMispred += E.Reordered.Mispredictions;
        BeforeInsts += E.Baseline.Counts.TotalInsts;
        AfterInsts += E.Reordered.Counts.TotalInsts;
      }
      MispredDelta[Width - 1] = delta(BeforeMispred, AfterMispred);
      double Saved = static_cast<double>(BeforeInsts) -
                     static_cast<double>(AfterInsts);
      double Extra = static_cast<double>(AfterMispred) -
                     static_cast<double>(BeforeMispred);
      Ratio[Width - 1] = Extra > 0 ? Saved / Extra : -1.0;
    }
    Out += formatString("%8u | %12s %12s | %12s %12s\n", Entries,
                        pct(MispredDelta[0]).c_str(),
                        ratioText(Ratio[0]).c_str(),
                        pct(MispredDelta[1]).c_str(),
                        ratioText(Ratio[1]).c_str());
  }
  Out += "\n(ratio = dynamic instructions saved per extra misprediction; "
         "N/A when mispredictions decreased)\n";
  return Out;
}

/// Table 7 in model cycles: the change in cycles under the SPARC-IPC-like
/// and SPARC-Ultra-like machine models, which isolate the architectural
/// effect of reordering from any interpreter overhead.
std::string renderTable7(Evaluator &Eval) {
  std::string Out =
      "Table 7: Execution Times in model cycles (no predictor attached)\n";
  Out += formatString("%-10s %14s %14s %14s %14s\n", "program", "ipc cycles",
                      "ipc delta", "ultra cycles", "ultra delta");
  Out += rule(72);
  std::vector<WorkloadEvaluation> Evals =
      evaluate(Eval, optionsFor(SwitchHeuristicSet::SetI));
  double SumIPC = 0.0, SumUltra = 0.0;
  for (const WorkloadEvaluation &E : Evals) {
    double DeltaIPC = delta(E.Baseline.CyclesIPC, E.Reordered.CyclesIPC);
    double DeltaUltra =
        delta(E.Baseline.CyclesUltra, E.Reordered.CyclesUltra);
    Out += formatString("%-10s %14llu %14s %14llu %14s\n", E.Name.c_str(),
                        ull(E.Baseline.CyclesIPC), pct(DeltaIPC).c_str(),
                        ull(E.Baseline.CyclesUltra), pct(DeltaUltra).c_str());
    SumIPC += DeltaIPC;
    SumUltra += DeltaUltra;
  }
  Out += rule(72);
  Out += formatString("%-10s %14s %14s %14s %14s\n", "average", "",
                      pct(SumIPC / Evals.size()).c_str(), "",
                      pct(SumUltra / Evals.size()).c_str());
  return Out;
}

/// Table 8: per program and heuristic set, the static size change, the
/// sequences detected and reordered, and the average sequence length in
/// conditional branches before and after.
std::string renderTable8(Evaluator &Eval) {
  std::string Out = "Table 8: Static Measurements\n\n";
  for (SwitchHeuristicSet Set : PaperSets) {
    Out += formatString("Switch Translation Heuristic Set %s\n",
                        switchHeuristicSetName(Set));
    Out += formatString("%-10s %10s %10s %8s %6s %10s %10s %10s\n",
                        "program", "reord size", "size", "seqs", "reord",
                        "reord%", "len orig", "len after");
    Out += rule(82);
    std::vector<WorkloadEvaluation> Evals = evaluate(Eval, optionsFor(Set));
    double SumSize = 0.0, SumReordPct = 0.0, SumLenB = 0.0, SumLenA = 0.0;
    unsigned TotalSeqs = 0, LenCount = 0;
    for (const WorkloadEvaluation &E : Evals) {
      double SizeDelta = delta(E.Baseline.CodeSize, E.Reordered.CodeSize);
      double ReordPct =
          E.Stats.Detected ? 100.0 * E.Stats.Reordered / E.Stats.Detected
                           : 0.0;
      Out += formatString("%-10s %10zu %10s %8u %6u %9.2f%% %10.2f %10.2f\n",
                          E.Name.c_str(), E.Reordered.CodeSize,
                          pct(SizeDelta).c_str(), E.Stats.Detected,
                          E.Stats.Reordered, ReordPct,
                          E.Stats.averageLengthBefore(),
                          E.Stats.averageLengthAfter());
      SumSize += SizeDelta;
      SumReordPct += ReordPct;
      TotalSeqs += E.Stats.Detected;
      if (!E.Stats.Lengths.empty()) {
        SumLenB += E.Stats.averageLengthBefore();
        SumLenA += E.Stats.averageLengthAfter();
        ++LenCount;
      }
    }
    Out += rule(82);
    Out += formatString("%-10s %10s %10s %8.2f %6s %9.2f%% %10.2f %10.2f\n\n",
                        "average", "", pct(SumSize / Evals.size()).c_str(),
                        static_cast<double>(TotalSeqs) / Evals.size(), "",
                        SumReordPct / Evals.size(),
                        LenCount ? SumLenB / LenCount : 0.0,
                        LenCount ? SumLenA / LenCount : 0.0);
  }
  return Out;
}

std::string renderHistogram(const char *Title,
                            const std::map<unsigned, unsigned> &Histogram) {
  std::string Out = formatString("%s\n", Title);
  unsigned Max = 0;
  for (const auto &[Length, Count] : Histogram)
    Max = std::max(Max, Count);
  for (const auto &[Length, Count] : Histogram)
    Out += formatString("  %3u | %-50s %u\n", Length,
                        std::string(Max ? Count * 50 / Max : 0, '#').c_str(),
                        Count);
  return Out;
}

/// Figures 11-13: per heuristic set, the distribution of sequence lengths
/// in conditional branches before and after reordering, over all programs.
std::string renderFigures(Evaluator &Eval) {
  std::string Out;
  unsigned Number = 11;
  for (SwitchHeuristicSet Set : PaperSets) {
    std::map<unsigned, unsigned> Before, After;
    double SumBefore = 0.0, SumAfter = 0.0;
    unsigned Count = 0;
    for (const WorkloadEvaluation &E : evaluate(Eval, optionsFor(Set)))
      for (const auto &[LenBefore, LenAfter] : E.Stats.Lengths) {
        ++Before[LenBefore];
        ++After[LenAfter];
        SumBefore += LenBefore;
        SumAfter += LenAfter;
        ++Count;
      }
    Out += formatString("Figure %u (Heuristic Set %s) — sequence lengths in "
                        "branches (avg %.2f before, %.2f after, %u "
                        "sequences)\n",
                        Number++, switchHeuristicSetName(Set),
                        Count ? SumBefore / Count : 0.0,
                        Count ? SumAfter / Count : 0.0, Count);
    Out += renderHistogram("  original sequence length:", Before);
    Out += renderHistogram("  reordered sequence length:", After);
    Out += "\n";
  }
  return Out;
}

/// One ablation row: average instruction, branch and jump changes.
std::string renderAblationRow(Evaluator &Eval, const char *Name,
                              const ReorderOptions &Reorder) {
  CompileOptions Options;
  Options.Reorder = Reorder;
  std::vector<WorkloadEvaluation> Evals = evaluate(Eval, Options);
  double InstDelta = 0.0, BranchDelta = 0.0, JumpDelta = 0.0;
  for (const WorkloadEvaluation &E : Evals) {
    InstDelta += delta(E.Baseline.Counts.TotalInsts,
                       E.Reordered.Counts.TotalInsts);
    BranchDelta += delta(E.Baseline.Counts.CondBranches,
                         E.Reordered.Counts.CondBranches);
    JumpDelta += delta(E.Baseline.Counts.UncondJumps + 1,
                       E.Reordered.Counts.UncondJumps + 1);
  }
  return formatString("%-34s %10s %10s %10s\n", Name,
                      pct(InstDelta / Evals.size()).c_str(),
                      pct(BranchDelta / Evals.size()).c_str(),
                      pct(JumpDelta / Evals.size()).c_str());
}

/// The design choices DESIGN.md §5 calls out: default-target duplication
/// (Figure 10d), Form-4 intra-condition ordering (§7), Figure 8 selection
/// against the exhaustive oracle, and the indirect-jump cost that
/// motivates Heuristic Set II.
std::string renderAblations(Evaluator &Eval) {
  std::string Out = "Ablation: reordering design choices (averages over all "
                    "programs, Set I)\n\n";
  Out += formatString("%-34s %10s %10s %10s\n", "configuration", "insts",
                      "branches", "jumps");
  Out += rule(68);
  ReorderOptions Defaults;
  Out += renderAblationRow(Eval, "full transformation", Defaults);
  ReorderOptions NoDup = Defaults;
  NoDup.DuplicateDefaultTarget = false;
  Out += renderAblationRow(Eval, "no default-target duplication", NoDup);
  ReorderOptions NoForm4 = Defaults;
  NoForm4.OrderFormFourBranches = false;
  Out += renderAblationRow(Eval, "no Form-4 branch ordering", NoForm4);
  ReorderOptions Exhaustive = Defaults;
  Exhaustive.UseExhaustiveSelection = true;
  Out += renderAblationRow(Eval, "exhaustive ordering search", Exhaustive);

  // Set I keeps jump tables; Set III turns every switch into a reordered
  // linear search.  Which wins depends on the indirect-jump cost.
  Out += "\nIndirect-jump cost study (reordered builds, model cycles)\n\n";
  Out += formatString("%-10s %16s %16s %16s %16s\n", "program", "SetI/ipc",
                      "SetIII/ipc", "SetI/ultra", "SetIII/ultra");
  Out += rule(78);
  std::vector<WorkloadEvaluation> SetI =
      evaluate(Eval, optionsFor(SwitchHeuristicSet::SetI));
  std::vector<WorkloadEvaluation> SetIII =
      evaluate(Eval, optionsFor(SwitchHeuristicSet::SetIII));
  unsigned WinsIPC = 0, WinsUltra = 0, Switchy = 0;
  for (size_t Index = 0; Index < SetI.size(); ++Index) {
    const BuildMeasurement &A = SetI[Index].Reordered;
    const BuildMeasurement &B = SetIII[Index].Reordered;
    Out += formatString("%-10s %16llu %16llu %16llu %16llu\n",
                        SetI[Index].Name.c_str(), ull(A.CyclesIPC),
                        ull(B.CyclesIPC), ull(A.CyclesUltra),
                        ull(B.CyclesUltra));
    if (SetI[Index].Baseline.Counts.IndirectJumps > 0) {
      ++Switchy;
      if (B.CyclesIPC > A.CyclesIPC)
        ++WinsIPC;
      if (B.CyclesUltra < A.CyclesUltra)
        ++WinsUltra;
    }
  }
  Out += formatString("\nPrograms executing indirect jumps under Set I: %u; "
                      "jump table cheaper on ipc-like: %u; reordered search "
                      "cheaper on ultra-like: %u\n",
                      Switchy, WinsIPC, WinsUltra);
  return Out;
}

/// The paper's §10 extensions: common-successor reordering on top of
/// range reordering, and profile-guided search-method selection under
/// cheap and expensive indirect jumps.
std::string renderFutureWork(Evaluator &Eval) {
  std::string Out =
      "Future-work extensions (paper §10) over the standard workloads\n\n";
  Out += "Common-successor reordering (Set I)\n";
  Out += formatString("%-10s %12s %12s\n", "program", "insts", "insts+cs");
  Out += rule(38);
  CompileOptions WithCS;
  WithCS.EnableCommonSuccessorReordering = true;
  std::vector<WorkloadEvaluation> Plain = evaluate(Eval, CompileOptions());
  std::vector<WorkloadEvaluation> CS = evaluate(Eval, WithCS);
  double SumPlain = 0.0, SumCS = 0.0;
  for (size_t Index = 0; Index < Plain.size(); ++Index) {
    double DeltaPlain = delta(Plain[Index].Baseline.Counts.TotalInsts,
                              Plain[Index].Reordered.Counts.TotalInsts);
    double DeltaCS = delta(CS[Index].Baseline.Counts.TotalInsts,
                           CS[Index].Reordered.Counts.TotalInsts);
    Out += formatString("%-10s %12s %12s\n", Plain[Index].Name.c_str(),
                        pct(DeltaPlain).c_str(), pct(DeltaCS).c_str());
    SumPlain += DeltaPlain;
    SumCS += DeltaCS;
  }
  Out += rule(48);
  Out += formatString("%-10s %12s %12s\n\n", "average",
                      pct(SumPlain / Plain.size()).c_str(),
                      pct(SumCS / CS.size()).c_str());

  Out += "Profile-guided search-method selection (Set III source switches)\n";
  Out += formatString("%-10s %14s %14s %10s | %14s %10s\n", "program",
                      "reordered", "ipc: cycles", "tables", "ultra: cycles",
                      "tables");
  Out += rule(84);
  CompileOptions Linear = optionsFor(SwitchHeuristicSet::SetIII);
  CompileOptions TableIPC = Linear;
  TableIPC.Reorder.EnableMethodSelection = true;
  TableIPC.Reorder.Cost.IndirectJumpCost = 2;
  CompileOptions TableUltra = Linear;
  TableUltra.Reorder.EnableMethodSelection = true;
  TableUltra.Reorder.Cost.IndirectJumpCost = 8;
  std::vector<WorkloadEvaluation> L = evaluate(Eval, Linear);
  std::vector<WorkloadEvaluation> TI = evaluate(Eval, TableIPC);
  std::vector<WorkloadEvaluation> TU = evaluate(Eval, TableUltra);
  unsigned TablesIPC = 0, TablesUltra = 0;
  for (size_t Index = 0; Index < L.size(); ++Index) {
    Out += formatString("%-10s %14llu %14llu %10u | %14llu %10u\n",
                        L[Index].Name.c_str(),
                        ull(L[Index].Reordered.CyclesIPC),
                        ull(TI[Index].Reordered.CyclesIPC),
                        TI[Index].Stats.JumpTables,
                        ull(TU[Index].Reordered.CyclesUltra),
                        TU[Index].Stats.JumpTables);
    TablesIPC += TI[Index].Stats.JumpTables;
    TablesUltra += TU[Index].Stats.JumpTables;
  }
  Out += rule(84);
  Out += formatString("Jump tables selected: %u with cheap dispatch, %u with "
                      "expensive dispatch\n",
                      TablesIPC, TablesUltra);
  return Out;
}

TEST(PaperTablesTest, MatchGolden) {
  // One Evaluator for every section: the sweeps revisit the same builds
  // (Table 4's Set I is Table 7's, the figures' and the ablations'), and
  // its artifact cache compiles and fuses each of them once.
  Evaluator Eval;
  const std::string Separator = std::string(78, '=') + "\n";
  std::string Report = renderTable4(Eval) + Separator + renderTable5(Eval) +
                       Separator + renderTable6(Eval) + Separator +
                       renderTable7(Eval) + Separator + renderTable8(Eval) +
                       Separator + renderFigures(Eval) + Separator +
                       renderAblations(Eval) + Separator +
                       renderFutureWork(Eval);
  expectGolden(Report, goldenPath("workloads", "paper_tables.txt"));
  // 51 distinct baseline and 153 distinct reordered builds.
  ArtifactCacheStats Stats = Eval.cache().stats();
  EXPECT_EQ(Stats.Misses, 204u);
  EXPECT_EQ(Stats.EngineBuilds, 204u);
  EXPECT_EQ(Stats.Evictions, 0u);
}

} // namespace
