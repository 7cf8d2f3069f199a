//===- tests/predict/zoo_test.cpp - Predictor-zoo contract tests ----------===//
//
// Proof obligations of the zoo (predict/Zoo.h, docs/PREDICT.md):
//
//  1. The registry answers every advertised name with a fresh predictor
//     whose name() round-trips, and null for anything else.
//  2. Each scheme earns its place: the 2-bit counter learns per-branch
//     bias, the local two-level learns per-branch periodic patterns the
//     counter cannot, TAGE learns longer-history patterns, and the
//     starved TAGE is measurably worse than the provisioned one.
//  3. Determinism: the same trace produces the same statistics, always —
//     the property cached evaluations and differential tests lean on.
//  4. reset() restores a predictor to factory state: learned tables,
//     histories, statistics, and branch records all clear, and behaviour
//     afterwards is indistinguishable from a newly constructed instance
//     (the leak-isolation contract the Evaluator and broptd depend on).
//  5. Branch records are consistent with the running statistics.
//
//===----------------------------------------------------------------------===//

#include "predict/Zoo.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

using namespace bropt;

namespace {

using Trace = std::vector<std::pair<uint32_t, bool>>;

/// Feeds \p T to \p P and returns the misprediction count.
uint64_t runTrace(Predictor &P, const Trace &T) {
  for (const auto &[Id, Taken] : T)
    P.observe(Id, Taken);
  return P.getStats().Mispredictions;
}

/// A deterministic mixed trace: several branches with different biases and
/// patterns, interleaved.  Seeded LCG so every platform sees the same one.
Trace mixedTrace(size_t Length, uint32_t Seed) {
  Trace T;
  uint32_t State = Seed;
  for (size_t I = 0; I < Length; ++I) {
    State = State * 1664525u + 1013904223u;
    uint32_t Id = (State >> 16) % 7;
    bool Taken;
    switch (Id % 3) {
    case 0: Taken = true; break;                  // biased taken
    case 1: Taken = (I % 2) == 0; break;          // period 2
    default: Taken = ((State >> 8) & 3) != 0;     // noisy, 75% taken
    }
    T.emplace_back(Id, Taken);
  }
  return T;
}

TEST(PredictorZooTest, RegistryAnswersEveryAdvertisedName) {
  const std::vector<std::string> Expected = {"paper", "gshare", "local",
                                             "tage", "tage-poor"};
  EXPECT_EQ(predictorZooNames(), Expected);
  for (const std::string &Name : predictorZooNames()) {
    std::unique_ptr<Predictor> P = makePredictor(Name);
    ASSERT_NE(P, nullptr) << Name;
    EXPECT_EQ(P->name(), Name);
    EXPECT_EQ(P->getStats().Branches, 0u) << "must be cold";
    EXPECT_TRUE(P->branchRecords().empty());
  }
  EXPECT_EQ(makePredictor("oracle"), nullptr);
  EXPECT_EQ(makePredictor(""), nullptr);
}

TEST(PredictorZooTest, LocalTwoLevelLearnsPeriodicPatterns) {
  // A strict alternation defeats any per-branch counter (it mispredicts
  // roughly every execution once saturated between the two weak states)
  // but is trivially learnable from 10 bits of local history.
  Trace T;
  for (size_t I = 0; I < 2000; ++I)
    T.emplace_back(0, (I % 2) == 0);
  std::unique_ptr<Predictor> Counter = makePredictor("paper");
  std::unique_ptr<Predictor> Local = makePredictor("local");
  uint64_t CounterMisses = runTrace(*Counter, T);
  uint64_t LocalMisses = runTrace(*Local, T);
  EXPECT_LT(LocalMisses, CounterMisses);
  EXPECT_LT(Local->getStats().mispredictionRate(), 0.1);
}

TEST(PredictorZooTest, TageLearnsLongerHistory) {
  // Period-4 pattern TTNN: beyond a 2-bit counter, learnable with global
  // history.
  Trace T;
  for (size_t I = 0; I < 2000; ++I)
    T.emplace_back(0, (I % 4) < 2);
  std::unique_ptr<Predictor> Counter = makePredictor("paper");
  std::unique_ptr<Predictor> Tage = makePredictor("tage");
  uint64_t CounterMisses = runTrace(*Counter, T);
  uint64_t TageMisses = runTrace(*Tage, T);
  EXPECT_LT(TageMisses, CounterMisses);
  EXPECT_LT(Tage->getStats().mispredictionRate(), 0.2);
}

TEST(PredictorZooTest, StarvedTageIsWorseThanProvisioned) {
  Trace T = mixedTrace(8000, 42);
  std::unique_ptr<Predictor> Good = makePredictor("tage");
  std::unique_ptr<Predictor> Poor = makePredictor("tage-poor");
  EXPECT_LE(runTrace(*Good, T), runTrace(*Poor, T));
}

TEST(PredictorZooTest, SchemesAreDeterministic) {
  Trace T = mixedTrace(4000, 7);
  for (const std::string &Name : predictorZooNames()) {
    std::unique_ptr<Predictor> A = makePredictor(Name);
    std::unique_ptr<Predictor> B = makePredictor(Name);
    EXPECT_EQ(runTrace(*A, T), runTrace(*B, T)) << Name;
    EXPECT_EQ(A->getStats().Branches, B->getStats().Branches) << Name;
  }
}

TEST(PredictorZooTest, ResetRestoresFactoryState) {
  Trace First = mixedTrace(3000, 1);
  Trace Second = mixedTrace(3000, 2);
  for (const std::string &Name : predictorZooNames()) {
    std::unique_ptr<Predictor> Used = makePredictor(Name);
    Used->enableBranchRecords();
    runTrace(*Used, First);
    ASSERT_GT(Used->getStats().Branches, 0u) << Name;
    ASSERT_FALSE(Used->branchRecords().empty()) << Name;

    Used->reset();
    EXPECT_EQ(Used->getStats().Branches, 0u) << Name;
    EXPECT_EQ(Used->getStats().Mispredictions, 0u) << Name;
    EXPECT_TRUE(Used->branchRecords().empty()) << Name;

    // After the reset, the instance must behave exactly like a fresh one
    // on a *different* trace — any surviving table entry or history bit
    // would show up as a diverging misprediction count.
    std::unique_ptr<Predictor> Fresh = makePredictor(Name);
    Fresh->enableBranchRecords();
    EXPECT_EQ(runTrace(*Used, Second), runTrace(*Fresh, Second)) << Name;
    ASSERT_EQ(Used->branchRecords().size(), Fresh->branchRecords().size())
        << Name;
    for (size_t Id = 0; Id < Fresh->branchRecords().size(); ++Id) {
      const BranchRecord &A = Used->branchRecords()[Id];
      const BranchRecord &B = Fresh->branchRecords()[Id];
      EXPECT_EQ(A.Mispredicts, B.Mispredicts) << Name << " branch " << Id;
      EXPECT_EQ(A.Taken, B.Taken) << Name << " branch " << Id;
      EXPECT_EQ(A.Executions, B.Executions) << Name << " branch " << Id;
    }
  }
}

TEST(PredictorZooTest, BranchRecordsAgreeWithStatistics) {
  Trace T = mixedTrace(5000, 11);
  for (const std::string &Name : predictorZooNames()) {
    std::unique_ptr<Predictor> P = makePredictor(Name);
    P->enableBranchRecords();
    runTrace(*P, T);
    uint64_t Executions = 0, Mispredicts = 0;
    for (const BranchRecord &R : P->branchRecords()) {
      EXPECT_LE(R.Mispredicts, R.Executions) << Name;
      EXPECT_LE(R.Taken, R.Executions) << Name;
      Executions += R.Executions;
      Mispredicts += R.Mispredicts;
    }
    EXPECT_EQ(Executions, P->getStats().Branches) << Name;
    EXPECT_EQ(Mispredicts, P->getStats().Mispredictions) << Name;
  }
}

TEST(PredictorZooTest, RecordingIsOffByDefault) {
  std::unique_ptr<Predictor> P = makePredictor("paper");
  runTrace(*P, mixedTrace(100, 3));
  EXPECT_TRUE(P->branchRecords().empty());
  EXPECT_GT(P->getStats().Branches, 0u);
}

} // namespace
