//===- tests/driver/evaluator_stress_test.cpp - Concurrent Evaluator ------===//
//
// The Evaluator's concurrency contract (driver/Evaluator.h):
// evaluateWorkload() and the artifact cache's stats() are safe from
// concurrent callers — broptd serves Evaluate requests from its worker
// pool exactly this way.  These tests hammer one Evaluator from many
// threads and require (a) every evaluation bit-identical to a serial
// reference and (b) the cache's counters to add up exactly.
//
//===----------------------------------------------------------------------===//

#include "driver/Evaluator.h"
#include "workloads/Workloads.h"

#include "gtest/gtest.h"

#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

using namespace bropt;

namespace {

TEST(EvaluatorStress, ConcurrentCallersShareOneEvaluator) {
  EvaluatorOptions Options;
  Options.Threads = 2; // the evaluator's own pool; callers add more
  Evaluator Eval(Options);
  CompileOptions Compile;

  const std::vector<std::string> Names = {"wc", "grep", "sort", "join"};

  // Serial reference: dynamic counts are deterministic, so whatever the
  // concurrent callers observe must equal these bit for bit.
  std::map<std::string, DynamicCounts> Reference;
  for (const std::string &Name : Names) {
    const Workload *W = findWorkload(Name);
    ASSERT_NE(W, nullptr) << Name;
    WorkloadRecord Record = Eval.evaluateWorkload(*W, Compile);
    ASSERT_TRUE(Record.Eval.ok()) << Record.Eval.Error;
    ASSERT_TRUE(Record.Eval.OutputsMatch) << Name;
    EXPECT_FALSE(Record.BaselineCacheHit) << Name;
    EXPECT_FALSE(Record.ReorderedCacheHit) << Name;
    Reference[Name] = Record.Eval.Reordered.Counts;
  }

  constexpr unsigned NumThreads = 8, Rounds = 3;
  std::atomic<unsigned> Mismatches{0}, Errors{0}, ColdLookups{0};
  std::vector<std::thread> Threads;
  for (unsigned Index = 0; Index < NumThreads; ++Index)
    Threads.emplace_back([&, Index] {
      for (unsigned Round = 0; Round < Rounds; ++Round)
        for (size_t N = 0; N < Names.size(); ++N) {
          // Stagger start points so threads contend on different
          // workloads' cache entries at any instant.
          const std::string &Name = Names[(N + Index) % Names.size()];
          const Workload *W = findWorkload(Name);
          WorkloadRecord Record = Eval.evaluateWorkload(*W, Compile);
          if (!Record.Eval.ok() || !Record.Eval.OutputsMatch) {
            ++Errors;
            continue;
          }
          ColdLookups += !Record.BaselineCacheHit;
          ColdLookups += !Record.ReorderedCacheHit;
          const DynamicCounts &Ref = Reference[Name];
          const DynamicCounts &Got = Record.Eval.Reordered.Counts;
          if (Got.TotalInsts != Ref.TotalInsts ||
              Got.CondBranches != Ref.CondBranches ||
              Got.TakenBranches != Ref.TakenBranches)
            ++Mismatches;
        }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Errors, 0u);
  EXPECT_EQ(Mismatches, 0u);

  // Counter exactness: every evaluation is one baseline and one
  // reordered lookup, and after the serial warm-up every one was a hit.
  const uint64_t Total = Names.size() * (1 + NumThreads * Rounds);
  ArtifactCacheStats Stats = Eval.cache().stats();
  EXPECT_EQ(ColdLookups, 0u);
  EXPECT_EQ(Stats.Hits + Stats.Misses, 2 * Total);
  EXPECT_EQ(Stats.Misses, 2 * Names.size());
}

TEST(EvaluatorStress, StatsSnapshotsNeverTearUnderLoad) {
  EvaluatorOptions Options;
  Options.Threads = 2;
  Evaluator Eval(Options);
  CompileOptions Compile;
  const Workload *W = findWorkload("wc");
  ASSERT_NE(W, nullptr);

  std::atomic<bool> Stop{false};
  // One thread polls the cache's stats() while workers evaluate:
  // hits+misses must never decrease between snapshots (monotonic
  // counters).
  std::thread Poller([&] {
    uint64_t LastSum = 0;
    while (!Stop.load(std::memory_order_acquire)) {
      ArtifactCacheStats Stats = Eval.cache().stats();
      const uint64_t Sum = Stats.Hits + Stats.Misses;
      EXPECT_GE(Sum, LastSum);
      LastSum = Sum;
    }
  });
  constexpr unsigned NumThreads = 4, Rounds = 4;
  std::vector<std::thread> Workers;
  std::atomic<unsigned> Errors{0};
  for (unsigned Index = 0; Index < NumThreads; ++Index)
    Workers.emplace_back([&] {
      for (unsigned Round = 0; Round < Rounds; ++Round) {
        WorkloadRecord Record = Eval.evaluateWorkload(*W, Compile);
        if (!Record.Eval.ok())
          ++Errors;
      }
    });
  for (std::thread &T : Workers)
    T.join();
  Stop.store(true, std::memory_order_release);
  Poller.join();

  EXPECT_EQ(Errors, 0u);
  ArtifactCacheStats Stats = Eval.cache().stats();
  EXPECT_EQ(Stats.Hits + Stats.Misses, 2 * (uint64_t)NumThreads * Rounds);
  EXPECT_EQ(Stats.Misses, 2u);
}

} // namespace
