//===- tests/profile/workload_profile_test.cpp - Workload profile golden --===//
//
// The full profile `compileWithReordering` hands across the pass boundary
// for each of the 17 workloads, under Set IV and the paper's predictor:
// the range bins the training run's profile hooks count, the edge records
// of the measured layout, and the misprediction plane the training run's
// predictor records.  Pinned byte for byte, so a change to the training
// run's plumbing (hooks, predictor feed, edge counting) must reproduce
// every count.
//
//===----------------------------------------------------------------------===//

#include "../GoldenFile.h"

#include "driver/Driver.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace bropt;

namespace {

TEST(WorkloadProfileTest, SetIVPaperProfilesMatchTheGolden) {
  CompileOptions Options;
  Options.HeuristicSet = SwitchHeuristicSet::SetIV;
  Options.Predictor = "paper";
  std::string Profiles;
  for (const Workload &W : standardWorkloads()) {
    CompileResult R =
        compileWithReordering(W.Source, W.TrainingInput, Options);
    ASSERT_TRUE(R.ok()) << W.Name << ": " << R.Error;
    Profiles += "workload " + W.Name + "\n" + R.ProfileText;
  }
  expectGolden(Profiles, goldenPath("profile", "workload_profiles.txt"));
}

} // namespace
