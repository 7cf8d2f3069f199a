//===- profile/MispredictProfile.h - Measured misprediction rates -*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fifth profile plane: per-static-branch misprediction counts
/// measured under one named predictor of the zoo (predict/Zoo.h).  The
/// engines number conditional branches in layout order across the module
/// (ir/CFG.h: numberBranches); this plane slices those module-wide
/// records per function so they survive in the ProfileDB next to the other
/// planes and round-trip through text, binary, and the conflict-checked
/// merge unchanged.
///
/// Record shape (mirroring profile/EdgeProfile.h): one
/// ProfileKind::Misprediction entry per function at ordinal 0, whose
/// signature is "<predictor>:<branch count>" and whose bins are three
/// counters per branch in layout order — mispredicts, taken, executions.
/// Carrying taken and executions alongside the misses makes records
/// self-calibrating: the importer can compute both the measured rate and
/// the minority-direction baseline without re-walking any CFG, which is
/// what the cost layer's PredictorQuality calibration needs
/// (cost/BranchCostModel.h, docs/PREDICT.md).
///
/// Staleness: a record naming a function that no longer exists, a branch
/// count that no longer matches, or a different predictor than the compile
/// selects is dropped whole — partially applied rates would bias the
/// selection toward whichever branches happened to survive.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_PROFILE_MISPREDICTPROFILE_H
#define BROPT_PROFILE_MISPREDICTPROFILE_H

#include <cstdint>
#include <string_view>

namespace bropt {

class Module;
class Predictor;
class ProfileDB;

/// What the imported plane says about one predictor on one build.
struct MispredictSummary {
  /// Functions with a valid record.
  unsigned Functions = 0;
  /// Totals over every recorded branch.
  uint64_t Executions = 0;
  uint64_t Mispredictions = 0;
  /// Sum over branches of min(taken, executions - taken): the misses an
  /// ideal per-branch saturating counter converges to.  The quality
  /// calibration divides measured misses by this baseline.
  uint64_t MinorityMass = 0;

  bool empty() const { return Functions == 0; }

  /// Measured misses relative to the minority-direction baseline, clamped
  /// to [0, 4]: ~1.0 for a 2-bit counter, near 0 for a history predictor
  /// that learns the patterns, above 1 for a scheme losing to aliasing.
  /// An empty or perfectly-biased record answers the neutral 1.0.
  double quality() const;
};

/// Snapshots \p P's per-branch records (predict/Predictor.h:
/// branchRecords, which must have been enabled before the measured runs)
/// into \p DB as one ProfileKind::Misprediction entry per function of
/// \p M that has conditional branches, overwriting stale-shaped records.
/// Branch ids beyond the record vector simply measured zero executions.
void exportMispredictProfile(const Module &M, const Predictor &P,
                             ProfileDB &DB);

/// Reads back the Misprediction entries of \p DB that match \p M's current
/// shape and the predictor named \p PredictorName, dropping stale records
/// (counted in \p StaleFunctions when provided).
MispredictSummary importMispredictProfile(const ProfileDB &DB,
                                          const Module &M,
                                          std::string_view PredictorName,
                                          unsigned *StaleFunctions = nullptr);

} // namespace bropt

#endif // BROPT_PROFILE_MISPREDICTPROFILE_H
