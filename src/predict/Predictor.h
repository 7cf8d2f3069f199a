//===- predict/Predictor.h - The branch-predictor interface -----*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one interface every predictor in the zoo (docs/PREDICT.md) stands
/// behind.  The execution engines feed each executed conditional branch to
/// observe(), which handles the bookkeeping every scheme shares — running
/// statistics plus optional per-branch misprediction records — and defers
/// the actual predict-and-train step to the scheme via one virtual call.
/// The threaded loop skips observe() for the (m,n) table scheme
/// (predict/BranchPredictor.h): it steps that scheme's state in its own
/// locals and hands the totals back through addStats() and recordsFor().
///
/// Per-branch records are the raw material of the Misprediction profile
/// plane (profile/MispredictProfile.h): (mispredicts, taken, executions)
/// per static branch id, from which the driver calibrates the analytic
/// misprediction rate the cost layer prices orderings with
/// (cost/BranchCostModel.h).  Recording is off by default — the hot
/// measurement loops should not pay for a vector index unless a profile
/// pass asked for it.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_PREDICT_PREDICTOR_H
#define BROPT_PREDICT_PREDICTOR_H

#include <cstdint>
#include <vector>

namespace bropt {

/// Running misprediction statistics.
struct PredictorStats {
  uint64_t Branches = 0;
  uint64_t Mispredictions = 0;

  double mispredictionRate() const {
    return Branches ? static_cast<double>(Mispredictions) /
                          static_cast<double>(Branches)
                    : 0.0;
  }
};

/// Per-static-branch outcome record, indexed by the engines' stable branch
/// id (ir/CFG.h: numberBranches).
struct BranchRecord {
  uint64_t Mispredicts = 0;
  uint64_t Taken = 0;
  uint64_t Executions = 0;

  /// Counts one execution of the branch.
  void count(bool WasTaken, bool Correct) {
    ++Executions;
    Taken += WasTaken;
    Mispredicts += !Correct;
  }
};

/// Abstract branch predictor.  Concrete schemes implement predictAndTrain
/// (and resetState); everything else — stats, records, reset — is shared.
class Predictor {
public:
  virtual ~Predictor();

  /// Short scheme name, stable across runs ("paper", "tage", ...); the
  /// zoo registry (predict/Zoo.h) and the Misprediction plane signatures
  /// key on it.
  virtual const char *name() const = 0;

  /// Records the outcome of one executed conditional branch.
  /// \p BranchId identifies the static branch (stands in for its address).
  /// \returns true if the prediction was correct.
  ///
  /// Defined inline: the tree walker calls this once per executed branch,
  /// and so does the threaded loop for every scheme but the (m,n) table,
  /// which makes an extra out-of-line hop measurable on branchy programs;
  /// only the scheme-specific step pays a virtual call.
  bool observe(uint32_t BranchId, bool Taken) {
    bool Correct = predictAndTrain(BranchId, Taken) == Taken;
    ++Stats.Branches;
    Stats.Mispredictions += !Correct;
    if (Recording) {
      if (BranchId >= Records.size())
        Records.resize(BranchId + 1);
      Records[BranchId].count(Taken, Correct);
    }
    return Correct;
  }

  const PredictorStats &getStats() const { return Stats; }

  /// Turns on per-branch record keeping (profile passes only).
  void enableBranchRecords() { Recording = true; }

  /// The per-branch records collected so far, indexed by branch id.
  /// observe() grows them to the highest id observed; a threaded-loop run
  /// of a BranchPredictor sizes them to the program's branch count
  /// (sim/Decoded.h: numBranchIds) up front.  Ids past the end were never
  /// executed and read as zero.  Empty unless enableBranchRecords() was
  /// called.
  const std::vector<BranchRecord> &branchRecords() const { return Records; }

  /// For an engine that steps a scheme outside observe() (the threaded
  /// loop keeps a BranchPredictor's state in locals): adds \p Branches
  /// observations, \p Mispredictions of them wrong, to the statistics.
  void addStats(uint64_t Branches, uint64_t Mispredictions) {
    Stats.Branches += Branches;
    Stats.Mispredictions += Mispredictions;
  }

  /// For the same engines: the records grown to at least \p NumIds
  /// entries, or null when recording is off.  The pointer stays valid
  /// until the records grow again or reset() runs.
  BranchRecord *recordsFor(uint32_t NumIds) {
    if (!Recording)
      return nullptr;
    if (Records.size() < NumIds)
      Records.resize(NumIds);
    return Records.data();
  }

  /// Clears all learned state, history, statistics, and records.  After a
  /// reset the predictor is indistinguishable from a newly constructed
  /// one — the leak-isolation contract the Evaluator and broptd tests pin.
  void reset() {
    Stats = PredictorStats();
    Records.clear();
    resetState();
  }

protected:
  /// Predicts branch \p BranchId, trains on the actual \p Taken outcome,
  /// and \returns the direction that was predicted.
  virtual bool predictAndTrain(uint32_t BranchId, bool Taken) = 0;

  /// Restores the scheme's tables and histories to the cold state.
  virtual void resetState() = 0;

private:
  PredictorStats Stats;
  std::vector<BranchRecord> Records;
  bool Recording = false;
};

} // namespace bropt

#endif // BROPT_PREDICT_PREDICTOR_H
