//===- predict/BranchPredictor.h - (m,n) branch predictors ------*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Yeh/Patt-style (m,n) two-level branch predictor simulator.  The paper
/// evaluates reordering under the SPARC Ultra I's (0,2) predictor with 2048
/// entries (Table 5) and sweeps (0,1) and (0,2) predictors over table sizes
/// 32..2048 (Table 6).
///
/// An (m,n) predictor keeps m bits of global branch history; the table of
/// n-bit saturating counters is indexed by the branch address XORed with the
/// history (gshare indexing; with m = 0 this degenerates to the paper's
/// per-address scheme).
///
/// One member of the predictor zoo (predict/Zoo.h, docs/PREDICT.md); the
/// shared observe()/stats/records machinery lives in predict/Predictor.h.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_PREDICT_BRANCHPREDICTOR_H
#define BROPT_PREDICT_BRANCHPREDICTOR_H

#include "predict/Predictor.h"

#include <cstdint>
#include <vector>

namespace bropt {

/// Static configuration of an (m,n) predictor.
struct PredictorConfig {
  unsigned HistoryBits = 0;  ///< m: bits of global history
  unsigned CounterBits = 2;  ///< n: width of each saturating counter
  unsigned NumEntries = 2048; ///< table size; must be a power of two

  /// The paper's Table 5 configuration: (0,2) with 2048 entries.
  static PredictorConfig ultraSparc() { return {0, 2, 2048}; }
};

/// The whole state one (m,n) prediction step reads and writes, as a small
/// value: the counter table (updated in place through the pointer), the
/// global history, and the constants derived from the configuration.
/// BranchPredictor steps one per observed branch, and the threaded loop
/// (sim/Threaded.cpp) keeps one in locals for a whole activation and
/// writes the history back, so the update rule below is its only copy.
struct TableState {
  uint8_t *Counters = nullptr;
  uint32_t History = 0;
  uint32_t HistoryMask = 0;
  uint32_t IndexMask = 0;
  uint8_t CounterMax = 0;
  uint8_t NotTakenThreshold = 0;

  /// Predicts branch \p BranchId, trains on the actual \p Taken outcome,
  /// and \returns the direction that was predicted.
  bool predictAndTrain(uint32_t BranchId, bool Taken) {
    // Branch ids stand in for instruction addresses.  Real branches are
    // scattered through the text segment, so small tables see conflicts;
    // a multiplicative (Fibonacci) hash reproduces that aliasing behaviour
    // instead of letting dense ids map conflict-free into any table.
    uint32_t Spread = BranchId * 2654435761u;
    uint8_t &Counter =
        Counters[((Spread >> 16) ^ (History & HistoryMask)) & IndexMask];
    bool Predicted = Counter >= NotTakenThreshold;

    int Delta = Taken ? (Counter < CounterMax) : -(Counter > 0);
    Counter = static_cast<uint8_t>(Counter + Delta);
    History = (History << 1) | (Taken ? 1u : 0u);
    return Predicted;
  }
};

/// Simulates one (m,n) predictor.  Final, so the engines that hold one by
/// its own type call its step without a virtual hop.
class BranchPredictor final : public Predictor {
public:
  /// \p Name is the zoo-registry name reported by name(); the default
  /// covers direct construction outside the registry.
  explicit BranchPredictor(PredictorConfig Config,
                           const char *Name = "gshare");

  const PredictorConfig &getConfig() const { return Config; }
  const char *name() const override { return SchemeName; }

  /// The current state, for an engine that steps it in locals; its
  /// Counters point into this predictor's table.  Hand the stepped value
  /// back with storeState() before anything else observes or reads this
  /// predictor.
  TableState state() {
    uint32_t HistoryMask = Config.HistoryBits >= 32
                               ? ~0u
                               : ((1u << Config.HistoryBits) - 1);
    return {Counters.data(), History, HistoryMask, Config.NumEntries - 1,
            CounterMax, NotTakenThreshold};
  }
  void storeState(const TableState &S) { History = S.History; }

protected:
  bool predictAndTrain(uint32_t BranchId, bool Taken) override {
    TableState S = state();
    bool Predicted = S.predictAndTrain(BranchId, Taken);
    storeState(S);
    return Predicted;
  }

  void resetState() override;

private:
  PredictorConfig Config;
  const char *SchemeName;
  std::vector<uint8_t> Counters;
  uint32_t History = 0;
  uint8_t CounterMax;
  uint8_t NotTakenThreshold;
};

} // namespace bropt

#endif // BROPT_PREDICT_BRANCHPREDICTOR_H
