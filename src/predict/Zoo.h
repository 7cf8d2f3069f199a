//===- predict/Zoo.h - The branch-predictor zoo -----------------*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The predictor zoo (docs/PREDICT.md): every prediction scheme the
/// Tables 5-6 harness sweeps and the cost layer can be calibrated against,
/// behind the one Predictor interface.  The registry names are stable —
/// they key `broptc --predictor` and the Misprediction plane signatures:
///
///   paper      (0,2) per-address, 2048 entries — the paper's Table 5 HW
///   gshare     (8,2) global-history gshare, 2048 entries
///   local      per-branch 10-bit local history over a shared 2-bit table
///   tage       a well-provisioned TAGE: bimodal base + 4 tagged
///              geometric-history components
///   tage-poor  a starved TAGE (2 tiny components, short histories) — the
///              deliberately bad end of the sweep
///
/// All schemes are deterministic: same branch trace in, same predictions
/// out, on every platform.  That keeps differential tests and cached
/// evaluations reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_PREDICT_ZOO_H
#define BROPT_PREDICT_ZOO_H

#include "predict/Predictor.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace bropt {

/// Per-branch local-history two-level predictor (Yeh/Patt PAg shape): each
/// static branch keeps its own history register; a shared table of 2-bit
/// counters is indexed by the branch hash XORed with its local history, so
/// per-branch periodic patterns become learnable without global-history
/// pollution.
class LocalTwoLevelPredictor : public Predictor {
public:
  explicit LocalTwoLevelPredictor(unsigned HistoryBits = 10,
                                  unsigned TableEntries = 4096);

  const char *name() const override { return "local"; }

protected:
  bool predictAndTrain(uint32_t BranchId, bool Taken) override;
  void resetState() override;

private:
  unsigned HistoryBits;
  unsigned TableEntries; ///< power of two
  std::vector<uint16_t> Histories; ///< per branch id, grown on demand
  std::vector<uint8_t> Counters;
};

/// A compact TAGE (TAgged GEometric history lengths) predictor: a bimodal
/// base table plus tagged components indexed by geometrically increasing
/// global history lengths.  The longest matching component provides the
/// prediction; on a mispredict an entry is allocated in a longer
/// component.  Fully deterministic — allocation arbitration uses the
/// useful counters, never randomness.
class TagePredictor : public Predictor {
public:
  struct Config {
    /// Per-component log2 table size; component i uses HistoryLengths[i]
    /// bits of global history.  Sizes are shared across components.
    unsigned LogEntries = 10;
    std::vector<unsigned> HistoryLengths = {4, 8, 16, 32};
    unsigned TagBits = 8;
    unsigned LogBaseEntries = 12; ///< bimodal base table

    /// The well-provisioned end of the zoo.
    static Config good() { return {}; }
    /// The starved end: two tiny, short-history components.
    static Config poor() {
      Config C;
      C.LogEntries = 5;
      C.HistoryLengths = {2, 4};
      C.TagBits = 4;
      C.LogBaseEntries = 6;
      return C;
    }
  };

  explicit TagePredictor(Config C, const char *Name = "tage");

  const char *name() const override { return SchemeName; }

protected:
  bool predictAndTrain(uint32_t BranchId, bool Taken) override;
  void resetState() override;

private:
  struct Entry {
    int8_t Ctr = 0;     ///< 3-bit signed prediction counter, >= 0 = taken
    uint16_t Tag = 0;
    uint8_t Useful = 0; ///< 2-bit usefulness
  };

  uint32_t indexFor(uint32_t BranchId, unsigned Component) const;
  uint16_t tagFor(uint32_t BranchId, unsigned Component) const;
  uint64_t foldedHistory(unsigned Bits, unsigned FoldTo) const;

  Config C;
  const char *SchemeName;
  std::vector<std::vector<Entry>> Components;
  std::vector<uint8_t> Base; ///< 2-bit bimodal counters
  uint64_t History = 0;
};

/// \returns the zoo member registered under \p Name, or null for an
/// unknown name.  Every call builds a fresh, cold predictor — callers own
/// isolation (one instance per measurement, never shared across requests).
std::unique_ptr<Predictor> makePredictor(std::string_view Name);

/// The stable registry names, in sweep order.
const std::vector<std::string> &predictorZooNames();

} // namespace bropt

#endif // BROPT_PREDICT_ZOO_H
