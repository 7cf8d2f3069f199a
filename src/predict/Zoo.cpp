//===- predict/Zoo.cpp - The branch-predictor zoo -------------------------===//

#include "predict/Zoo.h"

#include "predict/BranchPredictor.h"

#include <cassert>

using namespace bropt;

// --- LocalTwoLevelPredictor ----------------------------------------------

LocalTwoLevelPredictor::LocalTwoLevelPredictor(unsigned HistoryBits,
                                               unsigned TableEntries)
    : HistoryBits(HistoryBits), TableEntries(TableEntries) {
  assert(TableEntries > 0 && (TableEntries & (TableEntries - 1)) == 0 &&
         "table size must be a power of two");
  assert(HistoryBits <= 16 && "history width out of range");
  resetState();
}

void LocalTwoLevelPredictor::resetState() {
  Histories.clear();
  Counters.assign(TableEntries, 1); // weakly not-taken
}

bool LocalTwoLevelPredictor::predictAndTrain(uint32_t BranchId, bool Taken) {
  if (BranchId >= Histories.size())
    Histories.resize(BranchId + 1, 0);
  uint16_t &History = Histories[BranchId];
  uint32_t HistoryMask = (1u << HistoryBits) - 1;
  uint32_t Spread = BranchId * 2654435761u;
  uint32_t Index =
      ((Spread >> 16) ^ (History & HistoryMask)) & (TableEntries - 1);
  uint8_t &Counter = Counters[Index];
  bool Predicted = Counter >= 2;
  if (Taken) {
    if (Counter < 3)
      ++Counter;
  } else if (Counter > 0) {
    --Counter;
  }
  History = static_cast<uint16_t>(((History << 1) | (Taken ? 1u : 0u)) &
                                  HistoryMask);
  return Predicted;
}

// --- TagePredictor -------------------------------------------------------

TagePredictor::TagePredictor(Config C, const char *Name)
    : C(std::move(C)), SchemeName(Name) {
  assert(!this->C.HistoryLengths.empty() && "TAGE needs >= 1 component");
  resetState();
}

void TagePredictor::resetState() {
  Components.assign(C.HistoryLengths.size(),
                    std::vector<Entry>(size_t{1} << C.LogEntries));
  Base.assign(size_t{1} << C.LogBaseEntries, 1); // weakly not-taken
  History = 0;
}

uint64_t TagePredictor::foldedHistory(unsigned Bits, unsigned FoldTo) const {
  uint64_t Mask = Bits >= 64 ? ~0ull : ((1ull << Bits) - 1);
  uint64_t H = History & Mask;
  uint64_t Folded = 0;
  for (unsigned Shift = 0; Shift < Bits; Shift += FoldTo)
    Folded ^= (H >> Shift);
  return Folded & ((1ull << FoldTo) - 1);
}

uint32_t TagePredictor::indexFor(uint32_t BranchId,
                                 unsigned Component) const {
  uint64_t Spread = static_cast<uint64_t>(BranchId) * 2654435761u;
  uint64_t H = foldedHistory(C.HistoryLengths[Component], C.LogEntries);
  return static_cast<uint32_t>(((Spread >> 16) ^ H ^ (Component * 0x9e37u)) &
                               ((1u << C.LogEntries) - 1));
}

uint16_t TagePredictor::tagFor(uint32_t BranchId, unsigned Component) const {
  uint64_t Spread = static_cast<uint64_t>(BranchId) * 0x85ebca6bull;
  uint64_t H = foldedHistory(C.HistoryLengths[Component], C.TagBits);
  return static_cast<uint16_t>(((Spread >> 13) ^ (H << 1) ^ Component) &
                               ((1u << C.TagBits) - 1));
}

bool TagePredictor::predictAndTrain(uint32_t BranchId, bool Taken) {
  const unsigned NumComponents =
      static_cast<unsigned>(C.HistoryLengths.size());

  // Find the provider (longest matching component) and its alternate.
  int Provider = -1, Alt = -1;
  for (int Component = static_cast<int>(NumComponents) - 1; Component >= 0;
       --Component) {
    unsigned U = static_cast<unsigned>(Component);
    if (Components[U][indexFor(BranchId, U)].Tag == tagFor(BranchId, U)) {
      if (Provider < 0)
        Provider = Component;
      else {
        Alt = Component;
        break;
      }
    }
  }

  uint32_t BaseIndex = (BranchId * 2654435761u >> 16) &
                       ((1u << C.LogBaseEntries) - 1);
  bool BasePred = Base[BaseIndex] >= 2;
  auto componentPred = [&](int Component) {
    unsigned U = static_cast<unsigned>(Component);
    return Components[U][indexFor(BranchId, U)].Ctr >= 0;
  };
  bool AltPred = Alt >= 0 ? componentPred(Alt) : BasePred;
  bool Predicted = Provider >= 0 ? componentPred(Provider) : BasePred;

  // --- train ---
  if (Provider >= 0) {
    unsigned U = static_cast<unsigned>(Provider);
    Entry &E = Components[U][indexFor(BranchId, U)];
    if (Taken ? E.Ctr < 3 : E.Ctr > -4)
      E.Ctr += Taken ? 1 : -1;
    // Usefulness: the provider disagreed with the alternate and was right.
    if (Predicted != AltPred) {
      if (Predicted == Taken) {
        if (E.Useful < 3)
          ++E.Useful;
      } else if (E.Useful > 0) {
        --E.Useful;
      }
    }
  } else {
    uint8_t &Counter = Base[BaseIndex];
    if (Taken) {
      if (Counter < 3)
        ++Counter;
    } else if (Counter > 0) {
      --Counter;
    }
  }

  // On a mispredict, allocate in one longer-history component: the first
  // with a dead (useful == 0) slot; decay the ones we skipped so stubborn
  // entries eventually free up.  Deterministic by construction.
  if (Predicted != Taken && Provider < static_cast<int>(NumComponents) - 1) {
    bool Allocated = false;
    for (unsigned Component = static_cast<unsigned>(Provider + 1);
         Component < NumComponents && !Allocated; ++Component) {
      Entry &E = Components[Component][indexFor(BranchId, Component)];
      if (E.Useful == 0) {
        E.Tag = tagFor(BranchId, Component);
        E.Ctr = Taken ? 0 : -1; // weak in the observed direction
        Allocated = true;
      } else {
        --E.Useful;
      }
    }
  }

  History = (History << 1) | (Taken ? 1u : 0u);
  return Predicted;
}

// --- Registry ------------------------------------------------------------

const std::vector<std::string> &bropt::predictorZooNames() {
  static const std::vector<std::string> Names = {
      "paper", "gshare", "local", "tage", "tage-poor"};
  return Names;
}

std::unique_ptr<Predictor> bropt::makePredictor(std::string_view Name) {
  if (Name == "paper")
    return std::make_unique<BranchPredictor>(PredictorConfig::ultraSparc(),
                                             "paper");
  if (Name == "gshare")
    return std::make_unique<BranchPredictor>(PredictorConfig{8, 2, 2048},
                                             "gshare");
  if (Name == "local")
    return std::make_unique<LocalTwoLevelPredictor>();
  if (Name == "tage")
    return std::make_unique<TagePredictor>(TagePredictor::Config::good(),
                                           "tage");
  if (Name == "tage-poor")
    return std::make_unique<TagePredictor>(TagePredictor::Config::poor(),
                                           "tage-poor");
  return nullptr;
}
