//===- profile/MispredictProfile.cpp - Measured misprediction rates -------===//

#include "profile/MispredictProfile.h"

#include "ir/CFG.h"
#include "ir/Module.h"
#include "predict/Predictor.h"
#include "profile/ProfileDB.h"
#include "support/Strings.h"

#include <algorithm>

using namespace bropt;

double MispredictSummary::quality() const {
  // No data, or a perfectly biased program (nothing for any predictor to
  // miss beyond cold starts): stay at the neutral counter baseline.
  if (empty() || MinorityMass == 0)
    return 1.0;
  double Quality = static_cast<double>(Mispredictions) /
                   static_cast<double>(MinorityMass);
  return std::clamp(Quality, 0.0, 4.0);
}

/// Hands \p Fn each function of \p M with the half-open range of its
/// branch ids in the engines' numbering (ir/CFG.h: numberBranches).
template <typename Callback>
static void forEachFunctionBranchRange(const Module &M, Callback Fn) {
  const std::vector<uint32_t> FirstId = numberBranches(M).FirstId;
  size_t FuncIndex = 0;
  for (const auto &F : M) {
    Fn(*F, FirstId[FuncIndex], FirstId[FuncIndex + 1]);
    ++FuncIndex;
  }
}

static std::string signatureFor(std::string_view PredictorName,
                                uint32_t NumBranches) {
  std::string Signature(PredictorName);
  Signature += ':';
  Signature += std::to_string(NumBranches);
  return Signature;
}

void bropt::exportMispredictProfile(const Module &M, const Predictor &P,
                                    ProfileDB &DB) {
  const std::vector<BranchRecord> &Records = P.branchRecords();
  forEachFunctionBranchRange(M, [&](const Function &F, uint32_t First,
                                    uint32_t End) {
    if (First == End)
      return;
    uint32_t NumBranches = End - First;
    ProfileEntry &Entry = DB.upsertEntry(
        ProfileKind::Misprediction, F.getName(),
        signatureFor(P.name(), NumBranches), /*Ordinal=*/0,
        size_t{3} * NumBranches);
    // Snapshot semantics, like the edge plane: these are the definitive
    // counts for this build; summing onto stale numbers would
    // double-charge.  Cross-shard accumulation happens in merge(), where
    // matching signatures sum element-wise — which is exactly right for
    // (miss, taken, executions) triples.
    for (uint32_t Id = First; Id < End; ++Id) {
      BranchRecord R = Id < Records.size() ? Records[Id] : BranchRecord();
      size_t Bin = size_t{3} * (Id - First);
      Entry.BinCounts[Bin + 0] = R.Mispredicts;
      Entry.BinCounts[Bin + 1] = R.Taken;
      Entry.BinCounts[Bin + 2] = R.Executions;
    }
  });
}

MispredictSummary bropt::importMispredictProfile(
    const ProfileDB &DB, const Module &M, std::string_view PredictorName,
    unsigned *StaleFunctions) {
  MispredictSummary Summary;
  unsigned Stale = 0;
  forEachFunctionBranchRange(M, [&](const Function &F, uint32_t First,
                                    uint32_t End) {
    if (First == End)
      return;
    uint32_t NumBranches = End - First;
    ProfileLookupStatus Status = ProfileLookupStatus::Found;
    const ProfileEntry *Entry = DB.lookupSequence(
        ProfileKind::Misprediction, F.getName(),
        signatureFor(PredictorName, NumBranches),
        size_t{3} * NumBranches, /*Ordinal=*/0, &Status);
    if (!Entry) {
      // Only a *stale* record counts against the profile: a function the
      // predictor never saw is simply absent.
      if (Status != ProfileLookupStatus::Missing)
        ++Stale;
      return;
    }
    ++Summary.Functions;
    for (uint32_t Branch = 0; Branch < NumBranches; ++Branch) {
      size_t Bin = size_t{3} * Branch;
      uint64_t Miss = Entry->BinCounts[Bin + 0];
      uint64_t Taken = Entry->BinCounts[Bin + 1];
      uint64_t Execs = Entry->BinCounts[Bin + 2];
      // A corrupt triple (taken > executions) would give a negative
      // minority mass; treat the record's branch as all-biased instead.
      uint64_t NotTaken = Execs >= Taken ? Execs - Taken : 0;
      Summary.Executions += Execs;
      Summary.Mispredictions += Miss;
      Summary.MinorityMass += std::min(Taken, NotTaken);
    }
  });
  // Records for functions this module no longer has are stale too.
  for (const ProfileEntry &Entry : DB)
    if (Entry.Kind == ProfileKind::Misprediction &&
        !M.getFunction(Entry.FunctionName))
      ++Stale;
  if (StaleFunctions)
    *StaleFunctions = Stale;
  return Summary;
}
