//===- core/Instrumentation.cpp - Sequence profiling hooks ----------------===//

#include "core/Instrumentation.h"

#include "support/Debug.h"

#include <algorithm>

using namespace bropt;

void ProfileBinner::addSequence(const RangeSequence &Seq) {
  BinTable Table;
  size_t Bin = 0;
  for (const RangeConditionDesc &Cond : Seq.Conds)
    Table.SortedBins.push_back({Cond.R, Bin++});
  for (const Range &R : Seq.DefaultRanges)
    Table.SortedBins.push_back({R, Bin++});
  Table.NumBins = Bin;
  std::sort(Table.SortedBins.begin(), Table.SortedBins.end(),
            [](const auto &A, const auto &B) {
              return A.first.lo() < B.first.lo();
            });
  if (Seq.Id >= Tables.size())
    Tables.resize(Seq.Id + 1);
  assert(Tables[Seq.Id].NumBins == 0 && "sequence instrumented twice");
  Tables[Seq.Id] = std::move(Table);
}

size_t ProfileBinner::binFor(unsigned SequenceId, int64_t Value) const {
  assert(SequenceId < Tables.size() && Tables[SequenceId].NumBins &&
         "unknown sequence id");
  const auto &Bins = Tables[SequenceId].SortedBins;
  // Binary search for the last range with lo <= Value.
  size_t Lo = 0, Hi = Bins.size();
  while (Lo < Hi) {
    size_t Mid = (Lo + Hi) / 2;
    if (Bins[Mid].first.lo() <= Value)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  assert(Lo > 0 && "bins must cover the whole value space");
  const auto &Hit = Bins[Lo - 1];
  assert(Hit.first.contains(Value) && "bins must cover the whole value space");
  return Hit.second;
}

size_t ProfileBinner::numBins(unsigned SequenceId) const {
  assert(SequenceId < Tables.size() && Tables[SequenceId].NumBins &&
         "unknown sequence id");
  return Tables[SequenceId].NumBins;
}

std::function<void(unsigned, int64_t)>
ProfileBinner::callback(ProfileDB &DB) const {
  return [this, &DB](unsigned SequenceId, int64_t Value) {
    DB.increment(SequenceId, binFor(SequenceId, Value));
  };
}

void bropt::instrumentSequences(const std::vector<RangeSequence> &Sequences,
                                ProfileDB &DB, ProfileBinner &Binner) {
  for (const RangeSequence &Seq : Sequences) {
    Binner.addSequence(Seq);
    DB.registerSequence(ProfileKind::RangeBins, Seq.Id, Seq.F->getName(),
                        Seq.signature(), Binner.numBins(Seq.Id));

    // Insert the hook just before the head's trailing compare so the
    // profiled register already holds its post-prefix value.
    BasicBlock *Head = Seq.head();
    assert(Head->size() >= 1 && Head->getTerminator() &&
           "sequence head must end in a branch");
    size_t InsertAt = Head->size() - 1; // before the terminator
    if (Head->size() >= 2 &&
        isa<CmpInst>(Head->getInstruction(Head->size() - 2)))
      InsertAt = Head->size() - 2; // before the compare
    Head->insertAt(InsertAt,
                   std::make_unique<ProfileInst>(Seq.Id, Seq.ValueReg));
  }
}
