//===- profile/ProfileDB.cpp - The unified, versioned profile store -------===//

#include "profile/ProfileDB.h"

#include "support/Debug.h"
#include "support/Strings.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace bropt;

const char *bropt::profileKindName(ProfileKind Kind) {
  switch (Kind) {
  case ProfileKind::RangeBins:
    return "range";
  case ProfileKind::ComboOutcomes:
    return "combo";
  case ProfileKind::Legacy:
    return "legacy";
  case ProfileKind::EdgeWeights:
    return "edges";
  case ProfileKind::Misprediction:
    return "mispred";
  }
  return "unknown";
}

const char *bropt::profileLookupStatusName(ProfileLookupStatus Status) {
  switch (Status) {
  case ProfileLookupStatus::Found:
    return "found";
  case ProfileLookupStatus::Missing:
    return "missing";
  case ProfileLookupStatus::StaleSignature:
    return "stale-signature";
  case ProfileLookupStatus::BinCountMismatch:
    return "bin-count-mismatch";
  }
  return "unknown";
}

uint64_t ProfileEntry::totalExecutions() const {
  uint64_t Total = 0;
  for (uint64_t Count : BinCounts)
    Total += Count;
  return Total;
}

static std::string keyOf(ProfileKind Kind, std::string_view FunctionName,
                         unsigned Ordinal) {
  std::string Key;
  Key += static_cast<char>('0' + static_cast<unsigned>(Kind));
  Key += '/';
  Key += FunctionName;
  Key += '#';
  Key += std::to_string(Ordinal);
  return Key;
}

ProfileEntry *ProfileDB::findEntry(ProfileKind Kind,
                                   std::string_view FunctionName,
                                   unsigned Ordinal) {
  auto It = KeyIndex.find(keyOf(Kind, FunctionName, Ordinal));
  return It == KeyIndex.end() ? nullptr : &Entries[It->second];
}

const ProfileEntry *ProfileDB::findEntry(ProfileKind Kind,
                                         std::string_view FunctionName,
                                         unsigned Ordinal) const {
  auto It = KeyIndex.find(keyOf(Kind, FunctionName, Ordinal));
  return It == KeyIndex.end() ? nullptr : &Entries[It->second];
}

ProfileEntry &ProfileDB::addEntry(ProfileEntry Entry) {
  auto [It, Inserted] = KeyIndex.emplace(
      keyOf(Entry.Kind, Entry.FunctionName, Entry.Ordinal), Entries.size());
  (void)It;
  assert(Inserted && "duplicate profile entry key");
  Entries.push_back(std::move(Entry));
  return Entries.back();
}

ProfileEntry &ProfileDB::registerSequence(ProfileKind Kind,
                                          unsigned RuntimeId,
                                          std::string FunctionName,
                                          std::string Signature,
                                          size_t NumBins) {
  if (RuntimeId >= IdIndex.size())
    IdIndex.resize(RuntimeId + 1, NoEntry);
  assert(IdIndex[RuntimeId] == NoEntry && "sequence registered twice");
  // Next free ordinal of (kind, function): registration order defines the
  // ordinal, so producers must register every detected sequence — zero
  // totals included — to keep consumer ordinals aligned.
  unsigned Ordinal = 0;
  while (findEntry(Kind, FunctionName, Ordinal))
    ++Ordinal;
  ProfileEntry Entry;
  Entry.Kind = Kind;
  Entry.FunctionName = std::move(FunctionName);
  Entry.Signature = std::move(Signature);
  Entry.Ordinal = Ordinal;
  Entry.BinCounts.assign(NumBins, 0);
  IdIndex[RuntimeId] = Entries.size();
  return addEntry(std::move(Entry));
}

ProfileEntry &ProfileDB::upsertEntry(ProfileKind Kind,
                                     std::string FunctionName,
                                     std::string Signature, unsigned Ordinal,
                                     size_t NumBins) {
  if (ProfileEntry *Existing = findEntry(Kind, FunctionName, Ordinal)) {
    if (Existing->Signature != Signature ||
        Existing->BinCounts.size() != NumBins) {
      Existing->Signature = std::move(Signature);
      Existing->BinCounts.assign(NumBins, 0);
    }
    return *Existing;
  }
  ProfileEntry Entry;
  Entry.Kind = Kind;
  Entry.FunctionName = std::move(FunctionName);
  Entry.Signature = std::move(Signature);
  Entry.Ordinal = Ordinal;
  Entry.BinCounts.assign(NumBins, 0);
  return addEntry(std::move(Entry));
}

void ProfileDB::increment(unsigned RuntimeId, size_t Bin, uint64_t Weight) {
  assert(RuntimeId < IdIndex.size() && IdIndex[RuntimeId] != NoEntry &&
         "incrementing an unregistered sequence");
  ProfileEntry &Entry = Entries[IdIndex[RuntimeId]];
  assert(Bin < Entry.BinCounts.size() && "profile bin out of range");
  Entry.BinCounts[Bin] += Weight;
}

const ProfileEntry *ProfileDB::lookupSequence(ProfileKind Kind,
                                              std::string_view FunctionName,
                                              std::string_view Signature,
                                              size_t NumBins,
                                              unsigned Ordinal,
                                              ProfileLookupStatus *Status)
    const {
  auto Report = [&](ProfileLookupStatus S) {
    if (Status)
      *Status = S;
  };
  const ProfileEntry *Entry = findEntry(Kind, FunctionName, Ordinal);
  // A version-1 file does not record kinds; its Legacy entries stand in
  // for whichever kind the consumer asks about.
  if (!Entry && Kind != ProfileKind::Legacy)
    Entry = findEntry(ProfileKind::Legacy, FunctionName, Ordinal);
  if (!Entry) {
    Report(ProfileLookupStatus::Missing);
    return nullptr;
  }
  if (Entry->Signature != Signature) {
    Report(ProfileLookupStatus::StaleSignature);
    return nullptr;
  }
  if (Entry->BinCounts.size() != NumBins) {
    Report(ProfileLookupStatus::BinCountMismatch);
    return nullptr;
  }
  Report(ProfileLookupStatus::Found);
  return Entry;
}

FunctionHotness &ProfileDB::functionHotness(std::string FunctionName,
                                            size_t NumBranches) {
  auto It = HotIndex.find(FunctionName);
  if (It != HotIndex.end()) {
    FunctionHotness &H = Hotness[It->second];
    assert(H.Total.size() == NumBranches && "branch count changed");
    return H;
  }
  HotIndex.emplace(FunctionName, Hotness.size());
  FunctionHotness H;
  H.FunctionName = std::move(FunctionName);
  H.Taken.assign(NumBranches, 0);
  H.Total.assign(NumBranches, 0);
  Hotness.push_back(std::move(H));
  return Hotness.back();
}

const FunctionHotness *ProfileDB::findFunctionHotness(
    std::string_view FunctionName) const {
  auto It = HotIndex.find(std::string(FunctionName));
  return It == HotIndex.end() ? nullptr : &Hotness[It->second];
}

ProfileMergeStats ProfileDB::merge(const ProfileDB &Other) {
  ProfileMergeStats Stats;
  for (const ProfileEntry &Record : Other.Entries) {
    ProfileEntry *Mine =
        findEntry(Record.Kind, Record.FunctionName, Record.Ordinal);
    if (!Mine) {
      addEntry(Record);
      ++Stats.Added;
      continue;
    }
    if (Mine->Signature != Record.Signature ||
        Mine->BinCounts.size() != Record.BinCounts.size()) {
      ++Stats.Skipped;
      Stats.Conflicts.push_back(formatString(
          "%s %s#%u: %s", profileKindName(Record.Kind),
          Record.FunctionName.c_str(), Record.Ordinal,
          Mine->Signature != Record.Signature
              ? "signature mismatch"
              : "bin count mismatch"));
      continue;
    }
    for (size_t Bin = 0; Bin < Mine->BinCounts.size(); ++Bin)
      Mine->BinCounts[Bin] += Record.BinCounts[Bin];
    ++Stats.Merged;
  }
  for (const FunctionHotness &Record : Other.Hotness) {
    auto It = HotIndex.find(Record.FunctionName);
    if (It == HotIndex.end()) {
      HotIndex.emplace(Record.FunctionName, Hotness.size());
      Hotness.push_back(Record);
      ++Stats.Added;
      continue;
    }
    FunctionHotness &Mine = Hotness[It->second];
    if (Mine.Total.size() != Record.Total.size()) {
      ++Stats.Skipped;
      Stats.Conflicts.push_back(formatString(
          "hot %s: branch count mismatch (%zu vs %zu)",
          Record.FunctionName.c_str(), Mine.Total.size(),
          Record.Total.size()));
      continue;
    }
    for (size_t Id = 0; Id < Mine.Total.size(); ++Id) {
      Mine.Taken[Id] += Record.Taken[Id];
      Mine.Total[Id] += Record.Total[Id];
    }
    ++Stats.Merged;
  }
  return Stats;
}

/// Canonical emission order: two stores holding the same records — however
/// they were registered or merged — serialize identically.
static std::vector<const ProfileEntry *>
sortedEntries(const std::vector<ProfileEntry> &Entries) {
  std::vector<const ProfileEntry *> Sorted;
  Sorted.reserve(Entries.size());
  for (const ProfileEntry &Entry : Entries)
    Sorted.push_back(&Entry);
  std::sort(Sorted.begin(), Sorted.end(),
            [](const ProfileEntry *A, const ProfileEntry *B) {
              if (A->FunctionName != B->FunctionName)
                return A->FunctionName < B->FunctionName;
              if (A->Kind != B->Kind)
                return A->Kind < B->Kind;
              return A->Ordinal < B->Ordinal;
            });
  return Sorted;
}

static std::vector<const FunctionHotness *>
sortedHotness(const std::vector<FunctionHotness> &Hotness) {
  std::vector<const FunctionHotness *> Sorted;
  Sorted.reserve(Hotness.size());
  for (const FunctionHotness &H : Hotness)
    Sorted.push_back(&H);
  std::sort(Sorted.begin(), Sorted.end(),
            [](const FunctionHotness *A, const FunctionHotness *B) {
              return A->FunctionName < B->FunctionName;
            });
  return Sorted;
}

std::string ProfileDB::serializeText() const {
  std::string Text = "bropt-profile v2\n";
  for (const ProfileEntry *Entry : sortedEntries(Entries)) {
    Text += formatString("seq %s %s %u %s", profileKindName(Entry->Kind),
                         Entry->FunctionName.c_str(), Entry->Ordinal,
                         Entry->Signature.c_str());
    for (uint64_t Count : Entry->BinCounts)
      Text += formatString(" %llu", static_cast<unsigned long long>(Count));
    Text += "\n";
  }
  for (const FunctionHotness *H : sortedHotness(Hotness)) {
    Text += formatString("hot %s", H->FunctionName.c_str());
    for (size_t Id = 0; Id < H->Total.size(); ++Id)
      Text += formatString(" %llu %llu",
                           static_cast<unsigned long long>(H->Taken[Id]),
                           static_cast<unsigned long long>(H->Total[Id]));
    Text += "\n";
  }
  return Text;
}

// --- Binary format -------------------------------------------------------
//
//   "BRPF" u8:version
//   varint:numSeq  { u8:kind str:func str:sig varint:ordinal
//                    varint:numBins varint:count* }*
//   varint:numHot  { str:func varint:numBranches (varint:taken
//                    varint:total)* }*
//
// where varint is unsigned LEB128 and str is varint length + raw bytes.

static const char BinaryMagic[4] = {'B', 'R', 'P', 'F'};

static void putVarint(std::string &Out, uint64_t Value) {
  while (Value >= 0x80) {
    Out += static_cast<char>(0x80 | (Value & 0x7f));
    Value >>= 7;
  }
  Out += static_cast<char>(Value);
}

static void putString(std::string &Out, const std::string &Value) {
  putVarint(Out, Value.size());
  Out += Value;
}

namespace {
/// Bounds-checked reader over a binary image.
struct BinaryReader {
  std::string_view Data;
  size_t Pos = 0;
  bool Failed = false;

  uint64_t getVarint() {
    uint64_t Value = 0;
    unsigned Shift = 0;
    while (true) {
      if (Pos >= Data.size() || Shift > 63) {
        Failed = true;
        return 0;
      }
      uint8_t Byte = static_cast<uint8_t>(Data[Pos++]);
      Value |= static_cast<uint64_t>(Byte & 0x7f) << Shift;
      if (!(Byte & 0x80))
        return Value;
      Shift += 7;
    }
  }

  std::string getString() {
    uint64_t Size = getVarint();
    if (Failed || Size > Data.size() - Pos) {
      Failed = true;
      return {};
    }
    std::string Value(Data.substr(Pos, Size));
    Pos += Size;
    return Value;
  }

  uint8_t getByte() {
    if (Pos >= Data.size()) {
      Failed = true;
      return 0;
    }
    return static_cast<uint8_t>(Data[Pos++]);
  }
};
} // namespace

std::string ProfileDB::serializeBinary() const {
  std::string Out(BinaryMagic, sizeof(BinaryMagic));
  Out += static_cast<char>(CurrentFormatVersion);
  std::vector<const ProfileEntry *> Sorted = sortedEntries(Entries);
  putVarint(Out, Sorted.size());
  for (const ProfileEntry *Entry : Sorted) {
    Out += static_cast<char>(static_cast<uint8_t>(Entry->Kind));
    putString(Out, Entry->FunctionName);
    putString(Out, Entry->Signature);
    putVarint(Out, Entry->Ordinal);
    putVarint(Out, Entry->BinCounts.size());
    for (uint64_t Count : Entry->BinCounts)
      putVarint(Out, Count);
  }
  std::vector<const FunctionHotness *> Hot = sortedHotness(Hotness);
  putVarint(Out, Hot.size());
  for (const FunctionHotness *H : Hot) {
    putString(Out, H->FunctionName);
    putVarint(Out, H->Total.size());
    for (size_t Id = 0; Id < H->Total.size(); ++Id) {
      putVarint(Out, H->Taken[Id]);
      putVarint(Out, H->Total[Id]);
    }
  }
  return Out;
}

bool ProfileDB::deserializeBinary(std::string_view Data, std::string *Error) {
  BinaryReader Reader{Data.substr(sizeof(BinaryMagic))};
  auto Fail = [&](const std::string &Reason) {
    Entries.clear();
    Hotness.clear();
    KeyIndex.clear();
    HotIndex.clear();
    if (Error)
      *Error = Reason;
    return false;
  };

  uint8_t Version = Reader.getByte();
  if (Reader.Failed || Version != CurrentFormatVersion)
    return Fail(formatString("unsupported binary profile version %u",
                             unsigned(Version)));

  uint64_t NumSeq = Reader.getVarint();
  for (uint64_t Index = 0; Index < NumSeq && !Reader.Failed; ++Index) {
    ProfileEntry Entry;
    uint8_t Kind = Reader.getByte();
    if (Kind > static_cast<uint8_t>(ProfileKind::Misprediction))
      return Fail("unknown profile entry kind");
    Entry.Kind = static_cast<ProfileKind>(Kind);
    Entry.FunctionName = Reader.getString();
    Entry.Signature = Reader.getString();
    Entry.Ordinal = static_cast<unsigned>(Reader.getVarint());
    uint64_t NumBins = Reader.getVarint();
    if (Reader.Failed || NumBins > Data.size())
      return Fail("malformed binary profile entry");
    Entry.BinCounts.reserve(NumBins);
    for (uint64_t Bin = 0; Bin < NumBins; ++Bin)
      Entry.BinCounts.push_back(Reader.getVarint());
    if (Reader.Failed)
      return Fail("malformed binary profile entry");
    if (findEntry(Entry.Kind, Entry.FunctionName, Entry.Ordinal))
      return Fail("duplicate entry in binary profile");
    addEntry(std::move(Entry));
  }

  uint64_t NumHot = Reader.getVarint();
  for (uint64_t Index = 0; Index < NumHot && !Reader.Failed; ++Index) {
    std::string Name = Reader.getString();
    uint64_t NumBranches = Reader.getVarint();
    if (Reader.Failed || NumBranches > Data.size())
      return Fail("malformed binary hotness record");
    if (HotIndex.count(Name))
      return Fail("duplicate hotness record in binary profile");
    FunctionHotness &H = functionHotness(std::move(Name), NumBranches);
    for (uint64_t Id = 0; Id < NumBranches; ++Id) {
      H.Taken[Id] = Reader.getVarint();
      H.Total[Id] = Reader.getVarint();
    }
  }
  if (Reader.Failed || Reader.Pos != Reader.Data.size())
    return Fail("malformed binary profile data");
  return true;
}

static std::vector<std::string_view> fieldsOf(std::string_view Line) {
  std::vector<std::string_view> Fields;
  for (std::string_view Field : splitString(Line, ' '))
    if (!Field.empty())
      Fields.push_back(Field);
  return Fields;
}

bool ProfileDB::deserializeTextV2(std::string_view Text, std::string *Error) {
  auto Fail = [&](const std::string &Reason) {
    Entries.clear();
    Hotness.clear();
    KeyIndex.clear();
    HotIndex.clear();
    if (Error)
      *Error = Reason;
    return false;
  };

  bool SawHeader = false;
  for (std::string_view Line : splitString(Text, '\n')) {
    Line = trimString(Line);
    if (Line.empty())
      continue;
    std::vector<std::string_view> Fields = fieldsOf(Line);
    if (!SawHeader) {
      if (Fields.size() != 2 || Fields[0] != "bropt-profile")
        return Fail("missing bropt-profile header");
      if (Fields[1] != "v2")
        return Fail("unsupported profile format version '" +
                    std::string(Fields[1]) + "'");
      SawHeader = true;
      continue;
    }
    if (Fields[0] == "seq") {
      if (Fields.size() < 5)
        return Fail("malformed seq line: " + std::string(Line));
      ProfileEntry Entry;
      if (Fields[1] == "range")
        Entry.Kind = ProfileKind::RangeBins;
      else if (Fields[1] == "combo")
        Entry.Kind = ProfileKind::ComboOutcomes;
      else if (Fields[1] == "legacy")
        Entry.Kind = ProfileKind::Legacy;
      else if (Fields[1] == "edges")
        Entry.Kind = ProfileKind::EdgeWeights;
      else if (Fields[1] == "mispred")
        Entry.Kind = ProfileKind::Misprediction;
      else
        return Fail("unknown profile kind '" + std::string(Fields[1]) + "'");
      Entry.FunctionName = std::string(Fields[2]);
      long long Ordinal = 0;
      if (!parseInteger(Fields[3], Ordinal) || Ordinal < 0)
        return Fail("malformed ordinal: " + std::string(Line));
      Entry.Ordinal = static_cast<unsigned>(Ordinal);
      Entry.Signature = std::string(Fields[4]);
      for (size_t Index = 5; Index < Fields.size(); ++Index) {
        long long Count = 0;
        if (!parseInteger(Fields[Index], Count) || Count < 0)
          return Fail("malformed count: " + std::string(Line));
        Entry.BinCounts.push_back(static_cast<uint64_t>(Count));
      }
      if (findEntry(Entry.Kind, Entry.FunctionName, Entry.Ordinal))
        return Fail("duplicate entry: " + std::string(Line));
      addEntry(std::move(Entry));
    } else if (Fields[0] == "hot") {
      if (Fields.size() < 2 || (Fields.size() - 2) % 2 != 0)
        return Fail("malformed hot line: " + std::string(Line));
      std::string Name(Fields[1]);
      if (HotIndex.count(Name))
        return Fail("duplicate hot record: " + std::string(Line));
      FunctionHotness &H =
          functionHotness(std::move(Name), (Fields.size() - 2) / 2);
      for (size_t Id = 0; Id < H.Total.size(); ++Id) {
        long long Taken = 0, Total = 0;
        if (!parseInteger(Fields[2 + 2 * Id], Taken) || Taken < 0 ||
            !parseInteger(Fields[3 + 2 * Id], Total) || Total < 0)
          return Fail("malformed hot line: " + std::string(Line));
        H.Taken[Id] = static_cast<uint64_t>(Taken);
        H.Total[Id] = static_cast<uint64_t>(Total);
      }
    } else {
      return Fail("unknown record type: " + std::string(Line));
    }
  }
  return true;
}

bool ProfileDB::deserializeTextV1(std::string_view Text, std::string *Error) {
  auto Fail = [&](const std::string &Reason) {
    Entries.clear();
    Hotness.clear();
    KeyIndex.clear();
    HotIndex.clear();
    if (Error)
      *Error = Reason;
    return false;
  };

  // Version 1 lines: `seq <id> <func> <sig> <count>*` with module-wide
  // discovery-order ids and no kind.  Convert to Legacy entries whose
  // per-function ordinals follow id order — the order detection assigned,
  // so range-sequence ordinals line up with a re-detection.
  struct V1Record {
    unsigned Id;
    ProfileEntry Entry;
  };
  std::vector<V1Record> Records;
  for (std::string_view Line : splitString(Text, '\n')) {
    Line = trimString(Line);
    if (Line.empty())
      continue;
    std::vector<std::string_view> Fields = fieldsOf(Line);
    if (Fields.size() < 4 || Fields[0] != "seq")
      return Fail("malformed profile line: " + std::string(Line));
    long long Id = 0;
    if (!parseInteger(Fields[1], Id) || Id < 0)
      return Fail("malformed sequence id: " + std::string(Line));
    V1Record Record;
    Record.Id = static_cast<unsigned>(Id);
    Record.Entry.Kind = ProfileKind::Legacy;
    Record.Entry.FunctionName = std::string(Fields[2]);
    Record.Entry.Signature = std::string(Fields[3]);
    for (size_t Index = 4; Index < Fields.size(); ++Index) {
      long long Count = 0;
      if (!parseInteger(Fields[Index], Count) || Count < 0)
        return Fail("malformed count: " + std::string(Line));
      Record.Entry.BinCounts.push_back(static_cast<uint64_t>(Count));
    }
    for (const V1Record &Seen : Records)
      if (Seen.Id == Record.Id)
        return Fail("duplicate sequence id: " + std::string(Line));
    Records.push_back(std::move(Record));
  }
  std::sort(Records.begin(), Records.end(),
            [](const V1Record &A, const V1Record &B) { return A.Id < B.Id; });
  SequenceKeyer Keyer;
  for (V1Record &Record : Records) {
    Record.Entry.Ordinal =
        Keyer.next(ProfileKind::Legacy, Record.Entry.FunctionName);
    addEntry(std::move(Record.Entry));
  }
  return true;
}

bool ProfileDB::deserialize(std::string_view Data, std::string *Error) {
  Entries.clear();
  Hotness.clear();
  KeyIndex.clear();
  HotIndex.clear();
  IdIndex.clear();
  if (Data.size() > sizeof(BinaryMagic) &&
      std::memcmp(Data.data(), BinaryMagic, sizeof(BinaryMagic)) == 0)
    return deserializeBinary(Data, Error);
  std::string_view FirstLine = Data.substr(0, Data.find('\n'));
  if (trimString(FirstLine).substr(0, 13) == "bropt-profile")
    return deserializeTextV2(Data, Error);
  return deserializeTextV1(Data, Error);
}

bool ProfileDB::saveFile(const std::string &Path, bool Binary,
                         std::string *Error) const {
  std::ofstream Stream(Path, std::ios::binary);
  if (!Stream) {
    if (Error)
      *Error = "cannot write '" + Path + "'";
    return false;
  }
  std::string Data = Binary ? serializeBinary() : serializeText();
  Stream.write(Data.data(), static_cast<std::streamsize>(Data.size()));
  if (!Stream) {
    if (Error)
      *Error = "write to '" + Path + "' failed";
    return false;
  }
  return true;
}

bool ProfileDB::loadFile(const std::string &Path, std::string *Error) {
  std::ifstream Stream(Path, std::ios::binary);
  if (!Stream) {
    if (Error)
      *Error = "cannot read '" + Path + "'";
    return false;
  }
  std::ostringstream Buffer;
  Buffer << Stream.rdbuf();
  return deserialize(Buffer.str(), Error);
}
