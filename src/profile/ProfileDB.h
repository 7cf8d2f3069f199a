//===- profile/ProfileDB.h - The unified, versioned profile store -*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One store for every profile the pipeline collects or consumes:
///
///  - range-bin counts per detected range-condition sequence (paper §5:
///    explicit conditions in original order, then the computed default
///    ranges ascending — exactly one bin per head execution, which is the
///    per-range exit probability of Definition 9),
///  - 2^n outcome-combination counts per common-successor sequence
///    (paper §10),
///  - per-branch taken/total hotness, grouped by function in branch
///    layout order (the fuser's hot-first layout input).
///
/// Entries are keyed by (kind, function name, ordinal) where the ordinal
/// is the sequence's position among same-kind sequences of its function in
/// detection order, and carry the sequence's shape signature.  Unlike the
/// old module-wide discovery-order SequenceId — whose stability silently
/// depended on deterministic detection — a mismatch here is *diagnosed*:
/// consumers get a ProfileLookupStatus explaining why a record was skipped
/// instead of misattributing counts.
///
/// The store serializes to a line-oriented text format (version 2, with a
/// `bropt-profile v2` header) and a compact binary format; the headerless
/// PR-1/PR-2 text format loads through a version-1 compatibility path that
/// marks its records ProfileKind::Legacy.  Profiles merge record-by-record
/// with an explicit conflict policy: matching records sum, conflicting
/// records are skipped and reported (paper §9 suggests merging profiles
/// from several training sets to cover more sequences).
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_PROFILE_PROFILEDB_H
#define BROPT_PROFILE_PROFILEDB_H

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace bropt {

/// What a sequence entry's bins mean.
enum class ProfileKind : uint8_t {
  RangeBins = 0,     ///< one bin per range (explicit, then defaults)
  ComboOutcomes = 1, ///< 2^n bins, one per branch-outcome combination
  Legacy = 2,        ///< loaded from a version-1 file; kind unknown
  EdgeWeights = 3,   ///< one bin per executed CFG edge; the signature is
                     ///< the canonical sorted "from-to,..." edge-key list
                     ///< (profile/EdgeProfile.h), one entry per function
                     ///< at ordinal 0
  Misprediction = 4, ///< three bins (mispredicts, taken, executions) per
                     ///< static conditional branch, in layout order; the
                     ///< signature is "<predictor>:<branch count>"
                     ///< (profile/MispredictProfile.h), one entry per
                     ///< function at ordinal 0
};

const char *profileKindName(ProfileKind Kind);

/// Counter record for one profiled sequence.
struct ProfileEntry {
  ProfileKind Kind = ProfileKind::RangeBins;
  /// Name of the function the sequence lives in.
  std::string FunctionName;
  /// Sanity fingerprint of the sequence shape (range bounds etc.).
  std::string Signature;
  /// Position among same-kind sequences of the function, in detection
  /// order.  Detection is deterministic, so producers and consumers agree
  /// on ordinals as long as they register *every* detected sequence.
  unsigned Ordinal = 0;
  /// One counter per bin; bin layout is defined by Kind.
  std::vector<uint64_t> BinCounts;

  /// Total number of times the sequence head executed.
  uint64_t totalExecutions() const;
};

/// Per-branch taken/total counts of one function, in branch layout order
/// (the ids DecodedModule::decode assigns, made function-relative).
struct FunctionHotness {
  std::string FunctionName;
  std::vector<uint64_t> Taken;
  std::vector<uint64_t> Total;
};

/// Why lookupSequence() did or did not return an entry.
enum class ProfileLookupStatus : uint8_t {
  Found,            ///< entry returned
  Missing,          ///< no record at this (kind, function, ordinal)
  StaleSignature,   ///< record exists but fingerprints a different shape
  BinCountMismatch, ///< record exists but has the wrong number of bins
};

const char *profileLookupStatusName(ProfileLookupStatus Status);

/// What merge() did, record by record.
struct ProfileMergeStats {
  unsigned Added = 0;   ///< records copied (unknown here before)
  unsigned Merged = 0;  ///< records whose counts were summed
  unsigned Skipped = 0; ///< conflicting records left untouched
  /// One human-readable diagnostic per skipped record.
  std::vector<std::string> Conflicts;

  bool clean() const { return Skipped == 0; }
};

/// Assigns per-(kind, function) ordinals in visitation order.  Consumers
/// walk their detected sequences in detection order and ask for each one's
/// ordinal; producers get the same numbering from registration order.
class SequenceKeyer {
public:
  unsigned next(ProfileKind Kind, const std::string &FunctionName) {
    return NextOrdinal[std::to_string(static_cast<unsigned>(Kind)) + "/" +
                       FunctionName]++;
  }

private:
  std::unordered_map<std::string, unsigned> NextOrdinal;
};

/// The unified profile store.
class ProfileDB {
public:
  /// Version written by serializeText()/serializeBinary().
  static constexpr unsigned CurrentFormatVersion = 2;

  /// Creates the record for a sequence with \p NumBins zeroed counters and
  /// the next free ordinal of (\p Kind, \p FunctionName).  \p RuntimeId is
  /// a transient handle for increment() — the instrumenter's hook ids —
  /// and is not serialized.  Asserts the id is fresh.
  ProfileEntry &registerSequence(ProfileKind Kind, unsigned RuntimeId,
                                 std::string FunctionName,
                                 std::string Signature, size_t NumBins);

  /// Adds \p Weight to a bin of a registered sequence (by runtime id).
  void increment(unsigned RuntimeId, size_t Bin, uint64_t Weight = 1);

  /// Get-or-create the record at (\p Kind, \p FunctionName, \p Ordinal)
  /// directly, without a runtime id.  A fresh record gets \p Signature and
  /// \p NumBins zeroed counters; an existing record whose signature or bin
  /// count disagrees is reset to the new shape — exporters that snapshot a
  /// re-measured plane (edge weights) overwrite rather than misattribute.
  ProfileEntry &upsertEntry(ProfileKind Kind, std::string FunctionName,
                            std::string Signature, unsigned Ordinal,
                            size_t NumBins);

  /// Keyed consumer lookup with staleness validation.  \returns the entry
  /// only when one exists at (\p Kind, \p FunctionName, \p Ordinal) — a
  /// Legacy entry matches any kind — and its signature and bin count agree
  /// with the sequence in hand; otherwise null, with the reason in
  /// \p Status when provided.
  const ProfileEntry *lookupSequence(ProfileKind Kind,
                                     std::string_view FunctionName,
                                     std::string_view Signature,
                                     size_t NumBins, unsigned Ordinal,
                                     ProfileLookupStatus *Status =
                                         nullptr) const;

  /// Get-or-create the hotness record of \p FunctionName with
  /// \p NumBranches conditional branches.
  FunctionHotness &functionHotness(std::string FunctionName,
                                   size_t NumBranches);

  /// \returns the hotness record of \p FunctionName, or null.
  const FunctionHotness *findFunctionHotness(
      std::string_view FunctionName) const;

  const std::vector<FunctionHotness> &hotness() const { return Hotness; }

  /// Adds \p Other's counts into this profile: records unknown here are
  /// copied, matching records (same kind, function, ordinal, signature,
  /// and bin/branch count) sum, and conflicting records are skipped with a
  /// diagnostic — never silently misattributed.
  ProfileMergeStats merge(const ProfileDB &Other);

  size_t numSequences() const { return Entries.size(); }
  bool empty() const { return Entries.empty() && Hotness.empty(); }

  auto begin() const { return Entries.begin(); }
  auto end() const { return Entries.end(); }

  /// Serializes to the version-2 text format.  Records are emitted in
  /// canonical (function, kind, ordinal) order, so two equal stores —
  /// e.g. merges of the same inputs in either order — serialize
  /// identically.
  std::string serializeText() const;

  /// Serializes to the compact binary format (same canonical order).
  /// The result is binary-safe data carried in a std::string.
  std::string serializeBinary() const;

  /// Parses any supported format: binary, version-2 text, or the
  /// headerless version-1 text of PR 1/2 (whose records load as
  /// ProfileKind::Legacy with per-function ordinals in id order).
  /// \returns false on malformed input, leaving the store empty and the
  /// reason in \p Error when provided.
  bool deserialize(std::string_view Data, std::string *Error = nullptr);

  /// File convenience wrappers around serialize/deserialize.
  bool saveFile(const std::string &Path, bool Binary = false,
                std::string *Error = nullptr) const;
  bool loadFile(const std::string &Path, std::string *Error = nullptr);

private:
  ProfileEntry *findEntry(ProfileKind Kind, std::string_view FunctionName,
                          unsigned Ordinal);
  const ProfileEntry *findEntry(ProfileKind Kind,
                                std::string_view FunctionName,
                                unsigned Ordinal) const;
  /// Appends an entry (keeping the key index in sync); the key must be
  /// free.
  ProfileEntry &addEntry(ProfileEntry Entry);
  bool deserializeTextV1(std::string_view Text, std::string *Error);
  bool deserializeTextV2(std::string_view Text, std::string *Error);
  bool deserializeBinary(std::string_view Data, std::string *Error);

  std::vector<ProfileEntry> Entries;
  std::vector<FunctionHotness> Hotness;
  /// (kind, function, ordinal) -> index into Entries.
  std::unordered_map<std::string, size_t> KeyIndex;
  /// function -> index into Hotness.
  std::unordered_map<std::string, size_t> HotIndex;
  /// Indexed by transient runtime id: the index into Entries, or NoEntry
  /// for an id never registered.  Runtime ids are the instrumenter's
  /// dense sequence ids, so a hook's increment() does not hash.  Rebuilt
  /// by registration, empty after deserialize().
  static constexpr size_t NoEntry = ~size_t{0};
  std::vector<size_t> IdIndex;
};

} // namespace bropt

#endif // BROPT_PROFILE_PROFILEDB_H
