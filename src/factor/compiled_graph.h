#ifndef DEEPDIVE_FACTOR_COMPILED_GRAPH_H_
#define DEEPDIVE_FACTOR_COMPILED_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "factor/factor_graph.h"
#include "factor/semantics.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace deepdive::factor {

// ---- on-disk / in-memory image format --------------------------------------
//
// A CompiledGraph is one contiguous byte image: a fixed header followed by
// 64-byte-aligned sections of flat POD arrays (structure-of-arrays CSR
// layout). The in-memory representation IS the file format, so saving is a
// single write and loading is mmap + pointer fixup — zero parse, zero copy
// (weight values are the one exception: they are copied into an owned array
// so the learner can update them against a read-only mapping).
//
//   [CompiledGraphHeader]
//   [evidence tags        int8[V] ]   -1 = negative, 0 = query, +1 = positive
//   [weight values        f64 [W] ]
//   [weight learnable     u8  [W] ]
//   [weight desc offsets  u64 [W+1]]  CSR into the description blob
//   [weight desc blob     char[D] ]
//   [weight group offsets u64 [W+1]]  CSR: weight -> compiled group ids
//   [weight groups        u32 [WG]]
//   [groups               CompiledGroup[G] ]
//   [group orig ids       u32 [G] ]   pre-compaction GroupId per group
//   [group clause offsets u64 [G+1]]  CSR: group -> compiled clause ids
//   [group clauses        u32 [C] ]
//   [clause groups        u32 [C] ]   owning compiled group per clause
//   [clause orig ids      u32 [C] ]   pre-compaction ClauseId per clause
//   [clause lit offsets   u64 [C+1]]  CSR: clause -> literals
//   [literals             CompiledLiteral[L] ]
//   [head offsets         u64 [V+1]]  CSR: var -> compiled head-group ids
//   [head groups          u32 [H] ]
//   [body offsets         u64 [V+1]]  CSR: var -> body memberships
//   [body refs            CompiledBodyRef[B] ]
//
// Compaction: inactive groups, and inactive clauses of active groups, are
// dropped at compile time; every surviving element keeps its original
// RELATIVE order. Variables and weights are never compacted, so marginal and
// weight vectors map 1:1 onto the source graph's ids. Order preservation is
// what keeps the kernels' iteration over the active elements in the source
// graph's order, and with it their floating-point accumulation order and RNG
// consumption.
//
// Versioning/compat rules: `version` bumps on any layout change; readers
// reject unknown versions and foreign endianness (the marker below reads as
// 0x04030201 on a swapped machine) rather than guessing. `reserved` fields
// must be written as zero and ignored on read, so adding metadata there is a
// compatible change; adding/removing sections is not.

inline constexpr uint64_t kCompiledGraphMagic = 0xdd11c0de'f4c70002ULL;
inline constexpr uint32_t kCompiledGraphVersion = 2;
inline constexpr uint32_t kCompiledGraphEndian = 0x01020304;

enum CompiledSection : size_t {
  kSecEvidence = 0,
  kSecWeightValues,
  kSecWeightLearnable,
  kSecWeightDescOffsets,
  kSecWeightDescBlob,
  kSecWeightGroupOffsets,
  kSecWeightGroups,
  kSecGroups,
  kSecGroupOrigIds,
  kSecGroupClauseOffsets,
  kSecGroupClauses,
  kSecClauseGroups,
  kSecClauseOrigIds,
  kSecClauseLitOffsets,
  kSecLiterals,
  kSecHeadOffsets,
  kSecHeadGroups,
  kSecBodyOffsets,
  kSecBodyRefs,
  kNumCompiledSections,
};

struct CompiledSectionEntry {
  uint64_t offset = 0;  // from the start of the image; 64-byte aligned
  uint64_t bytes = 0;
};

struct CompiledGraphHeader {
  uint64_t magic = kCompiledGraphMagic;
  uint32_t version = kCompiledGraphVersion;
  uint32_t endian = kCompiledGraphEndian;
  uint64_t total_bytes = 0;
  /// FNV-1a over [sizeof(CompiledGraphHeader), total_bytes).
  uint64_t checksum = 0;
  uint64_t num_variables = 0;
  uint64_t num_weights = 0;
  uint64_t num_groups = 0;
  uint64_t num_clauses = 0;
  uint64_t num_literals = 0;
  uint64_t num_head_refs = 0;
  uint64_t num_body_refs = 0;
  uint64_t num_weight_group_refs = 0;
  uint64_t desc_blob_bytes = 0;
  uint64_t reserved[2] = {0, 0};
  CompiledSectionEntry sections[kNumCompiledSections] = {};
};
static_assert(sizeof(CompiledGraphHeader) ==
                  8 * 13 + 16 + sizeof(CompiledSectionEntry) * kNumCompiledSections,
              "header layout must stay packed (no implicit padding)");

/// Flat factor-group record (16 bytes). Every compiled group is active:
/// inactive groups are compacted out of the image.
struct CompiledGroup {
  VarId head = kNoVar;
  WeightId weight = 0;
  uint32_t rule_id = 0;
  Semantics semantics = Semantics::kLinear;
  uint8_t pad0 = 0;
  uint16_t pad1 = 0;
};
static_assert(sizeof(CompiledGroup) == 16 && std::is_trivially_copyable_v<CompiledGroup>);

/// Flat body-literal record (8 bytes). `negated` is 0/1.
struct CompiledLiteral {
  VarId var = kNoVar;
  uint32_t negated = 0;
};
static_assert(sizeof(CompiledLiteral) == 8 && std::is_trivially_copyable_v<CompiledLiteral>);

/// Flat body-membership record (8 bytes): var appears (possibly negated) in
/// the body of compiled clause `clause`.
struct CompiledBodyRef {
  ClauseId clause = 0;
  uint32_t negated = 0;
};
static_assert(sizeof(CompiledBodyRef) == 8 && std::is_trivially_copyable_v<CompiledBodyRef>);

/// What CompiledGraph::Splice appends after a compiled base graph. Appended
/// ids continue the base's: weight i is base.NumWeights() + i, group i is
/// base.NumGroups() + i, and clause j is base.NumClauses() + j, where
/// clauses are numbered group by group.
struct CompiledAppendix {
  struct AppendedWeight {
    double value = 0.0;
    bool learnable = false;
    /// Must stay valid until Splice returns.
    std::string_view description;
  };

  /// Width of the spliced graph, at least the base's. Variables past the
  /// base start as query variables.
  size_t num_variables = 0;
  /// Evidence assignments applied in order over the base's; nullopt clears.
  std::vector<std::pair<VarId, std::optional<bool>>> evidence;
  std::vector<AppendedWeight> weights;
  /// `weight` ids are in the spliced numbering (base or appended weights).
  std::vector<CompiledGroup> groups;
  /// CSR: appended group i owns appended clauses [offsets[i], offsets[i+1]).
  std::vector<uint64_t> group_clause_offsets{0};
  /// CSR: appended clause j owns literals [offsets[j], offsets[j+1]).
  std::vector<uint64_t> clause_literal_offsets{0};
  std::vector<CompiledLiteral> literals;

  /// Appends a group; the clauses added next belong to it.
  void AddGroup(const CompiledGroup& group) {
    groups.push_back(group);
    group_clause_offsets.push_back(group_clause_offsets.back());
  }
  /// Appends a clause to the last group added.
  void AddClause(const std::vector<Literal>& clause_literals) {
    for (const Literal& lit : clause_literals) {
      literals.push_back(CompiledLiteral{lit.var, lit.negated ? 1u : 0u});
    }
    clause_literal_offsets.push_back(literals.size());
    ++group_clause_offsets.back();
  }
};

/// A frozen, structure-of-arrays CSR snapshot of a post-grounding factor
/// graph — the DimmWitted-style contiguous-array layout the Gibbs hot loop
/// wants, built once per materialization freeze and consumed by every world,
/// sampler and learner in inference/.
///
/// Thread contract: the structure is frozen after construction — every
/// accessor below reads immutable bytes and is safe to call concurrently
/// from any thread with no synchronization (frozen-after-publish). The one
/// mutable member is the owned weight-value array: SetWeightValue is
/// single-writer (the learner or the variational fit, between inference
/// runs), exactly the FactorGraph weight contract.
class CompiledGraph {
 public:
  CompiledGraph() = default;
  CompiledGraph(CompiledGraph&&) noexcept = default;
  CompiledGraph& operator=(CompiledGraph&&) noexcept = default;
  CompiledGraph(const CompiledGraph&) = delete;
  CompiledGraph& operator=(const CompiledGraph&) = delete;

  /// Freezes `graph` into the flat image: active groups (and active clauses
  /// of active groups) only, original relative order preserved; variables
  /// and weights keep their ids. O(graph).
  static CompiledGraph Compile(const FactorGraph& graph);

  /// The image of `base` with `appendix` appended, without building a
  /// FactorGraph: the base sections are copied, the appended weights,
  /// groups, clauses and literals follow them, and each variable's head and
  /// body rows (and each weight's group row) hold the base row followed by
  /// the appended entries in order. Byte-identical to Compile of
  /// Decompile(base) extended through the FactorGraph API (variables up to
  /// num_variables, then each weight, then each group followed by its
  /// clauses, then the evidence in order), so the kernels iterate, sum and
  /// draw in the order a full compile gives. Original ids are the compiled
  /// ids, as after a Decompile. O(image).
  static CompiledGraph Splice(const CompiledGraph& base,
                              const CompiledAppendix& appendix);

  /// Adopts a complete image from owned bytes (buffered file read or a
  /// just-built image). `validate` runs the deep integrity pass — checksum,
  /// offset monotonicity, id bounds — on top of the always-on header and
  /// section-bounds checks; a validated image cannot index out of bounds.
  static StatusOr<CompiledGraph> FromImage(std::vector<uint8_t> image,
                                           bool validate = true);

  /// Adopts a memory-mapped image (zero-copy load path).
  static StatusOr<CompiledGraph> FromMmap(MmapFile mmap, bool validate = true);

  /// Reconstructs a mutable FactorGraph (for incremental growth after a cold
  /// start). Ids are the compiled ids — compacted relative to the original
  /// pre-compaction graph, but producing bit-identical inference results.
  FactorGraph Decompile() const;

  // ---- image / identity ----

  /// The raw image bytes (header included); immutable, any thread.
  const uint8_t* image_data() const { return base_; }
  size_t image_bytes() const { return bytes_; }
  /// The image header; immutable after attach, readable from any thread.
  const CompiledGraphHeader& header() const { return *header_; }

  /// Structure+weights checksum: exactly the value SaveCompiledGraph writes,
  /// recomputed over the current (possibly learner-updated) weight values.
  uint64_t Checksum() const;

  // ---- counts ----

  size_t NumVariables() const { return num_variables_; }
  size_t NumWeights() const { return num_weights_; }
  size_t NumGroups() const { return num_groups_; }
  size_t NumClauses() const { return num_clauses_; }
  size_t NumLiterals() const { return static_cast<size_t>(header_->num_literals); }

  // ---- variables ----

  bool IsEvidence(VarId v) const { return evidence_[v] != 0; }
  std::optional<bool> EvidenceValue(VarId v) const {
    const int8_t tag = evidence_[v];
    if (tag == 0) return std::nullopt;
    return tag > 0;
  }

  // ---- weights ----

  double WeightValue(WeightId w) const { return weight_values_[w]; }
  /// Single-writer (learner or variational fit, between runs); see the class
  /// thread contract.
  void SetWeightValue(WeightId w, double value) { weight_values_[w] = value; }
  bool WeightLearnable(WeightId w) const { return weight_learnable_[w] != 0; }
  std::string_view WeightDescription(WeightId w) const {
    return {weight_desc_blob_ + weight_desc_offsets_[w],
            static_cast<size_t>(weight_desc_offsets_[w + 1] - weight_desc_offsets_[w])};
  }
  /// Compiled group ids carrying weight `w`; frozen, any thread.
  std::span<const GroupId> GroupsForWeight(WeightId w) const {
    return {weight_groups_ + weight_group_offsets_[w],
            static_cast<size_t>(weight_group_offsets_[w + 1] - weight_group_offsets_[w])};
  }

  // ---- groups / clauses (frozen-after-publish; read from any thread) ----

  /// The flat group record; aliases the immutable image, any thread.
  const CompiledGroup& group(GroupId g) const { return groups_[g]; }
  uint32_t OriginalGroupId(GroupId g) const { return group_orig_ids_[g]; }
  /// Compiled clause ids of group `g`, ascending; frozen, any thread.
  std::span<const ClauseId> GroupClauses(GroupId g) const {
    return {group_clauses_ + group_clause_offsets_[g],
            static_cast<size_t>(group_clause_offsets_[g + 1] - group_clause_offsets_[g])};
  }

  /// The group owning clause `c` (every compiled clause is active).
  GroupId ClauseGroup(ClauseId c) const { return clause_groups_[c]; }
  uint32_t OriginalClauseId(ClauseId c) const { return clause_orig_ids_[c]; }
  /// Literals of clause `c`; frozen, any thread.
  std::span<const CompiledLiteral> ClauseLiterals(ClauseId c) const {
    return {literals_ + clause_lit_offsets_[c],
            static_cast<size_t>(clause_lit_offsets_[c + 1] - clause_lit_offsets_[c])};
  }

  // ---- per-variable adjacency (frozen-after-publish; any thread) ----

  /// Compiled groups with `v` as head; frozen, any thread.
  std::span<const GroupId> HeadGroups(VarId v) const {
    return {head_groups_ + head_offsets_[v],
            static_cast<size_t>(head_offsets_[v + 1] - head_offsets_[v])};
  }
  /// Body memberships of `v`; frozen, any thread.
  std::span<const CompiledBodyRef> BodyRefs(VarId v) const {
    return {body_refs_ + body_offsets_[v],
            static_cast<size_t>(body_offsets_[v + 1] - body_offsets_[v])};
  }

 private:
  /// Validates the image (shallow always; deep integrity when `validate`)
  /// and caches the typed section pointers + the owned weight-value copy.
  Status Attach(bool validate);

  // Exactly one of owned_/mmap_ backs base_; moves keep base_ valid because
  // both preserve their data pointer.
  std::vector<uint8_t> owned_;
  MmapFile mmap_;
  const uint8_t* base_ = nullptr;
  size_t bytes_ = 0;

  const CompiledGraphHeader* header_ = nullptr;
  size_t num_variables_ = 0;
  size_t num_weights_ = 0;
  size_t num_groups_ = 0;
  size_t num_clauses_ = 0;

  const int8_t* evidence_ = nullptr;
  const uint8_t* weight_learnable_ = nullptr;
  const uint64_t* weight_desc_offsets_ = nullptr;
  const char* weight_desc_blob_ = nullptr;
  const uint64_t* weight_group_offsets_ = nullptr;
  const GroupId* weight_groups_ = nullptr;
  const CompiledGroup* groups_ = nullptr;
  const uint32_t* group_orig_ids_ = nullptr;
  const uint64_t* group_clause_offsets_ = nullptr;
  const ClauseId* group_clauses_ = nullptr;
  const GroupId* clause_groups_ = nullptr;
  const uint32_t* clause_orig_ids_ = nullptr;
  const uint64_t* clause_lit_offsets_ = nullptr;
  const CompiledLiteral* literals_ = nullptr;
  const uint64_t* head_offsets_ = nullptr;
  const GroupId* head_groups_ = nullptr;
  const uint64_t* body_offsets_ = nullptr;
  const CompiledBodyRef* body_refs_ = nullptr;

  /// Learner-mutable copy of the weight-value section (the image may be a
  /// read-only mapping). Serialized back by SaveCompiledGraph / Checksum().
  std::vector<double> weight_values_;
};

/// Streaming FNV-1a (64-bit) over 8-byte words used for image checksums:
/// little-endian words (plus a zero-padded tail) feed the FNV round instead
/// of single bytes, so hashing a multi-GB mapping costs ~1/8th of byte-wise
/// FNV while keeping the same streaming/seed-chaining structure. All image
/// sections are 64-bit aligned, so word loads are the natural unit. The word
/// variant is part of the v2 format: checksums written by one build must
/// verify on another.
uint64_t Fnv1aHash(const void* data, size_t bytes,
                   uint64_t seed = 0xcbf29ce484222325ULL);

}  // namespace deepdive::factor

#endif  // DEEPDIVE_FACTOR_COMPILED_GRAPH_H_
