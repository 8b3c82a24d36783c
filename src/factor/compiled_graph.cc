#include "factor/compiled_graph.h"

#include <cstring>
#include <string>

#include "util/logging.h"

namespace deepdive::factor {

namespace {

constexpr size_t kSectionAlign = 64;
constexpr uint32_t kDroppedId = static_cast<uint32_t>(-1);
/// Ceiling on any element count in a snapshot (2^40 elements); rejects
/// fabricated headers whose count*stride products would overflow 64 bits.
constexpr uint64_t kMaxCount = uint64_t{1} << 40;

size_t AlignUp(size_t n, size_t align) { return (n + align - 1) & ~(align - 1); }

struct SectionSpec {
  uint64_t count = 0;
  uint64_t stride = 1;  // bytes per element (1 for raw blobs)
  uint64_t bytes() const { return count * stride; }
};

/// The expected size of every section, derived from the header counts. This
/// single table drives both the writer's layout and the reader's bounds
/// validation, so they cannot drift.
void SectionSpecs(const CompiledGraphHeader& h, SectionSpec out[kNumCompiledSections]) {
  out[kSecEvidence] = {h.num_variables, sizeof(int8_t)};
  out[kSecWeightValues] = {h.num_weights, sizeof(double)};
  out[kSecWeightLearnable] = {h.num_weights, sizeof(uint8_t)};
  out[kSecWeightDescOffsets] = {h.num_weights + 1, sizeof(uint64_t)};
  out[kSecWeightDescBlob] = {h.desc_blob_bytes, 1};
  out[kSecWeightGroupOffsets] = {h.num_weights + 1, sizeof(uint64_t)};
  out[kSecWeightGroups] = {h.num_weight_group_refs, sizeof(GroupId)};
  out[kSecGroups] = {h.num_groups, sizeof(CompiledGroup)};
  out[kSecGroupOrigIds] = {h.num_groups, sizeof(uint32_t)};
  out[kSecGroupClauseOffsets] = {h.num_groups + 1, sizeof(uint64_t)};
  out[kSecGroupClauses] = {h.num_clauses, sizeof(ClauseId)};
  out[kSecClauseGroups] = {h.num_clauses, sizeof(GroupId)};
  out[kSecClauseOrigIds] = {h.num_clauses, sizeof(uint32_t)};
  out[kSecClauseLitOffsets] = {h.num_clauses + 1, sizeof(uint64_t)};
  out[kSecLiterals] = {h.num_literals, sizeof(CompiledLiteral)};
  out[kSecHeadOffsets] = {h.num_variables + 1, sizeof(uint64_t)};
  out[kSecHeadGroups] = {h.num_head_refs, sizeof(GroupId)};
  out[kSecBodyOffsets] = {h.num_variables + 1, sizeof(uint64_t)};
  out[kSecBodyRefs] = {h.num_body_refs, sizeof(CompiledBodyRef)};
}

/// Always-on structural validation: header sanity plus section bounds. After
/// this passes, every section pointer is within the image and correctly
/// sized, so typed pointer fixup is safe (contents may still be garbage —
/// that is the deep pass's job).
Status ValidateShallow(const uint8_t* base, size_t bytes) {
  if (bytes < sizeof(CompiledGraphHeader)) {
    return Status::InvalidArgument("snapshot truncated: shorter than its header");
  }
  CompiledGraphHeader h;
  std::memcpy(&h, base, sizeof(h));  // the image may be unaligned in tests
  if (h.magic != kCompiledGraphMagic) {
    return Status::InvalidArgument("not a compiled factor-graph snapshot (bad magic)");
  }
  if (h.endian != kCompiledGraphEndian) {
    return Status::InvalidArgument("snapshot written with foreign endianness");
  }
  if (h.version != kCompiledGraphVersion) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(h.version) + " (expected " +
                                   std::to_string(kCompiledGraphVersion) + ")");
  }
  if (h.total_bytes != bytes) {
    return Status::InvalidArgument(
        "snapshot truncated or padded: header claims " + std::to_string(h.total_bytes) +
        " bytes, file has " + std::to_string(bytes));
  }
  const uint64_t counts[] = {h.num_variables,  h.num_weights,   h.num_groups,
                             h.num_clauses,    h.num_literals,  h.num_head_refs,
                             h.num_body_refs,  h.num_weight_group_refs,
                             h.desc_blob_bytes};
  for (const uint64_t c : counts) {
    if (c > kMaxCount) return Status::InvalidArgument("snapshot count out of range");
  }
  SectionSpec specs[kNumCompiledSections];
  SectionSpecs(h, specs);
  for (size_t s = 0; s < kNumCompiledSections; ++s) {
    const CompiledSectionEntry& sec = h.sections[s];
    if (sec.bytes != specs[s].bytes()) {
      return Status::InvalidArgument("snapshot section " + std::to_string(s) +
                                     " size disagrees with header counts");
    }
    if (sec.offset < sizeof(CompiledGraphHeader) || sec.offset % 8 != 0 ||
        sec.offset > bytes || sec.bytes > bytes - sec.offset) {
      return Status::InvalidArgument("snapshot section " + std::to_string(s) +
                                     " out of bounds");
    }
  }
  return Status::OK();
}

Status CheckOffsets(const uint64_t* offsets, uint64_t n, uint64_t expected_total,
                    const char* what) {
  if (offsets[0] != 0) {
    return Status::InvalidArgument(std::string(what) + " offsets must start at 0");
  }
  for (uint64_t i = 0; i < n; ++i) {
    if (offsets[i + 1] < offsets[i]) {
      return Status::InvalidArgument(std::string(what) + " offsets not monotone");
    }
  }
  if (offsets[n] != expected_total) {
    return Status::InvalidArgument(std::string(what) +
                                   " offsets disagree with the section count");
  }
  return Status::OK();
}

/// The evidence section's tag: -1 = negative, 0 = query, +1 = positive.
int8_t EvidenceTag(std::optional<bool> value) {
  return !value.has_value() ? 0 : (*value ? 1 : -1);
}

/// Places every section after the header, 64-byte aligned and in section
/// order, from `h`'s counts; returns a zeroed image of h->total_bytes.
std::vector<uint8_t> LayOutImage(CompiledGraphHeader* h) {
  SectionSpec specs[kNumCompiledSections];
  SectionSpecs(*h, specs);
  size_t cursor = sizeof(CompiledGraphHeader);
  for (size_t s = 0; s < kNumCompiledSections; ++s) {
    cursor = AlignUp(cursor, kSectionAlign);
    h->sections[s].offset = cursor;
    h->sections[s].bytes = specs[s].bytes();
    cursor += static_cast<size_t>(specs[s].bytes());
  }
  h->total_bytes = AlignUp(cursor, kSectionAlign);
  return std::vector<uint8_t>(static_cast<size_t>(h->total_bytes), 0);
}

/// Typed access to the sections of an image being written (header `h`),
/// and copies into them from a base image (header `b`).
struct SectionWriter {
  std::vector<uint8_t>* image;
  const CompiledGraphHeader& h;
  const uint8_t* base;
  const CompiledGraphHeader& b;

  template <typename T>
  T* At(CompiledSection s) const {
    return reinterpret_cast<T*>(image->data() + h.sections[s].offset);
  }
  /// Copies the base's section `s` to the front of this image's; returns
  /// where the elements appended after it go.
  template <typename T>
  T* CopyBase(CompiledSection s) const {
    std::memcpy(At<T>(s), base + b.sections[s].offset, b.sections[s].bytes);
    return At<T>(s) + b.sections[s].bytes / sizeof(T);
  }
};

/// Writes `h` and the payload checksum into a filled image and adopts it.
CompiledGraph SealImage(const CompiledGraphHeader& h, std::vector<uint8_t> image) {
  std::memcpy(image.data(), &h, sizeof(h));
  auto* header = reinterpret_cast<CompiledGraphHeader*>(image.data());
  header->checksum = Fnv1aHash(image.data() + sizeof(CompiledGraphHeader),
                               image.size() - sizeof(CompiledGraphHeader));
  // The image was just built from well-formed parts; the always-on shallow
  // pass is internal-consistency insurance, the deep pass belongs to loads.
  auto compiled = CompiledGraph::FromImage(std::move(image), /*validate=*/false);
  DD_CHECK(compiled.ok()) << compiled.status().ToString();
  return std::move(compiled).value();
}

/// Fills the CSR `off`/`items` with `rows` rows: row r is the base's row r
/// (none past `base_rows`) followed by the appended entries for r, in the
/// order `for_each_appended(emit)` calls emit(r, item).
template <typename T, typename ForEachAppended>
void SpliceRows(const uint64_t* base_off, const T* base_items, size_t base_rows,
                size_t rows, const ForEachAppended& for_each_appended,
                uint64_t* off, T* items) {
  std::vector<uint64_t> fill(rows, 0);  // appended count, then write cursor
  for_each_appended([&](size_t row, const T&) { ++fill[row]; });
  uint64_t cursor = 0;
  for (size_t r = 0; r < rows; ++r) {
    off[r] = cursor;
    if (r < base_rows) {
      const uint64_t len = base_off[r + 1] - base_off[r];
      std::memcpy(items + cursor, base_items + base_off[r], len * sizeof(T));
      cursor += len;
    }
    const uint64_t appended = fill[r];
    fill[r] = cursor;
    cursor += appended;
  }
  off[rows] = cursor;
  for_each_appended([&](size_t row, const T& item) { items[fill[row]++] = item; });
}

}  // namespace

uint64_t Fnv1aHash(const void* data, size_t bytes, uint64_t seed) {
  // Word-at-a-time FNV-1a (see the header contract): 8-byte little-endian
  // words feed the round function, the tail is zero-padded into one final
  // word. Chaining across spans stays equivalent to hashing their
  // concatenation as long as every intermediate span is 8-byte aligned,
  // which the section layout guarantees (all offsets and the weight section
  // are 64-bit aligned).
  constexpr uint64_t kPrime = 0x100000001b3ULL;
  uint64_t h = seed;
  const auto* p = static_cast<const uint8_t*>(data);
  size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    uint64_t w;  // memcpy compiles to an unaligned load
    std::memcpy(&w, p + i, 8);
    h ^= w;
    h *= kPrime;
  }
  if (i < bytes) {
    uint64_t w = 0;
    std::memcpy(&w, p + i, bytes - i);
    h ^= w;
    h *= kPrime;
  }
  return h;
}

Status CompiledGraph::Attach(bool validate) {
  DD_RETURN_IF_ERROR(ValidateShallow(base_, bytes_));
  header_ = reinterpret_cast<const CompiledGraphHeader*>(base_);
  const CompiledGraphHeader& h = *header_;
  num_variables_ = static_cast<size_t>(h.num_variables);
  num_weights_ = static_cast<size_t>(h.num_weights);
  num_groups_ = static_cast<size_t>(h.num_groups);
  num_clauses_ = static_cast<size_t>(h.num_clauses);

  auto sec = [&](CompiledSection s) { return base_ + h.sections[s].offset; };
  evidence_ = reinterpret_cast<const int8_t*>(sec(kSecEvidence));
  weight_learnable_ = reinterpret_cast<const uint8_t*>(sec(kSecWeightLearnable));
  weight_desc_offsets_ = reinterpret_cast<const uint64_t*>(sec(kSecWeightDescOffsets));
  weight_desc_blob_ = reinterpret_cast<const char*>(sec(kSecWeightDescBlob));
  weight_group_offsets_ = reinterpret_cast<const uint64_t*>(sec(kSecWeightGroupOffsets));
  weight_groups_ = reinterpret_cast<const GroupId*>(sec(kSecWeightGroups));
  groups_ = reinterpret_cast<const CompiledGroup*>(sec(kSecGroups));
  group_orig_ids_ = reinterpret_cast<const uint32_t*>(sec(kSecGroupOrigIds));
  group_clause_offsets_ = reinterpret_cast<const uint64_t*>(sec(kSecGroupClauseOffsets));
  group_clauses_ = reinterpret_cast<const ClauseId*>(sec(kSecGroupClauses));
  clause_groups_ = reinterpret_cast<const GroupId*>(sec(kSecClauseGroups));
  clause_orig_ids_ = reinterpret_cast<const uint32_t*>(sec(kSecClauseOrigIds));
  clause_lit_offsets_ = reinterpret_cast<const uint64_t*>(sec(kSecClauseLitOffsets));
  literals_ = reinterpret_cast<const CompiledLiteral*>(sec(kSecLiterals));
  head_offsets_ = reinterpret_cast<const uint64_t*>(sec(kSecHeadOffsets));
  head_groups_ = reinterpret_cast<const GroupId*>(sec(kSecHeadGroups));
  body_offsets_ = reinterpret_cast<const uint64_t*>(sec(kSecBodyOffsets));
  body_refs_ = reinterpret_cast<const CompiledBodyRef*>(sec(kSecBodyRefs));

  if (validate) {
    if (Fnv1aHash(base_ + sizeof(CompiledGraphHeader),
                  bytes_ - sizeof(CompiledGraphHeader)) != h.checksum) {
      return Status::InvalidArgument("snapshot payload checksum mismatch (corrupt file)");
    }
    for (size_t v = 0; v < num_variables_; ++v) {
      if (evidence_[v] < -1 || evidence_[v] > 1) {
        return Status::InvalidArgument("snapshot evidence tag out of range");
      }
    }
    DD_RETURN_IF_ERROR(CheckOffsets(weight_desc_offsets_, h.num_weights,
                                    h.desc_blob_bytes, "weight description"));
    DD_RETURN_IF_ERROR(CheckOffsets(weight_group_offsets_, h.num_weights,
                                    h.num_weight_group_refs, "weight-group"));
    for (uint64_t i = 0; i < h.num_weight_group_refs; ++i) {
      if (weight_groups_[i] >= num_groups_) {
        return Status::InvalidArgument("snapshot weight-group id out of range");
      }
    }
    for (size_t g = 0; g < num_groups_; ++g) {
      const CompiledGroup& group = groups_[g];
      if (group.head >= num_variables_ || group.weight >= num_weights_ ||
          static_cast<uint8_t>(group.semantics) > 2) {
        return Status::InvalidArgument("snapshot group record out of range");
      }
    }
    DD_RETURN_IF_ERROR(CheckOffsets(group_clause_offsets_, h.num_groups,
                                    h.num_clauses, "group-clause"));
    for (size_t g = 0; g < num_groups_; ++g) {
      for (const ClauseId c : GroupClauses(static_cast<GroupId>(g))) {
        if (c >= num_clauses_ || clause_groups_[c] != g) {
          return Status::InvalidArgument(
              "snapshot group-clause adjacency inconsistent");
        }
      }
    }
    DD_RETURN_IF_ERROR(CheckOffsets(clause_lit_offsets_, h.num_clauses,
                                    h.num_literals, "clause-literal"));
    for (size_t c = 0; c < num_clauses_; ++c) {
      if (clause_groups_[c] >= num_groups_) {
        return Status::InvalidArgument("snapshot clause group id out of range");
      }
      const VarId head = groups_[clause_groups_[c]].head;
      for (const CompiledLiteral& lit : ClauseLiterals(static_cast<ClauseId>(c))) {
        if (lit.var >= num_variables_ || lit.negated > 1 || lit.var == head) {
          return Status::InvalidArgument("snapshot literal out of range");
        }
      }
    }
    DD_RETURN_IF_ERROR(CheckOffsets(head_offsets_, h.num_variables,
                                    h.num_head_refs, "head-group"));
    for (size_t v = 0; v < num_variables_; ++v) {
      for (const GroupId g : HeadGroups(static_cast<VarId>(v))) {
        if (g >= num_groups_ || groups_[g].head != v) {
          return Status::InvalidArgument("snapshot head-group adjacency inconsistent");
        }
      }
    }
    DD_RETURN_IF_ERROR(CheckOffsets(body_offsets_, h.num_variables,
                                    h.num_body_refs, "body-ref"));
    for (uint64_t i = 0; i < h.num_body_refs; ++i) {
      if (body_refs_[i].clause >= num_clauses_ || body_refs_[i].negated > 1) {
        return Status::InvalidArgument("snapshot body ref out of range");
      }
    }
  }

  // The learner mutates weight values, and the image may be a read-only
  // mapping — so values live in an owned array regardless of backing.
  weight_values_.resize(num_weights_);
  if (num_weights_ > 0) {
    std::memcpy(weight_values_.data(), sec(kSecWeightValues),
                num_weights_ * sizeof(double));
  }
  return Status::OK();
}

StatusOr<CompiledGraph> CompiledGraph::FromImage(std::vector<uint8_t> image,
                                                 bool validate) {
  CompiledGraph graph;
  graph.owned_ = std::move(image);
  graph.base_ = graph.owned_.data();
  graph.bytes_ = graph.owned_.size();
  DD_RETURN_IF_ERROR(graph.Attach(validate));
  return graph;
}

StatusOr<CompiledGraph> CompiledGraph::FromMmap(MmapFile mmap, bool validate) {
  CompiledGraph graph;
  graph.mmap_ = std::move(mmap);
  graph.base_ = graph.mmap_.data();
  graph.bytes_ = graph.mmap_.size();
  DD_RETURN_IF_ERROR(graph.Attach(validate));
  return graph;
}

CompiledGraph CompiledGraph::Compile(const FactorGraph& graph) {
  const size_t num_vars = graph.NumVariables();
  const size_t num_weights = graph.NumWeights();

  // Compaction maps: active groups, and active clauses of active groups,
  // keep their original relative order (what keeps the kernels' iteration —
  // and therefore floating-point and RNG — order that of the source graph).
  std::vector<uint32_t> group_map(graph.NumGroups(), kDroppedId);
  std::vector<uint32_t> clause_map(graph.NumClauses(), kDroppedId);
  std::vector<GroupId> kept_groups;
  std::vector<ClauseId> kept_clauses;
  for (GroupId g = 0; g < graph.NumGroups(); ++g) {
    if (!graph.group(g).active) continue;
    group_map[g] = static_cast<uint32_t>(kept_groups.size());
    kept_groups.push_back(g);
  }
  uint64_t num_literals = 0;
  for (ClauseId c = 0; c < graph.NumClauses(); ++c) {
    const Clause& clause = graph.clause(c);
    if (!clause.active || group_map[clause.group] == kDroppedId) continue;
    clause_map[c] = static_cast<uint32_t>(kept_clauses.size());
    kept_clauses.push_back(c);
    num_literals += clause.literals.size();
  }

  CompiledGraphHeader h;
  h.num_variables = num_vars;
  h.num_weights = num_weights;
  h.num_groups = kept_groups.size();
  h.num_clauses = kept_clauses.size();
  h.num_literals = num_literals;
  for (VarId v = 0; v < num_vars; ++v) {
    for (const GroupId g : graph.HeadGroups(v)) {
      if (group_map[g] != kDroppedId) ++h.num_head_refs;
    }
    for (const BodyRef& ref : graph.BodyRefs(v)) {
      if (clause_map[ref.clause] != kDroppedId) ++h.num_body_refs;
    }
  }
  for (WeightId w = 0; w < num_weights; ++w) {
    h.desc_blob_bytes += graph.weight(w).description.size();
    for (const GroupId g : graph.GroupsForWeight(w)) {
      if (group_map[g] != kDroppedId) ++h.num_weight_group_refs;
    }
  }

  std::vector<uint8_t> image = LayOutImage(&h);
  auto sec = [&](CompiledSection s) { return image.data() + h.sections[s].offset; };

  auto* evidence = reinterpret_cast<int8_t*>(sec(kSecEvidence));
  for (VarId v = 0; v < num_vars; ++v) {
    evidence[v] = EvidenceTag(graph.EvidenceValue(v));
  }

  auto* wvalues = reinterpret_cast<double*>(sec(kSecWeightValues));
  auto* wlearn = reinterpret_cast<uint8_t*>(sec(kSecWeightLearnable));
  auto* wdesc_off = reinterpret_cast<uint64_t*>(sec(kSecWeightDescOffsets));
  auto* wdesc_blob = reinterpret_cast<char*>(sec(kSecWeightDescBlob));
  auto* wgroup_off = reinterpret_cast<uint64_t*>(sec(kSecWeightGroupOffsets));
  auto* wgroups = reinterpret_cast<GroupId*>(sec(kSecWeightGroups));
  uint64_t desc_cursor = 0, wg_cursor = 0;
  for (WeightId w = 0; w < num_weights; ++w) {
    const Weight& weight = graph.weight(w);
    wvalues[w] = weight.value;
    wlearn[w] = weight.learnable ? 1 : 0;
    wdesc_off[w] = desc_cursor;
    std::memcpy(wdesc_blob + desc_cursor, weight.description.data(),
                weight.description.size());
    desc_cursor += weight.description.size();
    wgroup_off[w] = wg_cursor;
    for (const GroupId g : graph.GroupsForWeight(w)) {
      if (group_map[g] != kDroppedId) wgroups[wg_cursor++] = group_map[g];
    }
  }
  wdesc_off[num_weights] = desc_cursor;
  wgroup_off[num_weights] = wg_cursor;

  auto* groups = reinterpret_cast<CompiledGroup*>(sec(kSecGroups));
  auto* group_orig = reinterpret_cast<uint32_t*>(sec(kSecGroupOrigIds));
  auto* gclause_off = reinterpret_cast<uint64_t*>(sec(kSecGroupClauseOffsets));
  auto* gclauses = reinterpret_cast<ClauseId*>(sec(kSecGroupClauses));
  uint64_t gc_cursor = 0;
  for (size_t gi = 0; gi < kept_groups.size(); ++gi) {
    const FactorGroup& group = graph.group(kept_groups[gi]);
    groups[gi] = CompiledGroup{group.head, group.weight, group.rule_id,
                               group.semantics};
    group_orig[gi] = kept_groups[gi];
    gclause_off[gi] = gc_cursor;
    for (const ClauseId c : group.clauses) {
      if (clause_map[c] != kDroppedId) gclauses[gc_cursor++] = clause_map[c];
    }
  }
  gclause_off[kept_groups.size()] = gc_cursor;

  auto* clause_groups = reinterpret_cast<GroupId*>(sec(kSecClauseGroups));
  auto* clause_orig = reinterpret_cast<uint32_t*>(sec(kSecClauseOrigIds));
  auto* clit_off = reinterpret_cast<uint64_t*>(sec(kSecClauseLitOffsets));
  auto* literals = reinterpret_cast<CompiledLiteral*>(sec(kSecLiterals));
  uint64_t lit_cursor = 0;
  for (size_t ci = 0; ci < kept_clauses.size(); ++ci) {
    const Clause& clause = graph.clause(kept_clauses[ci]);
    clause_groups[ci] = group_map[clause.group];
    clause_orig[ci] = kept_clauses[ci];
    clit_off[ci] = lit_cursor;
    for (const Literal& lit : clause.literals) {
      literals[lit_cursor++] = CompiledLiteral{lit.var, lit.negated ? 1u : 0u};
    }
  }
  clit_off[kept_clauses.size()] = lit_cursor;

  auto* head_off = reinterpret_cast<uint64_t*>(sec(kSecHeadOffsets));
  auto* head_groups = reinterpret_cast<GroupId*>(sec(kSecHeadGroups));
  auto* body_off = reinterpret_cast<uint64_t*>(sec(kSecBodyOffsets));
  auto* body_refs = reinterpret_cast<CompiledBodyRef*>(sec(kSecBodyRefs));
  uint64_t head_cursor = 0, body_cursor = 0;
  for (VarId v = 0; v < num_vars; ++v) {
    head_off[v] = head_cursor;
    for (const GroupId g : graph.HeadGroups(v)) {
      if (group_map[g] != kDroppedId) head_groups[head_cursor++] = group_map[g];
    }
    body_off[v] = body_cursor;
    for (const BodyRef& ref : graph.BodyRefs(v)) {
      if (clause_map[ref.clause] == kDroppedId) continue;
      body_refs[body_cursor++] =
          CompiledBodyRef{clause_map[ref.clause], ref.negated ? 1u : 0u};
    }
  }
  head_off[num_vars] = head_cursor;
  body_off[num_vars] = body_cursor;
  return SealImage(h, std::move(image));
}

CompiledGraph CompiledGraph::Splice(const CompiledGraph& base,
                                    const CompiledAppendix& appendix) {
  const CompiledGraphHeader& b = *base.header_;
  const size_t num_vars = appendix.num_variables;
  const size_t base_groups = base.num_groups_;
  const size_t base_clauses = base.num_clauses_;
  const size_t new_groups = appendix.groups.size();
  const size_t new_clauses = appendix.clause_literal_offsets.size() - 1;
  const size_t new_literals = appendix.literals.size();
  DD_CHECK_GE(num_vars, base.num_variables_);
  DD_CHECK_EQ(appendix.group_clause_offsets.size(), new_groups + 1);
  DD_CHECK_EQ(appendix.group_clause_offsets.front(), 0u);
  DD_CHECK_EQ(appendix.group_clause_offsets.back(), new_clauses);
  DD_CHECK_EQ(appendix.clause_literal_offsets.back(), new_literals);

  CompiledGraphHeader h;
  h.num_variables = num_vars;
  h.num_weights = b.num_weights + appendix.weights.size();
  h.num_groups = base_groups + new_groups;
  h.num_clauses = base_clauses + new_clauses;
  h.num_literals = b.num_literals + new_literals;
  h.num_head_refs = b.num_head_refs + new_groups;
  h.num_body_refs = b.num_body_refs + new_literals;
  h.num_weight_group_refs = b.num_weight_group_refs + new_groups;
  h.desc_blob_bytes = b.desc_blob_bytes;
  for (const CompiledAppendix::AppendedWeight& w : appendix.weights) {
    h.desc_blob_bytes += w.description.size();
  }
  for (const CompiledGroup& group : appendix.groups) {
    DD_CHECK_LT(group.head, num_vars);
    DD_CHECK_LT(group.weight, h.num_weights);
  }
  for (const CompiledLiteral& lit : appendix.literals) DD_CHECK_LT(lit.var, num_vars);

  std::vector<uint8_t> image = LayOutImage(&h);
  const SectionWriter out{&image, h, base.base_, b};

  out.CopyBase<int8_t>(kSecEvidence);
  auto* evidence = out.At<int8_t>(kSecEvidence);
  for (const auto& [var, value] : appendix.evidence) {
    DD_CHECK_LT(var, num_vars);
    evidence[var] = EvidenceTag(value);
  }

  // Weights: the base's current values (what Decompile reads), then the
  // appended ones.
  auto* wvalues = out.At<double>(kSecWeightValues);
  if (!base.weight_values_.empty()) {
    std::memcpy(wvalues, base.weight_values_.data(),
                base.weight_values_.size() * sizeof(double));
  }
  uint8_t* wlearn = out.CopyBase<uint8_t>(kSecWeightLearnable);
  uint64_t* wdesc_off = out.CopyBase<uint64_t>(kSecWeightDescOffsets);
  char* wdesc_blob = out.CopyBase<char>(kSecWeightDescBlob);
  uint64_t desc_cursor = b.desc_blob_bytes;
  for (size_t i = 0; i < appendix.weights.size(); ++i) {
    const CompiledAppendix::AppendedWeight& w = appendix.weights[i];
    wvalues[b.num_weights + i] = w.value;
    wlearn[i] = w.learnable ? 1 : 0;
    if (!w.description.empty()) {
      std::memcpy(wdesc_blob, w.description.data(), w.description.size());
    }
    wdesc_blob += w.description.size();
    desc_cursor += w.description.size();
    wdesc_off[i] = desc_cursor;
  }
  SpliceRows(base.weight_group_offsets_, base.weight_groups_, base.num_weights_,
             static_cast<size_t>(h.num_weights),
             [&](const auto& emit) {
               for (size_t i = 0; i < new_groups; ++i) {
                 emit(appendix.groups[i].weight, static_cast<GroupId>(base_groups + i));
               }
             },
             out.At<uint64_t>(kSecWeightGroupOffsets),
             out.At<GroupId>(kSecWeightGroups));

  // Groups and clauses: appended after the base's, clauses group by group.
  CompiledGroup* groups = out.CopyBase<CompiledGroup>(kSecGroups);
  if (new_groups > 0) {
    std::memcpy(groups, appendix.groups.data(), new_groups * sizeof(CompiledGroup));
  }
  uint64_t* gclause_off =
      out.CopyBase<uint64_t>(kSecGroupClauseOffsets);
  ClauseId* gclauses = out.CopyBase<ClauseId>(kSecGroupClauses);
  GroupId* clause_groups = out.CopyBase<GroupId>(kSecClauseGroups);
  for (size_t i = 0; i < new_groups; ++i) {
    gclause_off[i] = base_clauses + appendix.group_clause_offsets[i + 1];
    for (uint64_t c = appendix.group_clause_offsets[i];
         c < appendix.group_clause_offsets[i + 1]; ++c) {
      gclauses[c] = static_cast<ClauseId>(base_clauses + c);
      clause_groups[c] = static_cast<GroupId>(base_groups + i);
    }
  }
  // Every element keeps its compiled id, as after a Decompile.
  auto* group_orig = out.At<uint32_t>(kSecGroupOrigIds);
  for (size_t g = 0; g < h.num_groups; ++g) group_orig[g] = static_cast<uint32_t>(g);
  auto* clause_orig = out.At<uint32_t>(kSecClauseOrigIds);
  for (size_t c = 0; c < h.num_clauses; ++c) clause_orig[c] = static_cast<uint32_t>(c);
  uint64_t* clit_off = out.CopyBase<uint64_t>(kSecClauseLitOffsets);
  for (size_t c = 0; c < new_clauses; ++c) {
    clit_off[c] = b.num_literals + appendix.clause_literal_offsets[c + 1];
  }
  CompiledLiteral* literals =
      out.CopyBase<CompiledLiteral>(kSecLiterals);
  if (new_literals > 0) {
    std::memcpy(literals, appendix.literals.data(),
                new_literals * sizeof(CompiledLiteral));
  }

  // Per-variable rows: the base row, then the appended groups and clauses.
  SpliceRows(base.head_offsets_, base.head_groups_, base.num_variables_, num_vars,
             [&](const auto& emit) {
               for (size_t i = 0; i < new_groups; ++i) {
                 emit(appendix.groups[i].head, static_cast<GroupId>(base_groups + i));
               }
             },
             out.At<uint64_t>(kSecHeadOffsets),
             out.At<GroupId>(kSecHeadGroups));
  SpliceRows(base.body_offsets_, base.body_refs_, base.num_variables_, num_vars,
             [&](const auto& emit) {
               for (size_t c = 0; c < new_clauses; ++c) {
                 const auto clause = static_cast<ClauseId>(base_clauses + c);
                 for (uint64_t l = appendix.clause_literal_offsets[c];
                      l < appendix.clause_literal_offsets[c + 1]; ++l) {
                   const CompiledLiteral& lit = appendix.literals[l];
                   emit(lit.var, CompiledBodyRef{clause, lit.negated});
                 }
               }
             },
             out.At<uint64_t>(kSecBodyOffsets),
             out.At<CompiledBodyRef>(kSecBodyRefs));
  return SealImage(h, std::move(image));
}

uint64_t CompiledGraph::Checksum() const {
  // Exactly the bytes SaveCompiledGraph writes after the header: the image
  // payload with the weight-value section replaced by the owned (possibly
  // learner-updated) values.
  const CompiledSectionEntry& wsec = header_->sections[kSecWeightValues];
  uint64_t h = Fnv1aHash(base_ + sizeof(CompiledGraphHeader),
                         static_cast<size_t>(wsec.offset) - sizeof(CompiledGraphHeader));
  h = Fnv1aHash(weight_values_.data(), static_cast<size_t>(wsec.bytes), h);
  h = Fnv1aHash(base_ + wsec.offset + wsec.bytes,
                bytes_ - static_cast<size_t>(wsec.offset + wsec.bytes), h);
  return h;
}

FactorGraph CompiledGraph::Decompile() const {
  FactorGraph graph;
  if (num_variables_ > 0) graph.AddVariables(num_variables_);
  for (VarId v = 0; v < num_variables_; ++v) {
    const auto ev = EvidenceValue(v);
    if (ev.has_value()) graph.SetEvidence(v, *ev);
  }
  graph.ReserveWeights(num_weights_);
  for (WeightId w = 0; w < num_weights_; ++w) {
    graph.AddWeight(weight_values_[w], WeightLearnable(w),
                    std::string(WeightDescription(w)));
  }
  graph.ReserveGroups(num_groups_);
  for (GroupId g = 0; g < num_groups_; ++g) {
    const CompiledGroup& group = groups_[g];
    graph.AddGroup(group.rule_id, group.head, group.weight, group.semantics);
  }
  // Clauses in compiled id order (the original interleaving across groups),
  // so the rebuilt per-variable body-ref order matches the compiled arrays —
  // which keeps the decompiled graph's inference bit-identical too.
  graph.ReserveClauses(num_clauses_);
  for (ClauseId c = 0; c < num_clauses_; ++c) {
    std::vector<Literal> lits;
    const auto compiled_lits = ClauseLiterals(c);
    lits.reserve(compiled_lits.size());
    for (const CompiledLiteral& lit : compiled_lits) {
      lits.push_back(Literal{lit.var, lit.negated != 0});
    }
    graph.AddClause(clause_groups_[c], std::move(lits));
  }
  return graph;
}

}  // namespace deepdive::factor
