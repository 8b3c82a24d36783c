#ifndef DEEPDIVE_FACTOR_FACTOR_GRAPH_H_
#define DEEPDIVE_FACTOR_FACTOR_GRAPH_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "factor/semantics.h"
#include "util/status.h"

namespace deepdive::factor {

using VarId = uint32_t;
using WeightId = uint32_t;
using GroupId = uint32_t;
using ClauseId = uint32_t;

inline constexpr VarId kNoVar = static_cast<VarId>(-1);
inline constexpr ClauseId kNoClause = static_cast<ClauseId>(-1);

/// One body literal of a ground clause: a query variable, possibly negated.
struct Literal {
  VarId var = kNoVar;
  bool negated = false;
};

/// A ground clause: a conjunction of literals over query variables. It is
/// satisfied in world I iff every literal holds. An empty clause is always
/// satisfied (used for priors and classifier groundings whose body contains
/// only deterministic facts).
struct Clause {
  GroupId group = 0;
  std::vector<Literal> literals;
  /// Inactive clauses correspond to retracted groundings (DRed deletions);
  /// they contribute nothing to n_sat.
  bool active = true;
};

/// A factor group realizes Equation 1 for one (rule, head-assignment, tied
/// weight) triple: its contribution to log Pr[I] is
///     weight * sign(head in I) * g(#satisfied clauses).
/// Classic per-grounding MLN factors are groups with a single clause under
/// linear semantics.
struct FactorGroup {
  uint32_t rule_id = 0;
  VarId head = kNoVar;
  WeightId weight = 0;
  Semantics semantics = Semantics::kLinear;
  std::vector<ClauseId> clauses;
  bool active = true;
};

/// Tied/learnable weight metadata.
struct Weight {
  double value = 0.0;
  bool learnable = false;
  std::string description;  // e.g. "FE1/phrase=and_his_wife"
};

/// Membership of a variable in a clause body (for O(degree) Gibbs updates).
struct BodyRef {
  ClauseId clause = 0;
  bool negated = false;
};

/// The grounded probabilistic model (Section 2.5). Variables are Boolean;
/// evidence variables (positive set P / negative set N) are fixed during
/// inference. The graph is append-only plus group deactivation, so the
/// incremental engine can both extend it (new rules/data) and retract
/// groundings (deleted derivations) while keeping ids stable.
class FactorGraph {
 public:
  FactorGraph() = default;

  // ---- construction ----

  /// Adds a Boolean variable; returns its id.
  VarId AddVariable();

  /// Adds `n` variables; returns the first id.
  VarId AddVariables(size_t n);

  /// Fixes / unfixes a variable. std::nullopt clears evidence.
  void SetEvidence(VarId var, std::optional<bool> value);

  /// Registers a weight; `description` names it for debugging/learning dumps.
  WeightId AddWeight(double value, bool learnable, std::string description = "");

  /// Weight id for a tied-weight key, creating it (at 0, learnable) on first
  /// use. Key convention: "<rule label>/<feature value>".
  WeightId GetOrCreateTiedWeight(const std::string& key);

  /// Weight id for an existing tied-weight key, or nullopt. Read-only:
  /// safe to call concurrently with other readers (shard-local grounding
  /// resolves weights against a frozen graph through this).
  std::optional<WeightId> FindTiedWeight(const std::string& key) const;

  void SetWeightValue(WeightId id, double value);

  /// Creates an (initially clause-less) factor group.
  GroupId AddGroup(uint32_t rule_id, VarId head, WeightId weight, Semantics semantics);

  /// Appends a ground clause to a group. Literal variables must not equal the
  /// group head (Eq. 1 counts body groundings; self-loops are a grounder bug).
  ClauseId AddClause(GroupId group, std::vector<Literal> literals);

  /// Bulk append: adds every literal list as one clause of `group`, in
  /// order, reserving capacity once up front. Returns the first new id
  /// (ids are contiguous); kNoClause if `literal_lists` is empty.
  ClauseId AddClauses(GroupId group, std::vector<std::vector<Literal>> literal_lists);

  // Capacity pre-sizing for bulk construction (e.g. the sharded grounding
  // merge). `n` is the expected *total* count, not a delta. Growth-aware:
  // repeated calls with slightly larger totals never degrade the geometric
  // growth guarantee, so they are safe to issue per batch.
  void ReserveVariables(size_t n);
  void ReserveWeights(size_t n);
  void ReserveGroups(size_t n);
  void ReserveClauses(size_t n);

  /// Deactivates a group: it no longer contributes to any distribution.
  void DeactivateGroup(GroupId group);

  /// Deactivates one ground clause (a retracted grounding).
  void DeactivateClause(ClauseId clause);

  /// Finds an *active* clause of `group` whose literal list equals
  /// `literals` (compared in canonical order); kNoClause if none.
  ClauseId FindActiveClause(GroupId group, const std::vector<Literal>& literals) const;

  /// Convenience for priors / pairwise models: head with one clause.
  GroupId AddSimpleFactor(VarId head, const std::vector<Literal>& body, WeightId weight,
                          Semantics semantics = Semantics::kLinear,
                          uint32_t rule_id = 0);

  // ---- accessors ----

  size_t NumVariables() const { return evidence_.size(); }
  size_t NumWeights() const { return weights_.size(); }
  size_t NumGroups() const { return groups_.size(); }
  size_t NumClauses() const { return clauses_.size(); }

  /// Active-clause count: the paper's "# factors" statistic.
  size_t NumActiveClauses() const;

  bool IsEvidence(VarId var) const { return evidence_[var].has_value(); }
  std::optional<bool> EvidenceValue(VarId var) const { return evidence_[var]; }

  /// Structure accessors alias graph storage. Thread contract: graph
  /// structure is mutated only between runs that read it (ApplyDelta on the
  /// serving thread); during sharded grounding or a Compile the structure is
  /// frozen, which is what lets several threads read these references.
  const Weight& weight(WeightId id) const { return weights_[id]; }
  double WeightValue(WeightId id) const { return weights_[id].value; }
  bool WeightLearnable(WeightId id) const { return weights_[id].learnable; }
  const FactorGroup& group(GroupId id) const { return groups_[id]; }
  const Clause& clause(ClauseId id) const { return clauses_[id]; }
  const std::vector<Weight>& weights() const { return weights_; }

  /// Groups with this variable as head (frozen during runs, like the rest
  /// of the structure — see the thread contract above).
  const std::vector<GroupId>& HeadGroups(VarId var) const { return head_refs_[var]; }

  /// Clause-body memberships of this variable (same thread contract).
  const std::vector<BodyRef>& BodyRefs(VarId var) const { return body_refs_[var]; }

  /// Groups sharing a weight (used when a weight value changes; same
  /// thread contract as the structure accessors above).
  const std::vector<GroupId>& GroupsForWeight(WeightId id) const {
    return weight_groups_[id];
  }

  /// All variables adjacent to `var` through any active group (head-body and
  /// body-body co-membership). Used for covariance NZ pairs and decomposition.
  std::vector<VarId> Neighbors(VarId var) const;

  // ---- evaluation ----

  /// Number of satisfied clauses of `group` in the world described by
  /// `value_of` (callable VarId -> bool).
  int64_t SatisfiedClauses(GroupId group,
                           const std::function<bool(VarId)>& value_of) const;

  /// The group's contribution to log Pr: w * sign(head) * g(n_sat).
  double GroupLogWeight(GroupId group, const std::function<bool(VarId)>& value_of) const;

  /// Total log-weight W(I) over all active groups.
  double TotalLogWeight(const std::function<bool(VarId)>& value_of) const;

 private:
  std::vector<std::optional<bool>> evidence_;
  std::vector<Weight> weights_;
  std::vector<FactorGroup> groups_;
  std::vector<Clause> clauses_;
  std::vector<std::vector<GroupId>> head_refs_;   // per var
  std::vector<std::vector<BodyRef>> body_refs_;   // per var
  std::vector<std::vector<GroupId>> weight_groups_;
  std::unordered_map<std::string, WeightId> tied_weights_;

  /// (group, literal-list) hash -> clause ids with that hash, in insertion
  /// order. Backs FindActiveClause in O(1) expected instead of scanning the
  /// whole group (delta retraction on large groups was quadratic).
  static uint64_t ClauseKey(GroupId group, const std::vector<Literal>& literals);
  std::unordered_map<uint64_t, std::vector<ClauseId>> clause_index_;
};

}  // namespace deepdive::factor

#endif  // DEEPDIVE_FACTOR_FACTOR_GRAPH_H_
