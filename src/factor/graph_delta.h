#ifndef DEEPDIVE_FACTOR_GRAPH_DELTA_H_
#define DEEPDIVE_FACTOR_GRAPH_DELTA_H_

#include <functional>
#include <optional>
#include <vector>

#include "factor/factor_graph.h"

namespace deepdive::factor {

/// The (ΔV, ΔF) handed from incremental grounding to incremental inference
/// (Section 3, Problem Setting): everything that distinguishes the updated
/// distribution Pr(Δ) from the materialized one Pr(0). The graph object is
/// shared — new groups/variables are already appended and removed groups
/// deactivated; this record says *what* changed so strategies can evaluate
/// the log-density ratio touching only the delta.
struct GraphDelta {
  std::vector<VarId> new_variables;
  std::vector<GroupId> new_groups;
  std::vector<GroupId> removed_groups;  // deactivated in the graph

  /// Existing groups whose clause set changed: `added` clauses exist only in
  /// Pr(Δ); `removed` clauses (now deactivated) existed only in Pr(0).
  struct GroupMod {
    GroupId group = 0;
    std::vector<ClauseId> added;
    std::vector<ClauseId> removed;
    bool operator==(const GroupMod&) const = default;
  };
  std::vector<GroupMod> modified_groups;
  struct WeightChange {
    WeightId weight = 0;
    double old_value = 0.0;
    double new_value = 0.0;
    bool operator==(const WeightChange&) const = default;
  };
  std::vector<WeightChange> weight_changes;
  struct EvidenceChange {
    VarId var = 0;
    std::optional<bool> old_value;
    std::optional<bool> new_value;
    bool operator==(const EvidenceChange&) const = default;
  };
  std::vector<EvidenceChange> evidence_changes;

  bool operator==(const GraphDelta&) const = default;

  bool empty() const {
    return new_variables.empty() && new_groups.empty() && removed_groups.empty() &&
           modified_groups.empty() && weight_changes.empty() &&
           evidence_changes.empty();
  }

  /// True if the set of groups/clauses changed (as opposed to only weights
  /// or evidence) — the distinction the rule-based optimizer keys on.
  bool structure_changed() const {
    return !new_groups.empty() || !removed_groups.empty() ||
           !modified_groups.empty() || !new_variables.empty();
  }

  bool evidence_changed() const { return !evidence_changes.empty(); }

  void Merge(const GraphDelta& other);

  /// Entry counts of every list. Merging a delta that neither removes nor
  /// modifies a group only appends, so Truncate(extent()) taken before such
  /// merges undoes them, entry for entry.
  struct Extent {
    size_t new_variables = 0;
    size_t new_groups = 0;
    size_t removed_groups = 0;
    size_t modified_groups = 0;
    size_t weight_changes = 0;
    size_t evidence_changes = 0;
  };
  Extent extent() const {
    return {new_variables.size(),  new_groups.size(),
            removed_groups.size(), modified_groups.size(),
            weight_changes.size(), evidence_changes.size()};
  }
  void Truncate(const Extent& extent);
};

/// log Pr(Δ)[I] - log Pr(0)[I] up to the (constant) partition functions:
/// the sum of delta-group weights, removed-group weights (negated), and
/// weight-change effects, evaluated on the world `value_of`. Touches only
/// factors in the delta — this is what makes the sampling approach's
/// Metropolis-Hastings acceptance test cheap (Section 3.2.2).
///
/// If the world violates a *new* evidence assignment, returns -infinity
/// (the world has zero probability under Pr(Δ)).
double DeltaLogDensityRatio(const FactorGraph& graph, const GraphDelta& delta,
                            const std::function<bool(VarId)>& value_of);

}  // namespace deepdive::factor

#endif  // DEEPDIVE_FACTOR_GRAPH_DELTA_H_
