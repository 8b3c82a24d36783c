#ifndef DEEPDIVE_FACTOR_GRAPH_DELTA_H_
#define DEEPDIVE_FACTOR_GRAPH_DELTA_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "factor/factor_graph.h"
#include "factor/semantics.h"
#include "util/bitvector.h"

namespace deepdive::factor {

/// The (ΔV, ΔF) handed from incremental grounding to incremental inference
/// (Section 3, Problem Setting): everything that distinguishes the updated
/// distribution Pr(Δ) from the materialized one Pr(0). The graph object is
/// shared — new groups/variables are already appended and removed groups
/// deactivated; this record says *what* changed so strategies can evaluate
/// the log-density ratio touching only the delta (DeltaRatio).
///
/// Merged over a window (the engine's cumulative delta), it is a net diff
/// against the window's start: each changed weight and each changed
/// evidence variable has one entry, sorted by id, holding its value at the
/// start and its current value; a group or clause added and then removed
/// within the window leaves no trace.
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

  /// Folds a later delta into this one. Group lists append, and a group or
  /// clause the later delta removes cancels its addition here. Weight and
  /// evidence changes merge by id: an entry keeps its first `old_value` and
  /// takes the last `new_value`, and is dropped once the two are equal.
  /// `other`'s changes may come in any id order, an id repeated in the order
  /// the changes happened.
  void Merge(const GraphDelta& other);
};

/// log Pr(Δ)[I] - log Pr(0)[I] up to the (constant) partition functions,
/// for a world I of Pr(0)'s support, where `delta` is a net diff against
/// Pr(0) (see GraphDelta) and `graph` is in its Pr(Δ) state. Each group the
/// delta touches contributes
///     sign(head) * (w_now * g(n_Δ) * [g in Pr(Δ)] - w_0 * g(n_0) * [g in Pr(0)]),
/// where w_0 is its weight's `old_value` when the weight has an entry and
/// n_0 counts its clauses as Pr(0) had them.
///
/// The constructor compiles the delta once into flat arrays: the labels it
/// sets, then one term per contribution, each with its head, semantics,
/// coefficient and CSR ranges of clause literals. Evaluating a world then
/// touches only those terms and allocates nothing, which is what makes the
/// sampling approach's Metropolis-Hastings acceptance test cheap (Section
/// 3.2.2). A contribution whose coefficient is exactly 0 gets no term: it
/// would add ±0 to a sum that starts at +0, which in round-to-nearest never
/// becomes -0, so dropping it changes no bit. Tied weights start at 0, so a
/// development-loop update that adds features compiles to no term at all.
///
/// Neither argument is referenced after construction.
class DeltaRatio {
 public:
  DeltaRatio(const FactorGraph& graph, const GraphDelta& delta);

  /// The ratio for `world`, one bit per variable of `graph`. Returns
  /// -infinity when the world violates a label the delta sets (it has zero
  /// probability under Pr(Δ)); a cleared label constrains nothing.
  double operator()(const BitVector& world) const;

  /// Compiled terms, one per nonzero-coefficient contribution.
  size_t num_terms() const { return terms_.size(); }

 private:
  struct Label {
    VarId var = 0;
    bool value = false;
  };
  /// One contribution, scored as coef * sign(head) * g(n). Its clauses are
  /// clause_starts_ indices: the group's active clauses
  /// [active_begin, added_begin), then, for a modified group, the clauses
  /// the delta added [added_begin, removed_begin) and removed
  /// [removed_begin, removed_end).
  struct Term {
    VarId head = 0;
    Semantics semantics = Semantics::kLinear;
    double coef = 0.0;
    size_t active_begin = 0;
    size_t added_begin = 0;
    size_t removed_begin = 0;
    size_t removed_end = 0;
  };

  /// Satisfied clauses among clause_starts_ indices [begin, end).
  int64_t SatisfiedClauses(size_t begin, size_t end, const BitVector& world) const;

  std::vector<Label> labels_;
  /// Moved-weight and new-group terms, which add, then removed groups from
  /// `removed_begin_`, which subtract, then modified groups from
  /// `modified_begin_`: the order the contributions were always summed in.
  std::vector<Term> terms_;
  size_t removed_begin_ = 0;
  size_t modified_begin_ = 0;
  /// Clause c's literals are literals_[clause_starts_[c], clause_starts_[c + 1]).
  std::vector<size_t> clause_starts_;
  std::vector<Literal> literals_;
};

}  // namespace deepdive::factor

#endif  // DEEPDIVE_FACTOR_GRAPH_DELTA_H_
