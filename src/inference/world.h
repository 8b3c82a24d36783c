#ifndef DEEPDIVE_INFERENCE_WORLD_H_
#define DEEPDIVE_INFERENCE_WORLD_H_

#include <cstdint>
#include <vector>

#include "factor/compiled_graph.h"
#include "util/bitvector.h"
#include "util/random.h"

namespace deepdive::inference {

/// A possible world plus the per-clause/per-group statistics that make Gibbs
/// updates O(degree): for every clause the number of unsatisfied literals,
/// and for every group the number of satisfied clauses (the n of Eq. 1).
/// Worlds live on the frozen CompiledGraph image, whose groups and clauses
/// are all active (compilation drops the inactive ones).
class World {
 public:
  explicit World(const factor::CompiledGraph* graph);

  /// The frozen graph (see CompiledGraph's thread contract); the World
  /// itself is single-owner, not shared across threads.
  const factor::CompiledGraph& graph() const { return *graph_; }

  size_t NumVariables() const { return values_.size(); }

  bool value(factor::VarId v) const { return values_[v] != 0; }

  /// Sets a variable and maintains clause/group statistics.
  void Flip(factor::VarId v, bool new_value);

  /// Initializes non-evidence variables (uniformly at random or all-false)
  /// and evidence variables to their labels, then rebuilds statistics.
  void InitValues(Rng* rng, bool random_init = true);

  /// Loads values from a packed sample (size must equal NumVariables), then
  /// rebuilds statistics. Evidence variables are forced to their labels.
  void LoadBits(const BitVector& bits);

  /// Loads values from a packed sample that may be *shorter* than the current
  /// variable count (samples materialized before new variables arrived);
  /// missing variables get `fill`. When `apply_evidence` is false the bits
  /// are taken verbatim — the MH proposal path needs the *raw* materialized
  /// sample, not one coerced onto later evidence (coercion would silently
  /// change the proposal distribution and wreck the acceptance test).
  void LoadBitsPrefix(const BitVector& bits, bool fill, bool apply_evidence = true);

  BitVector ToBits() const;

  int64_t GroupSat(factor::GroupId g) const { return group_sat_[g]; }
  int32_t ClauseUnsat(factor::ClauseId c) const { return clause_unsat_[c]; }

  /// W(I): total log-weight over active groups, from maintained statistics.
  double TotalLogWeight() const;

  /// Contribution of a single group from maintained statistics.
  double GroupLogWeight(factor::GroupId g) const;

  /// Sum over groups carrying `weight` of sign(head) * g(n_sat): the
  /// sufficient statistic d W / d weight used by the learner.
  double WeightFeature(factor::WeightId weight) const;

  /// Full recomputation of all statistics from current values (O(graph)).
  void RecomputeStats();

 private:
  /// Forces evidence variables to their labels (no stats update).
  void InitEvidence();

  const factor::CompiledGraph* graph_;
  std::vector<uint8_t> values_;
  std::vector<int32_t> clause_unsat_;
  std::vector<int64_t> group_sat_;
};

}  // namespace deepdive::inference

#endif  // DEEPDIVE_INFERENCE_WORLD_H_
