#ifndef DEEPDIVE_ENGINE_VIEW_MAINTENANCE_H_
#define DEEPDIVE_ENGINE_VIEW_MAINTENANCE_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dsl/program.h"
#include "engine/rule_evaluator.h"
#include "storage/database.h"
#include "storage/delta_table.h"
#include "util/status.h"

namespace deepdive::engine {

/// Set-level changes per relation: count +1 = tuple appeared, -1 = vanished.
using RelationDeltas = std::map<std::string, DeltaTable>;

/// Incremental maintenance of the deductive (candidate-generation /
/// supervision) layer via the counting/DRed algorithm of Gupta, Mumick &
/// Subrahmanian [21], as used by DeepDive (Section 3.1): every relation keeps
/// per-tuple derivation counts; "delta rules" (CompiledRuleBody::
/// EvaluateDelta) compute exactly the derivations gained/lost, and a tuple
/// enters/leaves its table when the count crosses zero. The rule set must be
/// non-recursive (KBC pipelines are); Initialize errors on cycles.
class ViewMaintainer {
 public:
  /// `db` must contain a table per program relation; both must outlive this.
  ViewMaintainer(const dsl::Program* program, Database* db);

  /// Compiles the program's deductive rules, absorbs pre-existing rows as
  /// external derivations (count 1), and evaluates all rules to fixpoint in
  /// topological order.
  Status Initialize();

  /// Applies external data changes (count-level; tables not yet modified by
  /// the caller) and propagates through all rules. Returns the set-level
  /// delta of every relation that changed. Tables are updated in place.
  /// An update that deletes more derivations of a tuple than it has, or that
  /// the delta rules cannot evaluate (a rule negates a relation that may
  /// change), is rejected before any table or count changes.
  StatusOr<RelationDeltas> ApplyUpdate(const RelationDeltas& external_deltas);

  /// The relations ApplyUpdate(external_deltas) may change, with the same
  /// over-approximation as its up-front check (see CheckDeltaRulesEvaluable),
  /// so that consumers of the set-level deltas can reject the update before
  /// any table changes. Fails exactly when ApplyUpdate would reject the
  /// update up front. Changes nothing.
  StatusOr<std::set<std::string>> ChangingRelations(
      const RelationDeltas& external_deltas) const;

  /// Adds a deductive rule to the running system: evaluates it fully over
  /// the current state and propagates the new derivations downstream.
  /// Returns the set-level deltas.
  StatusOr<RelationDeltas> AddRule(const dsl::DeductiveRule& rule);

  /// Removes a previously added rule (by label), retracting its derivations.
  StatusOr<RelationDeltas> RemoveRule(const std::string& label);

  /// Re-reads the (shared) program's relation list — call after new
  /// relations were merged in, so updates targeting them propagate.
  Status RefreshRelations();

  /// Current derivation count of a tuple (0 if absent). Exposed for tests.
  int64_t DerivationCount(const std::string& relation, const Tuple& tuple) const;

  size_t NumRules() const { return rules_.size(); }

  /// Cumulative count of table rows and delta entries the rule-body joins
  /// enumerated, across all rules and updates.
  uint64_t rows_visited() const { return rows_visited_; }

 private:
  struct MaintainedRule {
    dsl::DeductiveRule rule;
    CompiledRuleBody body;
  };

  /// Core pass shared by Initialize/ApplyUpdate/AddRule/RemoveRule: walks
  /// relations in topological order; for each relation folds (a) external
  /// count deltas, (b) delta-rule evaluation against upstream set deltas,
  /// (c) full evaluation of `full_rules` with the given sign.
  StatusOr<RelationDeltas> Propagate(const RelationDeltas& external_deltas,
                                     const std::vector<size_t>& full_rules,
                                     int64_t full_sign);

  /// Rejects, before Propagate changes anything, a pass that deletes a tuple
  /// externally more times than it is derived (InvalidArgument, naming the
  /// relation and tuple), or whose delta rules would read a changed relation
  /// through a negated atom. Otherwise returns the relations the pass may
  /// change. A relation counts as changing when an external change flips a
  /// tuple's presence, or when it heads a fully evaluated rule or a rule
  /// that reads a changing relation; this over-approximates the set-level
  /// changes Propagate finds.
  StatusOr<std::set<std::string>> CheckDeltaRulesEvaluable(
      const RelationDeltas& external_deltas,
      const std::vector<size_t>& full_rules) const;

  Status CompileRule(const dsl::DeductiveRule& rule);
  Status RecomputeTopoOrder();

  /// Folds accumulated count changes for `relation` into counts_, applies
  /// table inserts/erases, and records set-level transitions in `out`.
  Status FoldCounts(const std::string& relation, const DeltaTable& count_delta,
                    RelationDeltas* out);

  const dsl::Program* program_;
  Database* db_;
  std::vector<MaintainedRule> rules_;
  std::map<std::string, DeltaTable> counts_;   // relation -> tuple -> #derivations
  std::vector<std::string> topo_order_;        // relations, upstream first
  bool initialized_ = false;
  uint64_t rows_visited_ = 0;
};

}  // namespace deepdive::engine

#endif  // DEEPDIVE_ENGINE_VIEW_MAINTENANCE_H_
