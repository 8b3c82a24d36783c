#ifndef DEEPDIVE_GROUNDING_INCREMENTAL_GROUNDER_H_
#define DEEPDIVE_GROUNDING_INCREMENTAL_GROUNDER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dsl/program.h"
#include "engine/rule_evaluator.h"
#include "engine/view_maintenance.h"
#include "factor/graph_delta.h"
#include "grounding/grounder.h"
#include "grounding/grounding_options.h"
#include "storage/database.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace deepdive::grounding {

/// Incremental grounding (Section 3, phase 1): turns set-level relation
/// deltas (from DRed view maintenance) and program changes into a factor-
/// graph delta (ΔV, ΔF):
///   * new query tuples        -> new variables
///   * evidence tuple changes  -> evidence (re)assignments
///   * factor-rule body deltas -> ground clauses added to / retracted from
///     their Equation-1 groups (via the same telescoping delta evaluation
///     used for views)
///   * rule addition/removal   -> full evaluation / group deactivation
///
/// With `options.num_threads > 1`, large full evaluations (GroundAll,
/// AddFactorRule) run as a sharded pipeline (compile -> shard -> evaluate ->
/// merge): the driver atom's scan is partitioned into contiguous row ranges,
/// each shard evaluates its range and emits groundings into a private buffer
/// (resolving variables/weights against the frozen graph, minting
/// shard-local provisional ids for misses), and a deterministic merge
/// replays the buffers in shard order. The merged graph and delta are
/// bit-identical to the sequential result at any thread count, because ids
/// are assigned in the same global first-encounter order the sequential
/// grounder would use. Delta evaluation starts each term at its changed
/// atom, so its work follows the update; it always runs sequentially.
class IncrementalGrounder {
 public:
  /// `ground` may be empty (fresh grounding) or a previously built graph.
  IncrementalGrounder(const dsl::Program* program, Database* db, GroundGraph* ground,
                      GroundingOptions options = {});

  /// Compiles the program's factor rules. Call once before grounding.
  Status Initialize();

  /// Grounds everything from the current database state (assumes the graph
  /// has no groundings yet for these rules). Returns the delta (which, for a
  /// fresh graph, describes the whole graph).
  StatusOr<factor::GraphDelta> GroundAll();

  /// Applies relation set-deltas produced by ViewMaintainer::ApplyUpdate.
  StatusOr<factor::GraphDelta> ApplyRelationDeltas(const engine::RelationDeltas& deltas);

  /// ApplyRelationDeltas' one precondition, checkable before view
  /// maintenance writes anything: no factor rule negates a relation in
  /// `changing` (ViewMaintainer::ChangingRelations). Returns Unimplemented
  /// naming the first such relation.
  Status CheckDeltaEvaluable(const std::set<std::string>& changing) const;

  /// Adds one factor rule to the running system (grounds it fully).
  StatusOr<factor::GraphDelta> AddFactorRule(const dsl::FactorRule& rule);

  /// Retracts a factor rule by label: deactivates all its groups.
  StatusOr<factor::GraphDelta> RemoveFactorRule(const std::string& label);

  size_t NumFactorRules() const { return rules_.size(); }

  /// Cumulative count of groundings (ground clauses added or retracted)
  /// emitted by this grounder, across all rules and updates. Both the
  /// sequential and the sharded path funnel through the same emission tail,
  /// so the counter is exact at any thread count.
  uint64_t groundings_emitted() const { return groundings_emitted_; }
  /// Cumulative count of table rows and delta entries the rule-body joins
  /// enumerated, across all rules and updates (shards summed). The witness
  /// that delta grounding costs work in proportion to the update.
  uint64_t rows_visited() const { return rows_visited_; }
  /// Immutable after construction; the reference is safe on any thread that
  /// may see the grounder at all (serving thread, in practice).
  const GroundingOptions& options() const { return options_; }

 private:
  struct ShardBuffer;  // per-shard emission buffer (defined in the .cc)

  struct CompiledFactorRule {
    dsl::FactorRule rule;
    uint32_t rule_id = 0;
    engine::CompiledRuleBody body;
    factor::WeightId fixed_weight = 0;   // for non-tied weights
    bool has_fixed_weight = false;
    std::vector<int> head_slots;         // slot per head term (-1 = constant)
    std::vector<int> weight_slots;       // slots of tied-weight variables
    /// Body atoms over query relations: (relation, negated, slots per term).
    struct QueryAtom {
      std::string relation;
      bool negated = false;
      std::vector<int> slots;            // -1 = constant
      std::vector<Value> constants;      // aligned with slots
    };
    std::vector<QueryAtom> query_atoms;
  };

  Status CompileFactorRule(const dsl::FactorRule& rule);

  /// Creates (or finds) the variable for a query tuple; records creation.
  factor::VarId GetOrCreateVariable(const std::string& relation, const Tuple& tuple,
                                    factor::GraphDelta* delta);

  /// Processes one grounding (binding of the rule body) with sign +/-1.
  void ProcessGrounding(const CompiledFactorRule& cr, const std::vector<Value>& values,
                        int64_t sign, factor::GraphDelta* delta);

  /// The emission tail shared by the sequential and merge paths: group
  /// lookup/creation, clause append/retract, and delta bookkeeping.
  /// `literals` must already be in canonical (sorted, deduped) order.
  void FinishGrounding(const CompiledFactorRule& cr, factor::VarId head,
                       factor::WeightId weight, std::vector<factor::Literal> literals,
                       int64_t sign, factor::GraphDelta* delta);

  /// Shard-local half of ProcessGrounding: resolves variables and weights
  /// against the frozen graph (read-only), minting provisional ids in `buf`
  /// for entities this update has not yet seen. Called from worker threads.
  void EmitShardGrounding(const CompiledFactorRule& cr,
                          const std::vector<Value>& values, int64_t sign,
                          ShardBuffer* buf) const;

  /// Replays shard buffers in shard order against the real graph, remapping
  /// provisional ids to globally assigned ones. Produces the exact ids and
  /// delta the sequential grounder would have.
  void MergeShardBuffers(const CompiledFactorRule& cr, std::vector<ShardBuffer>* buffers,
                         factor::GraphDelta* delta);

  /// Fully grounds one rule, sharded across the pool when the driver domain
  /// is large enough, sequentially otherwise.
  void GroundRuleFull(const CompiledFactorRule& cr, factor::GraphDelta* delta);

  /// Worker count for a given driver-domain size (1 = stay sequential).
  size_t ShardsFor(size_t domain) const;

  /// Creates the worker pool on first sharded evaluation.
  void EnsurePool();

  /// Applies evidence-relation changes for a target variable by rescanning
  /// the evidence tables for that tuple.
  void ReapplyEvidence(const std::string& query_relation, const Tuple& tuple,
                       factor::GraphDelta* delta);

  const dsl::Program* program_;
  Database* db_;
  GroundGraph* ground_;
  GroundingOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // created lazily on first sharded run
  std::vector<CompiledFactorRule> rules_;

  // (rule_id, head var, weight) -> group.
  std::map<std::tuple<uint32_t, factor::VarId, factor::WeightId>, factor::GroupId>
      group_index_;
  // Scratch: per-update map group -> index into delta.modified_groups, and
  // the set of groups created during the current update (their clauses are
  // implicitly "new" and need no GroupMod record).
  std::map<factor::GroupId, size_t> mod_index_;
  std::set<factor::GroupId> fresh_groups_;

  uint32_t next_rule_id_ = 0;
  bool initialized_ = false;
  uint64_t groundings_emitted_ = 0;
  uint64_t rows_visited_ = 0;
};

}  // namespace deepdive::grounding

#endif  // DEEPDIVE_GROUNDING_INCREMENTAL_GROUNDER_H_
