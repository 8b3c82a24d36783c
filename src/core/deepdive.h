#ifndef DEEPDIVE_CORE_DEEPDIVE_H_
#define DEEPDIVE_CORE_DEEPDIVE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.h"
#include "incremental/update_report.h"
#include "dsl/program.h"
#include "engine/view_maintenance.h"
#include "grounding/grounder.h"
#include "grounding/incremental_grounder.h"
#include "incremental/engine.h"
#include "incremental/result_view.h"
#include "storage/database.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_role.h"

namespace deepdive::core {

/// One development-loop update (Figure 1): data changes, rule changes, or a
/// pure analysis step, applied atomically followed by learning + inference.
struct UpdateSpec {
  std::string label;  // e.g. "FE1"
  std::map<std::string, std::vector<Tuple>> inserts;
  std::map<std::string, std::vector<Tuple>> deletes;
  /// DSL fragment with new rules (and possibly new relations).
  std::string add_rules;
  std::vector<std::string> remove_rule_labels;
  /// Pure analysis (rule A1): recompute marginals, nothing changes.
  bool analysis_only = false;
  /// Skip the learning step even if evidence exists (pure inference).
  bool skip_learning = false;
};

// incremental::UpdateReport (timing/diagnostics for one update) lives in
// incremental/update_report.h so ResultViews can embed it.

/// End-to-end DeepDive engine: declarative program + relational store +
/// DRed view maintenance + (incremental) grounding + learning + inference.
///
/// Typical use:
///   auto dd = DeepDive::Create(program_source, config);
///   dd->LoadRows("Sentence", sentences);
///   dd->Initialize();                       // views, grounding, materialize
///   dd->ApplyUpdate(update);                // iterate the development loop
///   dd->Query()->MarginalOf("HasSpouse", tuple);
///
/// Threading contract: one writer, any number of readers. LoadRows /
/// Initialize / ApplyUpdate and the accessors belong to one serving thread
/// — under Clang they are REQUIRES(serving_thread), the fake-lock role
/// capability of util/thread_role.h, so calling them without having claimed
/// the role is a -Wthread-safety compile error. Query() is
/// the concurrent read surface: every Initialize/ApplyUpdate publishes a
/// fresh immutable ResultView, and any number of reader threads can pin and
/// read views (no capability needed) while the next update is being applied.
class DeepDive {
 public:
  /// The creating thread claims the serving role; it may hand the instance
  /// to a different serving thread before first use (the handoff is ordered
  /// by whatever mechanism transfers the pointer).
  static StatusOr<std::unique_ptr<DeepDive>> Create(const std::string& program_source,
                                                    DeepDiveConfig config)
      REQUIRES(serving_thread);

  Database* db() REQUIRES(serving_thread) { return &db_; }
  const dsl::Program& program() const REQUIRES(serving_thread) {
    return program_;
  }
  const grounding::GroundGraph& ground() const REQUIRES(serving_thread) {
    return ground_;
  }
  factor::FactorGraph* mutable_graph() REQUIRES(serving_thread) {
    return &ground_.graph;
  }
  /// Immutable after construction; readable from any thread.
  const DeepDiveConfig& config() const { return config_; }

  /// Bulk-loads base data. Must precede Initialize().
  Status LoadRows(const std::string& relation, const std::vector<Tuple>& rows)
      REQUIRES(serving_thread);

  /// Evaluates all views, grounds the factor graph, learns (if evidence
  /// exists), runs initial inference, and — in incremental mode —
  /// materializes both incremental-inference approaches.
  Status Initialize() REQUIRES(serving_thread);

  /// The one write path: applies one update and refreshes marginals. Every
  /// check (fragment analysis, known relations, removal labels naming rules,
  /// rows incremental grounding can absorb) runs before the first change, so
  /// a rejected update changes nothing. The returned report carries the
  /// epoch of the ResultView the update published. In Rerun mode this
  /// re-grounds / re-learns / re-infers from scratch. In incremental mode it
  /// keeps the rule journal: an update whose only change is one labeled
  /// factor rule over declared relations records the marginals and weights
  /// before it, and an update whose only change removes that label, with no
  /// update in between, restores them bit-for-bit instead of re-inferring.
  StatusOr<incremental::UpdateReport> ApplyUpdate(const UpdateSpec& update)
      REQUIRES(serving_thread);

  /// First-class rule addition (online program evolution): `rule_source` is
  /// a DSL fragment containing exactly one *factor* rule with a non-empty
  /// label no factor rule uses, over already-declared relations. It checks
  /// that, then is ApplyUpdate of that fragment, labeled "add_rule:<label>":
  /// the rule is grounded alone (work proportional to its matches — see the
  /// report's grounding_work; never a re-ground), optionally learned, and
  /// the engine sees a rule change; in incremental mode the rule journal
  /// records the state before it. Deductive rules / new relations / data
  /// still travel through ApplyUpdate. `learn = false` (the miner's trial
  /// mode) leaves every existing weight untouched.
  StatusOr<incremental::UpdateReport> AddRule(const std::string& rule_source,
                                              bool learn = true)
      REQUIRES(serving_thread);

  /// First-class rule retraction: ApplyUpdate removing `label`, without
  /// learning, labeled "retract_rule:<label>". Every rule the label names,
  /// deductive or factor, leaves the views, the graph and the program. When
  /// no update intervened since the update that added the rule, the rule
  /// journal restores the weights and marginals before it bit-for-bit;
  /// otherwise the engine re-infers incrementally from the retraction delta.
  StatusOr<incremental::UpdateReport> RetractRule(const std::string& label)
      REQUIRES(serving_thread);

  /// Program-evolution observability (also published into every ResultView
  /// so any thread can read them via Query()).
  uint64_t program_version() const REQUIRES(serving_thread) {
    return program_version_;
  }
  size_t NumRules() const REQUIRES(serving_thread) {
    return program_.deductive_rules().size() + program_.factor_rules().size();
  }
  /// FNV-1a over the canonical text of every rule in declaration order.
  uint64_t RulesFingerprint() const REQUIRES(serving_thread);

  /// Observer for set-level relation deltas, invoked on the serving thread
  /// after each batch of view maintenance inside an update (base and
  /// derived relations alike). This is how layers above core (the rule
  /// miner's co-occurrence collector) maintain statistics incrementally
  /// instead of rescanning the database.
  using RelationDeltaListener = std::function<void(const engine::RelationDeltas&)>;
  void SetRelationDeltaListener(RelationDeltaListener listener)
      REQUIRES(serving_thread) {
    delta_listener_ = std::move(listener);
  }

  /// The incremental grounder (serving thread only; null before Initialize).
  /// Exposed for grounding-work accounting (groundings_emitted).
  grounding::IncrementalGrounder* grounder() REQUIRES(serving_thread) {
    return grounder_.get();
  }

  /// Pins the current immutable result view — the one way to read results,
  /// on the serving thread and off it. Callable from any thread,
  /// concurrently with ApplyUpdate and background materialization swaps on
  /// the serving thread; the read is a single atomic acquire load and never
  /// blocks the writer. The view answers MarginalOf/Relation lookups for
  /// the epoch it was published at, forever (snapshot isolation) — call
  /// again to observe newer epochs. Never null; before Initialize it is the
  /// empty epoch-0 view. Views are published by Initialize and by each
  /// update (ApplyUpdate, AddRule, RetractRule) only: a snapshot the engine
  /// installs in between (WaitForMaterialization) shows in the next view.
  std::shared_ptr<const incremental::ResultView> Query() const {
    return publisher_.Current();
  }

  /// Blocks until a view with epoch >= `min_epoch` has been published.
  /// Callable from any thread; the explicit readiness signal for reader
  /// threads that must not spin on the empty epoch-0 view (min_epoch = 1
  /// blocks until the end of Initialize).
  void WaitForView(uint64_t min_epoch = 1) const {
    publisher_.WaitForEpoch(min_epoch);
  }

  /// The incremental engine (nullptr in Rerun mode or before Initialize).
  /// Exposes the async-materialization surface: MaterializationInFlight,
  /// WaitForMaterialization, and snapshot() for the serving snapshot.
  incremental::IncrementalEngine* incremental_engine() REQUIRES(serving_thread) {
    return inc_engine_.get();
  }

 private:
  DeepDive(dsl::Program program, DeepDiveConfig config);

  /// Rule-journal entry recorded by an update that adds one labeled factor
  /// rule: everything needed to make that rule's removal a bit-identical
  /// undo when no update intervened.
  struct RuleTicket {
    std::string label;
    /// Engine update_seq right after the add; a removal restores exactly
    /// only while the engine is still at this sequence number.
    uint64_t engine_seq_after = 0;
    std::vector<double> marginals_before;
    std::vector<double> weights_before;
  };

  Status RunFullPipeline(incremental::UpdateReport* report, bool cold_learning)
      REQUIRES(serving_thread);

  /// Builds a ResultView of the current serving state (marginals_, the
  /// per-relation tuple index derived from ground_, `report`, and — in
  /// incremental mode — the serving snapshot's stats and pinned Pr(0)
  /// marginals), publishes it, and stamps report->epoch. Serving thread
  /// only.
  void PublishView(incremental::UpdateReport* report) REQUIRES(serving_thread);

  /// The end of every successful ApplyUpdate: adopts the engine's `outcome`
  /// (null in Rerun mode, where RunFullPipeline set the marginals and
  /// strategy) into marginals_ and `report`, stamps the graph sizes,
  /// publishes the view and counts the update.
  incremental::UpdateReport FinishUpdate(
      incremental::UpdateReport report,
      const incremental::UpdateOutcome* outcome) REQUIRES(serving_thread);

  /// Incremental learning with warmstart; records weight changes in `delta`.
  void LearnIncremental(factor::GraphDelta* delta) REQUIRES(serving_thread);

  bool HasEvidence() const REQUIRES(serving_thread);

  /// Mutated by ApplyUpdate (rule additions/removals merge into it), so
  /// serving-thread-only like the rest of the working state.
  dsl::Program program_ GUARDED_BY(serving_thread);
  DeepDiveConfig config_;  // immutable after construction
  Database db_ GUARDED_BY(serving_thread);

  std::unique_ptr<engine::ViewMaintainer> views_ GUARDED_BY(serving_thread);
  grounding::GroundGraph ground_ GUARDED_BY(serving_thread);
  std::unique_ptr<grounding::IncrementalGrounder> grounder_
      GUARDED_BY(serving_thread);
  std::unique_ptr<incremental::IncrementalEngine> inc_engine_
      GUARDED_BY(serving_thread);

  /// Working marginal buffer of the serving thread; every publication
  /// freezes a copy into an immutable ResultView.
  std::vector<double> marginals_ GUARDED_BY(serving_thread);
  /// Successful updates so far; keys the per-update learning and rerun
  /// seeds.
  uint64_t updates_applied_ GUARDED_BY(serving_thread) = 0;
  bool initialized_ GUARDED_BY(serving_thread) = false;

  /// Bumped once per update whose fragment carries rules and once per
  /// removed label; published into views as program_version.
  uint64_t program_version_ GUARDED_BY(serving_thread) = 0;
  /// The rule journal: recent tickets, newest last (bounded; see
  /// kMaxRuleJournal).
  std::vector<RuleTicket> rule_journal_ GUARDED_BY(serving_thread);
  RelationDeltaListener delta_listener_ GUARDED_BY(serving_thread);

  /// RCU publication slot for Query().
  incremental::ResultPublisher publisher_;
};

}  // namespace deepdive::core

#endif  // DEEPDIVE_CORE_DEEPDIVE_H_
