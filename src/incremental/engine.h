#ifndef DEEPDIVE_INCREMENTAL_ENGINE_H_
#define DEEPDIVE_INCREMENTAL_ENGINE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "factor/compiled_graph.h"
#include "factor/factor_graph.h"
#include "factor/graph_delta.h"
#include "incremental/mh_sampler.h"
#include "incremental/optimizer.h"
#include "incremental/sample_store.h"
#include "incremental/snapshot.h"
#include "incremental/variational.h"
#include "inference/gibbs.h"
#include "inference/parallelism.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/thread_role.h"

namespace deepdive::incremental {

struct EngineOptions {
  OptimizerConfig optimizer;
  std::optional<Strategy> forced_strategy;
  /// Confine re-inference to graph components touched by the delta
  /// (Appendix B.1). Disable to reproduce the NoDecomposition lesion.
  bool decomposition_enabled = true;
  size_t mh_target_steps = 1000;
  /// Gibbs budget for the (warm-started, component-confined) variational path.
  inference::GibbsOptions gibbs;
  /// Gibbs budget for a full rerun fallback — a cold chain over the whole
  /// graph, so typically a larger budget than `gibbs`.
  inference::GibbsOptions rerun_gibbs;
};

struct UpdateOutcome {
  std::vector<double> marginals;   // full vector, all variables
  Strategy strategy = Strategy::kSampling;
  std::string reason;
  double seconds = 0.0;
  double acceptance_rate = -1.0;   // sampling path only
  size_t affected_vars = 0;
  /// Variational path: the swept (non-evidence affected) variables whose
  /// marginals came from enumerating their component, and those the Gibbs
  /// chain sampled. Both 0 on the other strategies.
  size_t exact_vars = 0;
  size_t sampled_vars = 0;
  bool fell_back_to_variational = false;
  /// Per-group execution accounting (see ExecuteUpdate).
  size_t sampling_vars = 0;
  size_t variational_vars = 0;
  /// Generation of the snapshot this update was served from.
  uint64_t snapshot_generation = 0;
  /// True when a background rematerialization was running while this update
  /// was served (it ran against the previous snapshot).
  bool served_during_remat = false;
};

/// Orchestrates incremental inference (Section 3.3): materializes *both* the
/// sampling and the variational approaches up front, then, per update,
/// classifies the delta with the rule-based optimizer and executes the
/// chosen strategy per affected graph component ("different materialization
/// strategies for different groups of variables"): components whose delta
/// changes evidence or adds fixed-weight structure go variational, the rest
/// ride the sampling chain. Successive updates accumulate into one delta
/// against the materialized distribution, so the sampling approach's
/// acceptance rate decays naturally as the distribution drifts — exactly
/// the dynamics the optimizer arbitrates.
///
/// The cumulative delta is a net diff against Pr(0) (see GraphDelta): the
/// groups added since and still active, the Pr(0) groups removed, each
/// modified group's net clause changes, one entry per Pr(0) weight whose
/// value differs now (its Pr(0) and current values), and one per variable
/// whose label differs. Entries for weights Pr(0) did not have are dropped:
/// every group on such a weight is a new group, scored at its current value.
/// Its size is bounded by what differs, however many updates moved it, and
/// an update that undoes another leaves no entry: an exact-restore
/// retraction merges like any update and needs no rewind.
///
/// Materialization lifecycle: all approximation state lives in an immutable-
/// build MaterializationSnapshot. Materialize builds one inline;
/// MaterializeAsync builds one on a dedicated background worker against a
/// private copy of the graph ("during idle time", Section 3.3) while
/// ApplyDelta keeps serving from the previous snapshot and its cumulative
/// delta. The finished snapshot is swapped in at the next ApplyDelta /
/// WaitForMaterialization, and the cumulative delta is rebased: deltas that
/// arrived mid-build survive the swap (they are not covered by the new
/// snapshot), everything older is absorbed by it. When remat triggers are
/// configured (store exhausted, acceptance floor, update count), the engine
/// schedules its own background rebuilds after serving an update, and it
/// always rebuilds after discarding a build that a rule change made stale.
///
/// Threading contract: Materialize / MaterializeAsync / ApplyDelta /
/// WaitForMaterialization and the accessors must be called from one serving
/// thread — enforced at compile time under Clang: they are
/// REQUIRES(serving_thread) (the fake-lock role capability of
/// util/thread_role.h), so calling them from code that has not claimed the
/// role is a -Wthread-safety error, not a comment violation. The internal
/// background build runs concurrently with them and touches only
/// `mu_`-guarded handoff state. The engine publishes nothing itself: other
/// threads read its results through the ResultViews DeepDive publishes.
///
/// Parallelism, fixed at construction, reaches every stage the engine runs
/// but MH, whose chain and accumulation are sequential: the snapshot build
/// (the sampling chain and the variational fit), the variational write
/// (Hogwild above one thread, the caching sequential chain otherwise) and
/// the rerun's replicated chain.
class IncrementalEngine {
 public:
  explicit IncrementalEngine(factor::FactorGraph* graph,
                             const inference::Parallelism& parallelism = {});
  ~IncrementalEngine();

  IncrementalEngine(const IncrementalEngine&) = delete;
  IncrementalEngine& operator=(const IncrementalEngine&) = delete;

  /// Builds and installs a snapshot inline (blocking). Cancels and discards
  /// any background build in flight first.
  Status Materialize(const MaterializationOptions& options)
      REQUIRES(serving_thread);

  /// Schedules a snapshot build on the background worker and returns
  /// immediately. Fails (FailedPrecondition) if a build is already in
  /// flight. The build materializes the graph state as of this call; deltas
  /// applied afterwards accumulate for the post-swap rebase.
  Status MaterializeAsync(const MaterializationOptions& options)
      REQUIRES(serving_thread);

  /// True while a background build is running or finished-but-not-swapped.
  /// Any thread.
  bool MaterializationInFlight() const EXCLUDES(mu_);

  /// Blocks until the in-flight background build (if any) completes and
  /// installs it — the forced synchronous drain. Returns the build's status
  /// (OK when idle). Observing a failure here clears it and re-arms the
  /// automatic remat triggers, which stay disarmed after a failed build.
  Status WaitForMaterialization() REQUIRES(serving_thread);

  /// The serving snapshot: its Pr(0) marginals, build statistics, install
  /// generation (0 = never materialized) and sample store. Never null —
  /// an empty generation-0 snapshot stands in before the first install.
  /// The pin keeps it alive across later swaps, but its `store` cursor
  /// advances with every MH update, so only this thread may read it; other
  /// threads read the copies DeepDive publishes into each ResultView.
  std::shared_ptr<const MaterializationSnapshot> snapshot() const
      REQUIRES(serving_thread) {
    return snapshot_;
  }

  /// Applies one update's delta (already applied to the graph structure) and
  /// refreshes marginals — the engine's one write entry. `restore_marginals`,
  /// when non-null, short-circuits inference: the caller proved (via its
  /// rule journal) that no update intervened since the matching rule add, so
  /// the pre-add marginals are the exact posterior of the restored graph and
  /// are adopted verbatim — the bit-identical round-trip guarantee. `delta`
  /// must then also undo the weights the caller restored. It merges like any
  /// other update, and needs no rewind: the removals cancel the add's
  /// groups, and the weight reverts bring each net entry back to its pre-add
  /// value, so unless the add minted variables the cumulative delta equals
  /// its contents before the add.
  StatusOr<UpdateOutcome> ApplyDelta(
      const factor::GraphDelta& delta, const EngineOptions& options,
      const std::vector<double>* restore_marginals = nullptr)
      REQUIRES(serving_thread);

  /// Online program evolution: call once before the ApplyDelta of an update
  /// that adds or removes a rule, whatever verb carried it. Bumps the
  /// rule-set version and drops the cached compiled kernel (lazily
  /// recompiled at next use). It never blocks on a background build: a build
  /// in flight keeps running, its result is discarded at install time
  /// because its rule_set_version no longer matches (see
  /// MaterializationSnapshot::rule_set_version), and the next update
  /// schedules a rebuild at the current version.
  void RuleSetChanged() REQUIRES(serving_thread);

  /// Program version counter: one tick per RuleSetChanged. Snapshots record
  /// the version they were built against; installs require a match.
  uint64_t rule_set_version() const REQUIRES(serving_thread) {
    return rule_set_version_;
  }

  /// Update sequence number (one tick per ApplyDelta). Callers journal it to
  /// detect whether updates intervened between an add and its retraction.
  uint64_t update_seq() const REQUIRES(serving_thread) { return update_seq_; }

  /// The cached flat CSR kernel of the current graph, compiling it on first
  /// use after an invalidation. Every structural or rule delta (and any
  /// weight/evidence change) drops the cache, so the pointer always reflects
  /// the live graph; it stays valid until the next mutating call on this
  /// thread.
  const factor::CompiledGraph* CompiledKernel() REQUIRES(serving_thread);

  /// Current marginal estimates (materialized values for untouched vars).
  /// Serving thread only — concurrent readers use DeepDive::Query().
  const std::vector<double>& marginals() const REQUIRES(serving_thread) {
    return marginals_;
  }

  const factor::GraphDelta& cumulative_delta() const REQUIRES(serving_thread) {
    return cumulative_;
  }

 private:
  /// Variables directly referenced by a delta.
  std::vector<bool> TouchedVars(const factor::GraphDelta& delta) const
      REQUIRES(serving_thread);

  /// Expands touched variables to whole connected components (or all
  /// variables when decomposition is disabled).
  std::vector<factor::VarId> AffectedVars(const factor::GraphDelta& delta,
                                          bool decomposition_enabled)
      REQUIRES(serving_thread);

  /// Connected components of the current graph, cached across updates and
  /// invalidated by structural deltas (new variables/groups/clauses) — one
  /// computation per ApplyDelta at most, shared by AffectedVars and
  /// RunPerGroup.
  const std::vector<std::vector<factor::VarId>>& Components()
      REQUIRES(serving_thread);

  /// Strategy selection + execution for one update (everything downstream of
  /// the entry bookkeeping). Factored out so ApplyDelta can evaluate remat
  /// triggers on every successful path.
  StatusOr<UpdateOutcome> ExecuteUpdate(const factor::GraphDelta& delta,
                                        const EngineOptions& options,
                                        const std::vector<double>* restore_marginals)
      REQUIRES(serving_thread);

  StatusOr<UpdateOutcome> RunSampling(const EngineOptions& options,
                                      const std::vector<factor::VarId>& affected)
      REQUIRES(serving_thread);
  UpdateOutcome RunVariational(const EngineOptions& options,
                               const std::vector<factor::VarId>& affected)
      REQUIRES(serving_thread);
  UpdateOutcome RunRerun(const EngineOptions& options) REQUIRES(serving_thread);

  /// Splits the affected variables into per-component strategy buckets from
  /// the cumulative delta (Section 3.3 applied per group) and executes each
  /// bucket with its strategy.
  StatusOr<UpdateOutcome> RunPerGroup(const EngineOptions& options,
                                      const std::vector<factor::VarId>& affected)
      REQUIRES(serving_thread);

  /// Installs a finished snapshot as the serving one and rebases the
  /// cumulative delta onto it (cumulative := deltas since the build's graph
  /// copy, less the weights the snapshot did not have). Serving thread only.
  void InstallSnapshot(std::shared_ptr<MaterializationSnapshot> snapshot)
      REQUIRES(serving_thread);

  /// Swaps in the pending background result if one is ready. Returns true
  /// while a build is still running (the caller is serving mid-build).
  bool MaybeInstallPending() REQUIRES(serving_thread);

  /// Drops `*ready` (returning true) when its rule_set_version no longer
  /// matches the engine's — the build predates a rule delta and must never
  /// be installed — and arms the rebuild at the current version.
  bool DiscardIfStale(std::shared_ptr<MaterializationSnapshot>* ready)
      REQUIRES(serving_thread);

  /// Cancels an in-flight background build and discards its result.
  void AbortInFlightBuild() REQUIRES(serving_thread);

  /// Fires a background rebuild after a discarded build or when a remat
  /// trigger matches `outcome`.
  void MaybeScheduleRemat(const UpdateOutcome& outcome) REQUIRES(serving_thread);

  factor::FactorGraph* graph_;
  /// Immutable after construction; the background build reads a copy.
  const inference::Parallelism parallelism_;

  /// Serving state, GUARDED_BY the serving-thread role capability (compile-
  /// enforced under Clang). `snapshot_` is never null — a default empty
  /// snapshot stands in before the first materialization. It is shared (not
  /// unique) because published ResultViews pin the snapshot they were served
  /// from; a swap retires it only once the last reader drops its view.
  std::shared_ptr<MaterializationSnapshot> snapshot_ GUARDED_BY(serving_thread);
  std::vector<double> marginals_ GUARDED_BY(serving_thread);
  factor::GraphDelta cumulative_ GUARDED_BY(serving_thread);
  uint64_t update_seq_ GUARDED_BY(serving_thread) = 0;
  uint64_t generation_ GUARDED_BY(serving_thread) = 0;
  /// Bumped by RuleSetChanged; stamped into scheduled snapshot builds and
  /// checked at install time (stale-program builds are discarded).
  uint64_t rule_set_version_ GUARDED_BY(serving_thread) = 0;
  /// Set when a finished build is discarded as stale; the next update then
  /// schedules a rebuild of the current program (MaybeScheduleRemat).
  bool rebuild_after_discard_ GUARDED_BY(serving_thread) = false;
  /// Lazily compiled CSR kernel of the current graph (see CompiledKernel()).
  /// Null = invalidated; reset by any delta that mutates the graph.
  std::unique_ptr<const factor::CompiledGraph> compiled_kernel_
      GUARDED_BY(serving_thread);
  /// Updates served from the current snapshot (remat trigger input).
  uint64_t updates_since_snapshot_ GUARDED_BY(serving_thread) = 0;
  /// Deltas merged while the current background build runs; becomes the new
  /// cumulative delta at swap time. Its weight entries are filtered then,
  /// against the new snapshot's weight count.
  factor::GraphDelta since_build_ GUARDED_BY(serving_thread);
  uint64_t since_build_updates_ GUARDED_BY(serving_thread) = 0;
  /// Options of the last materialization request; drives self-scheduled
  /// remats with identical parameters (deterministic rebuilds).
  MaterializationOptions mat_options_ GUARDED_BY(serving_thread);
  bool mat_options_valid_ GUARDED_BY(serving_thread) = false;

  /// Connected-components cache (serving thread only).
  std::vector<std::vector<factor::VarId>> components_cache_
      GUARDED_BY(serving_thread);
  size_t components_width_ GUARDED_BY(serving_thread) = 0;
  bool components_valid_ GUARDED_BY(serving_thread) = false;

  /// Background build plumbing. `mu_` guards the handoff slot; the builder
  /// only touches its private graph copy plus this slot.
  mutable Mutex mu_;
  CondVar build_done_cv_;
  bool build_in_flight_ GUARDED_BY(mu_) = false;
  std::shared_ptr<MaterializationSnapshot> pending_ GUARDED_BY(mu_);
  Status pending_status_ GUARDED_BY(mu_);
  /// Build-cancellation flag, shared with the builder thread; plain atomic
  /// (not mu_-guarded) so Build can poll it between sweeps without locking.
  std::atomic<bool> cancel_build_{false};
  /// One dedicated worker, lazily created; touched by the serving thread
  /// only (the worker runs *inside* it).
  std::unique_ptr<ThreadPool> background_ GUARDED_BY(serving_thread);
};

}  // namespace deepdive::incremental

#endif  // DEEPDIVE_INCREMENTAL_ENGINE_H_
