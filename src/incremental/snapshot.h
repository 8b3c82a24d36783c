#ifndef DEEPDIVE_INCREMENTAL_SNAPSHOT_H_
#define DEEPDIVE_INCREMENTAL_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "factor/factor_graph.h"
#include "incremental/sample_store.h"
#include "incremental/variational.h"
#include "inference/parallelism.h"
#include "util/status.h"

namespace deepdive::incremental {

struct MaterializationOptions {
  /// Samples stored for the sampling approach (SM of Figure 5's cost model).
  /// Sized so several updates' worth of effective samples fit before rule 4
  /// (out of samples) forces the variational path.
  size_t num_samples = 5000;
  size_t gibbs_burn_in = 50;
  size_t gibbs_thin = 1;
  VariationalOptions variational;
  /// Best-effort time budget in seconds (0 = none): sample collection stops
  /// early when exceeded — enforced during burn-in too, so a long burn-in
  /// cannot blow the budget before the first sample lands. Mirrors
  /// DeepDive's "as many samples as possible in a user-specified interval"
  /// policy (Section 3.3 / Appendix B.2).
  double time_budget_seconds = 0.0;
  uint64_t seed = 31;

  // ---- async materialization / rematerialization policy (Section 3.3's
  // "materialize during idle time"): the build runs on a background worker
  // while updates keep being served from the previous snapshot. ----

  /// Build snapshots in the background (MaterializeAsync); the engine also
  /// schedules its own background rebuilds from the triggers below.
  bool async = false;
  /// Remat when the sample store runs dry (rule 4 would otherwise pin every
  /// later update on the variational path). Only acted on when `async`.
  bool remat_on_exhaustion = true;
  /// Remat when an update's MH acceptance rate drops below this floor —
  /// the distribution has drifted far from Pr(0) and stored samples are
  /// mostly wasted proposals. 0 disables.
  double remat_acceptance_floor = 0.0;
  /// Remat after this many updates since the serving snapshot was built.
  /// 0 disables.
  size_t remat_after_updates = 0;

  /// Overnight-materialization reuse: when set, the sample store is loaded
  /// from / saved to these paths. A loaded store skips the sampling chain
  /// and the exact draws entirely (its width is validated against the
  /// target graph).
  std::string load_sample_store;
  std::string save_sample_store;

  /// Test-only synchronization hook: invoked on the build thread after the
  /// snapshot is fully built, immediately before it is published for the
  /// swap. Lets tests hold a build "in flight" deterministically.
  std::function<void()> on_before_publish;
};

/// Components of at most this many free variables can have their stored
/// samples drawn from an exact table instead of the chain (see
/// BuildMaterializationSnapshot). A table holds 2^n doubles: at most 4,096
/// (32 KB) for one component, and at most 2^12 / 12 < 342 (2.7 KB) per free
/// variable over all of them.
inline constexpr size_t kMaxExactComponentVars = 12;

struct MaterializationStats {
  size_t samples_collected = 0;
  /// Free (non-evidence) variables in enumerated components, whose
  /// materialized marginals are exact and whose samples (unless the store
  /// was loaded) are exact draws; and the other free variables, whose
  /// samples come from the chain and whose marginals are sample averages.
  size_t exact_vars = 0;
  size_t chain_vars = 0;
  size_t sample_bytes = 0;
  size_t variational_edges = 0;
  double seconds = 0.0;
  /// True when the store was loaded from `load_sample_store` instead of
  /// being drawn.
  bool store_loaded = false;
};

/// Everything the incremental engine serves updates from, built in one piece
/// against a fixed graph state (Pr(0)): the sampling approach's proposal
/// store, the variational approximation, and the materialized marginals.
/// Built either inline (Materialize) or on a background worker against a
/// private graph copy (MaterializeAsync), then swapped in atomically.
///
/// Lifetime & sharing: snapshots are reference-counted because published
/// ResultViews pin them — a view's `materialized_marginals` aliases this
/// struct, so a snapshot stays alive (and its build-time fields stay
/// readable from any thread) until the last reader drops its view, even
/// after the serving thread has swapped in a successor. Post-install, the
/// build-time fields (`materialized_marginals`, `stats`, `variational`,
/// `graph_width`, `num_weights`, `generation`) are immutable; only `store`
/// keeps mutating — its cursor advances as MH consumes proposals — and it
/// is serving-thread territory that pinned readers must not touch.
struct MaterializationSnapshot {
  SampleStore store;
  std::optional<VariationalMaterialization> variational;
  /// Marginals under Pr(0). Variables untouched by the cumulative delta
  /// keep exactly these values (their distribution has not changed).
  std::vector<double> materialized_marginals;
  MaterializationStats stats;
  /// NumVariables and NumWeights of the graph state this snapshot
  /// materializes.
  size_t graph_width = 0;
  size_t num_weights = 0;
  /// Install counter stamped by the engine (1 = first materialization).
  uint64_t generation = 0;
  /// Rule-set version of the program this snapshot was built against,
  /// stamped at build-schedule time. The engine refuses to install a
  /// snapshot whose version no longer matches: a rule added or retracted
  /// while the build ran changed the graph's *program*, and installing the
  /// stale build would resurrect retracted factors (its materialized
  /// marginals cover a distribution that no longer exists).
  uint64_t rule_set_version = 0;
};

/// Builds a complete snapshot of `graph`'s current distribution, returned
/// already reference-counted (see the sharing contract above). Pure with
/// respect to engine state, so the same (graph, options, parallelism) yields
/// bit-identical snapshots whether built inline or on a background worker
/// (at one thread per replica). The sampling chain runs through the
/// replicated sampler with `parallelism`: one thread and one replica keep
/// the sequential chain, more threads Hogwild its sweeps, and more replicas
/// draw round-robin from private-world chains with periodic consensus
/// averaging. The variational fit draws its samples on
/// `parallelism.num_threads` workers. `cancel`, when set, is polled between
/// chain sweeps and between build phases — the variational fit runs to
/// completion once started (it is short relative to the chain), so
/// cancellation latency is bounded by the longest single phase, not zero. A
/// cancelled build returns FailedPrecondition and its partial result is
/// discarded.
///
/// The sample store. The free variables split into the connected components
/// of the compiled graph among them (evidence, at its labels, cuts). A
/// component of n variables is enumerated when n <= kMaxExactComponentVars
/// and 2^n <= n * (gibbs_burn_in + num_samples * gibbs_thin), so its walk
/// costs no more conditionals than the chain would spend on it: its 2^n
/// worlds are walked once into a probability table, its materialized
/// marginals are exact, and every stored sample draws its assignment from
/// the table by inverse CDF, one uniform per component per sample from the
/// stream Rng::MixSeed(seed, 102). Those draws are independent, exact, and
/// the same at any parallelism. The chain sweeps only the
/// remaining components' variables, and does not run when none remain; the
/// enumerated variables of each sample it emits are overwritten by draws.
/// When nothing is enumerated the chain sweeps the whole graph and the store
/// holds exactly its samples.
StatusOr<std::shared_ptr<MaterializationSnapshot>> BuildMaterializationSnapshot(
    const factor::FactorGraph& graph, const MaterializationOptions& options,
    const inference::Parallelism& parallelism = {},
    const std::atomic<bool>* cancel = nullptr);

}  // namespace deepdive::incremental

#endif  // DEEPDIVE_INCREMENTAL_SNAPSHOT_H_
