#ifndef DEEPDIVE_INFERENCE_PARALLEL_GIBBS_H_
#define DEEPDIVE_INFERENCE_PARALLEL_GIBBS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "factor/compiled_graph.h"
#include "inference/gibbs.h"
#include "inference/world.h"
#include "util/bitvector.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace deepdive::inference {

/// A possible world whose clause/group statistics are maintained with relaxed
/// atomics, so concurrent Hogwild workers can Flip disjoint variables while
/// sharing clauses. Atomic read-modify-writes keep the counters *exact* (no
/// lost updates — the classic failure mode of racing `--unsat`); the only
/// approximation of the parallel sampler is that a worker may read a
/// neighbor's value or a clause statistic a few microseconds stale, which is
/// the standard DimmWitted/Hogwild trade.
///
/// Mirrors the World API the samplers need (value / GroupSat / ClauseUnsat /
/// Flip), so the conditional in gibbs.h works on either world.
class AtomicWorld {
 public:
  explicit AtomicWorld(const factor::CompiledGraph* graph);

  /// The frozen graph (see CompiledGraph's thread contract).
  const factor::CompiledGraph& graph() const { return *graph_; }
  size_t NumVariables() const { return values_.size(); }

  // ordering: relaxed — the Hogwild contract (see class comment): reads may
  // observe a neighbor's value/statistic a few operations stale; counters
  // stay exact because all updates are atomic RMWs. Quiescent readers get
  // their happens-before edge from the ThreadPool join (see RecomputeStats).
  bool value(factor::VarId v) const {
    return values_[v].load(std::memory_order_relaxed) != 0;
  }
  // ordering: relaxed, as above. Never below 0: a group's count moves after
  // the clause count that caused it, so a clause satisfied and unsatisfied
  // again on two threads can take it to -1 until the first one catches up.
  int64_t GroupSat(factor::GroupId g) const {
    return std::max<int64_t>(group_sat_[g].load(std::memory_order_relaxed), 0);
  }
  int32_t ClauseUnsat(factor::ClauseId c) const {
    return clause_unsat_[c].load(std::memory_order_relaxed);
  }

  /// Sets a variable and atomically maintains clause/group statistics.
  /// Callers partition variables so no two threads Flip the same id.
  void Flip(factor::VarId v, bool new_value);

  /// Initializes non-evidence variables (uniformly at random or all-false)
  /// and evidence variables to their labels, then rebuilds statistics.
  /// Single-threaded; call before handing the world to workers.
  void InitValues(Rng* rng, bool random_init = true);

  /// Loads values from a packed sample that may be shorter than the variable
  /// count; missing variables get `fill`. Mirrors World::LoadBitsPrefix
  /// (including the raw-proposal semantics when `apply_evidence` is false).
  /// The statistics rebuild shards over `pool` when given.
  void LoadBitsPrefix(const BitVector& bits, bool fill, bool apply_evidence = true,
                      ThreadPool* pool = nullptr);

  BitVector ToBits() const;

  /// Full recomputation of statistics from current values. Shards the clause
  /// scan over `pool` when given (group counters stay exact via atomics).
  void RecomputeStats(ThreadPool* pool = nullptr);

  /// Sum over groups carrying `weight` of sign(head) * g(n_sat), as
  /// World::WeightFeature (used by the parallel learner's gradient).
  double WeightFeature(factor::WeightId weight) const;

 private:
  const factor::CompiledGraph* graph_;
  /// Hogwild-exempt state: deliberately NOT annotated with GUARDED_BY and
  /// deliberately relaxed — concurrent same-location access from many
  /// workers without mutual exclusion IS the algorithm (Niu et al.'s
  /// Hogwild, executed DimmWitted-style). Exactness is preserved where it
  /// matters (counter RMWs); staleness of cross-shard reads is the accepted
  /// approximation. See README.md "Concurrency contracts".
  std::vector<std::atomic<uint8_t>> values_;
  std::vector<std::atomic<int32_t>> clause_unsat_;
  std::vector<std::atomic<int64_t>> group_sat_;
};

/// Multi-threaded Gibbs sampler (the DimmWitted execution model the paper's
/// Section 2.5 samplers run on): variables are partitioned into contiguous
/// shards, one worker per shard runs asynchronous Hogwild sweeps against a
/// shared atomic world, and every worker owns a private RNG stream and
/// conditional-evaluation scratch, so the underlying (stateless, const)
/// sampler logic is shared race-free.
///
/// `num_threads == 1` runs the exact sequential sampler on the calling
/// thread — bit-identical results for a given seed, which keeps every
/// deterministic test meaningful. `num_threads == 0` means one worker per
/// hardware thread.
///
/// Unlike GibbsSampler, a ParallelGibbsSampler instance is NOT shareable
/// across calling threads: its methods are const but use the instance's
/// worker pool and per-shard scratch, so concurrent calls on one instance
/// race. Create one sampler per calling thread (workers inside are fine).
class ParallelGibbsSampler {
 public:
  explicit ParallelGibbsSampler(const factor::CompiledGraph* graph,
                                size_t num_threads = 1);

  /// The frozen graph (see CompiledGraph's thread contract).
  const factor::CompiledGraph& graph() const { return *graph_; }
  size_t num_threads() const { return num_threads_; }

  /// Burn-in + sampling sweeps, averaging indicator values; honors the
  /// options' budget exactly like GibbsSampler::EstimateMarginals.
  MarginalResult EstimateMarginals(const GibbsOptions& options) const;

  /// Materialization loop: after burn-in, emits up to `count` samples `thin`
  /// sweeps apart to `on_sample`; stops early when the callback returns
  /// false (time budgets). At num_threads == 1 one Rng drives the
  /// initialization, burn-in and thinning of a sequential chain. When `vars`
  /// is given, every sweep is SweepVars over it and the other variables keep
  /// their initial values; null sweeps the whole graph.
  void SampleChain(const GibbsOptions& options, size_t count, size_t thin,
                   const std::function<bool(const BitVector&)>& on_sample,
                   const std::vector<factor::VarId>* vars = nullptr) const;

  /// One Hogwild sweep over all sampleable variables. `rngs` must hold at
  /// least num_threads() streams (see MakeRngStreams). Returns total flips.
  size_t Sweep(AtomicWorld* world, std::vector<Rng>* rngs,
               bool sample_evidence = false) const;

  /// One Hogwild sweep restricted to `vars` (decomposition groups),
  /// partitioned across workers.
  size_t SweepVars(AtomicWorld* world, std::vector<Rng>* rngs,
                   const std::vector<factor::VarId>& vars) const;

  /// Per-worker decorrelated RNG streams, keyed by (seed, replica, worker).
  /// `replica` identifies the chain this sampler drives among siblings that
  /// share a base seed: the model replicas of ReplicatedGibbsSampler and the
  /// replicated learner's clamped/free chains. Keying by the pool shard index
  /// alone handed all such same-seed samplers identical streams and therefore
  /// correlated chains. Callers that run a single chain per seed keep the
  /// default replica 0.
  std::vector<Rng> MakeRngStreams(uint64_t seed, uint64_t replica = 0) const;

  ThreadPool* pool() const { return &pool_; }

 private:
  const factor::CompiledGraph* graph_;
  size_t num_threads_;
  mutable ThreadPool pool_;
  // Per-shard conditional scratch, indexed by ParallelFor shard id. Workers
  // touch only their own entry, so a const sampler stays shareable from the
  // calling thread's perspective.
  mutable std::vector<GibbsScratch> scratch_;
};

}  // namespace deepdive::inference

#endif  // DEEPDIVE_INFERENCE_PARALLEL_GIBBS_H_
