#ifndef DEEPDIVE_INFERENCE_REPLICATED_GIBBS_H_
#define DEEPDIVE_INFERENCE_REPLICATED_GIBBS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "factor/compiled_graph.h"
#include "inference/gibbs.h"
#include "inference/parallel_gibbs.h"
#include "inference/parallelism.h"
#include "util/bitvector.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace deepdive::inference {

/// NUMA-style replicated Gibbs sampling (the DimmWitted per-socket execution
/// model, Shin et al. VLDB 2015): the worker budget is partitioned into R
/// replica groups, each replica owns a PRIVATE atomic world (private values /
/// clause_unsat / group_sat arrays), and Hogwild sweeps run asynchronously
/// *within* a replica only. Replicas never touch each other's world, so the
/// cross-socket cache-line ping-pong that caps the shared-world sampler at
/// memory bandwidth disappears; the cost is R independent chains that must
/// be reconciled. Reconciliation is periodic model averaging: every
/// `Parallelism::sync_every_sweeps` sweeps the per-variable marginal
/// estimates are averaged across replicas and each replica's world is
/// re-seeded from that consensus (an independent Bernoulli draw per
/// variable, from a replica-private synchronization stream), plus a final
/// cross-replica marginal merge at the end of every run.
///
/// Determinism:
///  - `num_replicas == 1` delegates every call to an internal
///    ParallelGibbsSampler, so results are bit-identical to it (and, at
///    num_threads == 1, to the sequential GibbsSampler).
///  - `num_replicas == R` with one thread per replica is deterministic for a
///    fixed seed: each replica's sweeps are sequential, every replica stream
///    is keyed (seed, replica, worker) via Rng::MixSeed, and all
///    cross-replica reductions run on the calling thread in replica order.
///
/// Like ParallelGibbsSampler, an instance is not shareable across calling
/// threads (it owns the replica pool and per-replica samplers); create one
/// per calling thread.
class ReplicatedGibbsSampler {
 public:
  /// `parallelism.num_threads` is the TOTAL worker budget: each replica runs
  /// its Hogwild sweeps on max(1, num_threads / num_replicas) workers (0 =
  /// one worker per hardware thread before the split). Replicas themselves
  /// always run concurrently — R replicas occupy at least R workers.
  explicit ReplicatedGibbsSampler(const factor::CompiledGraph* graph,
                                  const Parallelism& parallelism = {});

  /// The frozen graph (see CompiledGraph's thread contract).
  const factor::CompiledGraph& graph() const { return *graph_; }
  size_t num_replicas() const { return replicas_.size(); }
  size_t threads_per_replica() const { return threads_per_replica_; }

  /// The replica-r sampler. Its pool runs that replica's Hogwild shards;
  /// callers driving chains manually (the learner) sweep their own worlds
  /// through it, one calling task per replica (its scratch is not shareable
  /// across concurrent calls).
  const ParallelGibbsSampler& replica(size_t r) const { return *replicas_[r]; }

  /// Runs fn(r) for every replica concurrently on the replica pool and
  /// blocks until all complete. fn must confine itself to replica-r state.
  void ForEachReplica(const std::function<void(size_t replica)>& fn) const;

  /// Burn-in + sampling sweeps on every replica, periodic consensus
  /// synchronization, final cross-replica marginal merge. `sweeps`/`flips`
  /// report the per-replica schedule length and the total flips across
  /// replicas respectively.
  MarginalResult EstimateMarginals(const GibbsOptions& options) const;

  /// Materialization loop over the replica chains: after burn-in, emits up
  /// to `count` samples round-robin across the replica chains (sample s comes
  /// from replica s % R). Every advancement block runs `thin` sweeps on all
  /// replicas concurrently and harvests one sample per replica, so each
  /// chain's consecutive samples are `thin` sweeps apart and `count` samples
  /// cost ceil(count / R) blocks; synchronizations land on block boundaries
  /// only. Honors options.interrupt between sweeps (polled from replica
  /// workers — the hook must be thread-safe) and stops early when
  /// `on_sample` returns false. When `vars` is given, every chain sweeps only
  /// those variables (see ParallelGibbsSampler::SampleChain).
  void SampleChain(const GibbsOptions& options, size_t count, size_t thin,
                   const std::function<bool(const BitVector&)>& on_sample,
                   const std::vector<factor::VarId>* vars = nullptr) const;

  /// Seed for a replica/chain-private auxiliary stream (world init, consensus
  /// re-seeding), decorrelated from every (seed, replica, worker) sweep
  /// stream: auxiliary streams live at substreams >= kAuxStreamBase, far
  /// beyond any real worker index.
  static uint64_t AuxSeed(uint64_t seed, size_t replica, uint64_t aux_stream) {
    return Rng::MixSeed(seed, replica, kAuxStreamBase + aux_stream);
  }
  static constexpr uint64_t kAuxStreamBase = uint64_t{1} << 40;
  static constexpr uint64_t kInitStream = 0;  // world initialization
  static constexpr uint64_t kSyncStream = 1;  // consensus re-seeding draws

 private:
  /// Per-replica chain state for one EstimateMarginals/SampleChain run.
  /// Replica-private between ForEachReplica barriers; the calling thread
  /// reads it only after a barrier.
  struct ReplicaChain {
    std::unique_ptr<AtomicWorld> world;
    std::vector<Rng> rngs;
    Rng sync_rng{0};
    std::vector<uint32_t> counts;  // per-variable indicator sums (marginals)
    size_t flips = 0;
    bool interrupted = false;
  };

  /// Builds and initializes one chain per replica (worlds seeded from the
  /// replica-private init streams). `with_counts` sizes the indicator
  /// accumulators for marginal estimation.
  std::vector<ReplicaChain> InitChains(const GibbsOptions& options,
                                       bool with_counts) const;

  /// Advances every replica by `count` sweeps concurrently, over `vars` when
  /// given and the whole graph otherwise. Sweeps whose global index reaches
  /// `burn_in` accumulate indicator counts (when the chains carry
  /// accumulators). `poll_interrupt` makes replica workers poll
  /// options.interrupt between sweeps (SampleChain semantics).
  void RunBlock(std::vector<ReplicaChain>* chains, size_t sweep_start,
                size_t count, size_t burn_in, const GibbsOptions& options,
                bool poll_interrupt,
                const std::vector<factor::VarId>* vars = nullptr) const;

  /// Model averaging: computes the consensus per-variable marginal estimate
  /// (from accumulated counts when `samples_taken > 0`, else from the
  /// replicas' instantaneous states) and re-seeds every replica's world from
  /// it with that replica's private synchronization stream.
  void Synchronize(std::vector<ReplicaChain>* chains, size_t samples_taken,
                   const GibbsOptions& options) const;

  bool AnyInterrupted(const std::vector<ReplicaChain>& chains) const;

  const factor::CompiledGraph* graph_;
  size_t threads_per_replica_;
  size_t sync_every_sweeps_;
  std::vector<std::unique_ptr<ParallelGibbsSampler>> replicas_;
  mutable ThreadPool replica_pool_;  // R-wide outer pool (inline when R == 1)
};

}  // namespace deepdive::inference

#endif  // DEEPDIVE_INFERENCE_REPLICATED_GIBBS_H_
