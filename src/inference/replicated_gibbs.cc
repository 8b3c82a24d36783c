#include "inference/replicated_gibbs.h"

#include <algorithm>
#include <cstdint>

#include "util/logging.h"

namespace deepdive::inference {

using factor::VarId;

ReplicatedGibbsSampler::ReplicatedGibbsSampler(const factor::CompiledGraph* graph,
                                               const Parallelism& parallelism)
    : graph_(graph),
      threads_per_replica_(1),
      sync_every_sweeps_(parallelism.sync_every_sweeps),
      replica_pool_(std::max<size_t>(1, parallelism.num_replicas)) {
  const size_t replicas = std::max<size_t>(1, parallelism.num_replicas);
  const size_t total = parallelism.num_threads == 0 ? ThreadPool::DefaultThreads()
                                                    : parallelism.num_threads;
  threads_per_replica_ = std::max<size_t>(1, total / replicas);
  replicas_.reserve(replicas);
  for (size_t r = 0; r < replicas; ++r) {
    // The single-replica sampler keeps the whole budget (it IS the
    // shared-world sampler then); R > 1 splits it evenly.
    replicas_.push_back(std::make_unique<ParallelGibbsSampler>(
        graph, replicas == 1 ? total : threads_per_replica_));
  }
}

void ReplicatedGibbsSampler::ForEachReplica(const std::function<void(size_t)>& fn) const {
  if (replicas_.size() == 1) {
    fn(0);
    return;
  }
  for (size_t r = 0; r < replicas_.size(); ++r) {
    replica_pool_.Submit([&fn, r] { fn(r); });
  }
  replica_pool_.Wait();
}

std::vector<ReplicatedGibbsSampler::ReplicaChain> ReplicatedGibbsSampler::InitChains(
    const GibbsOptions& options, bool with_counts) const {
  std::vector<ReplicaChain> chains(replicas_.size());
  ForEachReplica([&](size_t r) {
    ReplicaChain& c = chains[r];
    c.world = std::make_unique<AtomicWorld>(graph_);
    Rng init_rng(AuxSeed(options.seed, r, kInitStream));
    c.world->InitValues(&init_rng, options.random_init);
    c.rngs = replicas_[r]->MakeRngStreams(options.seed, r);
    c.sync_rng = Rng(AuxSeed(options.seed, r, kSyncStream));
    if (with_counts) c.counts.assign(graph_->NumVariables(), 0);
  });
  return chains;
}

void ReplicatedGibbsSampler::RunBlock(std::vector<ReplicaChain>* chains,
                                      size_t sweep_start, size_t count, size_t burn_in,
                                      const GibbsOptions& options,
                                      bool poll_interrupt,
                                      const std::vector<VarId>* vars) const {
  const size_t n = graph_->NumVariables();
  ForEachReplica([&](size_t r) {
    ReplicaChain& c = (*chains)[r];
    AtomicWorld* world = c.world.get();
    for (size_t i = 0; i < count; ++i) {
      if (poll_interrupt && options.interrupt && options.interrupt()) {
        c.interrupted = true;
        return;
      }
      c.flips += vars != nullptr
                     ? replicas_[r]->SweepVars(world, &c.rngs, *vars)
                     : replicas_[r]->Sweep(world, &c.rngs, options.sample_evidence);
      if (c.counts.empty() || sweep_start + i < burn_in) continue;
      uint32_t* counts = c.counts.data();
      if (threads_per_replica_ > 1) {
        replicas_[r]->pool()->ParallelFor(
            n, [&](size_t /*shard*/, size_t begin, size_t end) {
              for (size_t v = begin; v < end; ++v) {
                counts[v] += world->value(static_cast<VarId>(v)) ? 1 : 0;
              }
            });
      } else {
        for (size_t v = 0; v < n; ++v) {
          counts[v] += world->value(static_cast<VarId>(v)) ? 1 : 0;
        }
      }
    }
  });
}

void ReplicatedGibbsSampler::Synchronize(std::vector<ReplicaChain>* chains,
                                         size_t samples_taken,
                                         const GibbsOptions& options) const {
  const size_t n = graph_->NumVariables();
  const size_t replicas = replicas_.size();
  // Consensus marginal estimate, reduced in replica order on the calling
  // thread (deterministic summation). Before any sample sweep has been
  // counted the instantaneous replica states stand in for the estimates.
  std::vector<double> consensus(n, 0.0);
  if (samples_taken > 0) {
    const double denom =
        static_cast<double>(replicas) * static_cast<double>(samples_taken);
    for (const ReplicaChain& c : *chains) {
      for (size_t v = 0; v < n; ++v) consensus[v] += c.counts[v];
    }
    for (size_t v = 0; v < n; ++v) consensus[v] /= denom;
  } else {
    for (const ReplicaChain& c : *chains) {
      for (size_t v = 0; v < n; ++v) {
        consensus[v] += c.world->value(static_cast<VarId>(v)) ? 1.0 : 0.0;
      }
    }
    for (size_t v = 0; v < n; ++v) consensus[v] /= static_cast<double>(replicas);
  }
  // Re-seed every replica from the consensus: an independent Bernoulli draw
  // per variable from the replica's private synchronization stream keeps the
  // chains diverse (all-identical restarts would collapse the ensemble) and
  // deterministic. Evidence is restored unless this is a free chain.
  ForEachReplica([&](size_t r) {
    ReplicaChain& c = (*chains)[r];
    BitVector bits(n);
    for (size_t v = 0; v < n; ++v) {
      bits.Set(v, c.sync_rng.Bernoulli(consensus[v]));
    }
    c.world->LoadBitsPrefix(
        bits, /*fill=*/false, /*apply_evidence=*/!options.sample_evidence,
        threads_per_replica_ > 1 ? replicas_[r]->pool() : nullptr);
  });
}

bool ReplicatedGibbsSampler::AnyInterrupted(
    const std::vector<ReplicaChain>& chains) const {
  for (const ReplicaChain& c : chains) {
    if (c.interrupted) return true;
  }
  return false;
}

MarginalResult ReplicatedGibbsSampler::EstimateMarginals(
    const GibbsOptions& options) const {
  if (replicas_.size() == 1) {
    // Single replica: exactly the shared-world sampler (and at one thread,
    // exactly the sequential sampler).
    return replicas_[0]->EstimateMarginals(options);
  }

  const size_t n = graph_->NumVariables();
  const size_t burn = options.burn_in_sweeps;
  const size_t total = burn + options.sample_sweeps;
  const size_t sync = sync_every_sweeps_;
  std::vector<ReplicaChain> chains = InitChains(options, /*with_counts=*/true);

  size_t done = 0;
  while (done < total) {
    const size_t block =
        sync > 0 ? std::min(total - done, sync - done % sync) : total - done;
    RunBlock(&chains, done, block, burn, options, /*poll_interrupt=*/false);
    done += block;
    if (done < total && sync > 0 && done % sync == 0) {
      const size_t samples_taken = done > burn ? done - burn : 0;
      Synchronize(&chains, samples_taken, options);
    }
  }

  // Final cross-replica merge.
  MarginalResult result;
  result.marginals.assign(n, 0.0);
  result.sweeps = total;
  const double denom =
      static_cast<double>(replicas_.size()) *
      (options.sample_sweeps > 0 ? static_cast<double>(options.sample_sweeps)
                                 : 1.0);
  std::vector<uint64_t> sums(n, 0);
  for (const ReplicaChain& c : chains) {
    result.flips += c.flips;
    for (size_t v = 0; v < n; ++v) sums[v] += c.counts[v];
  }
  for (size_t v = 0; v < n; ++v) {
    result.marginals[v] = static_cast<double>(sums[v]) / denom;
  }
  return result;
}

void ReplicatedGibbsSampler::SampleChain(
    const GibbsOptions& options, size_t count, size_t thin,
    const std::function<bool(const BitVector&)>& on_sample,
    const std::vector<VarId>* vars) const {
  if (replicas_.size() == 1) {
    replicas_[0]->SampleChain(options, count, thin, on_sample, vars);
    return;
  }

  const size_t thin_sweeps = std::max<size_t>(1, thin);
  const size_t sync = sync_every_sweeps_;
  std::vector<ReplicaChain> chains = InitChains(options, /*with_counts=*/false);

  // Burn-in, split at synchronization boundaries.
  size_t done = 0, last_sync = 0;
  while (done < options.burn_in_sweeps) {
    size_t block = options.burn_in_sweeps - done;
    if (sync > 0) block = std::min(block, sync - (done - last_sync));
    RunBlock(&chains, done, block, /*burn_in=*/0, options,
             /*poll_interrupt=*/true, vars);
    if (AnyInterrupted(chains)) return;
    done += block;
    if (sync > 0 && done - last_sync >= sync) {
      Synchronize(&chains, /*samples_taken=*/0, options);
      last_sync = done;
    }
  }

  // Emission: each advancement runs the thinning interval on every replica
  // concurrently, then harvests ONE sample per replica, in replica order —
  // so a chain's consecutive samples are exactly `thin` sweeps apart (the
  // single-chain thinning semantics) and N samples cost ceil(N/R) blocks,
  // not N (the replica ensemble is throughput, not overhead).
  // Synchronizations land after the block's emissions, never between
  // advancing a chain and emitting it (a consensus re-draw would otherwise
  // stand in for a mixed sample).
  size_t emitted = 0;
  while (emitted < count) {
    RunBlock(&chains, done, thin_sweeps, /*burn_in=*/0, options,
             /*poll_interrupt=*/true, vars);
    if (AnyInterrupted(chains)) return;
    done += thin_sweeps;
    for (size_t r = 0; r < chains.size() && emitted < count; ++r) {
      ++emitted;
      if (!on_sample(chains[r].world->ToBits())) return;
    }
    if (sync > 0 && done - last_sync >= sync) {
      Synchronize(&chains, /*samples_taken=*/0, options);
      last_sync = done;
    }
  }
}

}  // namespace deepdive::inference
