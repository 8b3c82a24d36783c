#include "inference/parallel_gibbs.h"

#include <cmath>

#include "util/logging.h"

namespace deepdive::inference {

using factor::ClauseId;
using factor::GroupId;
using factor::VarId;
using factor::WeightId;

// ---- AtomicWorld -----------------------------------------------------------

AtomicWorld::AtomicWorld(const factor::CompiledGraph* graph)
    : graph_(graph),
      values_(graph->NumVariables()),
      clause_unsat_(graph->NumClauses()),
      group_sat_(graph->NumGroups()) {
  InitValues(nullptr, /*random_init=*/false);
}

void AtomicWorld::Flip(VarId v, bool new_value) {
  // ordering: relaxed — Hogwild: callers partition variables so no two
  // threads Flip the same id; concurrent readers tolerate staleness and the
  // statistics RMWs below keep the counters exact without ordering.
  const uint8_t old = values_[v].exchange(new_value ? 1 : 0, std::memory_order_relaxed);
  if ((old != 0) == new_value) return;
  for (const auto& ref : graph_->BodyRefs(v)) {
    const bool lit_true_now = (new_value != static_cast<bool>(ref.negated));
    const GroupId g = graph_->ClauseGroup(ref.clause);
    // ordering: relaxed — atomicity (not ordering) is what is needed here:
    // fetch_add/fetch_sub return the previous value, so the 0-crossing that
    // owns the group_sat update is decided exactly once even under
    // concurrent flips of sibling literals.
    if (lit_true_now) {
      if (clause_unsat_[ref.clause].fetch_sub(1, std::memory_order_relaxed) == 1) {
        group_sat_[g].fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      if (clause_unsat_[ref.clause].fetch_add(1, std::memory_order_relaxed) == 0) {
        group_sat_[g].fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }
}

void AtomicWorld::InitValues(Rng* rng, bool random_init) {
  for (VarId v = 0; v < values_.size(); ++v) {
    const auto ev = graph_->EvidenceValue(v);
    uint8_t value = 0;
    if (ev.has_value()) {
      value = *ev ? 1 : 0;
    } else if (random_init && rng != nullptr && rng->Bernoulli(0.5)) {
      value = 1;
    }
    // ordering: relaxed — single-threaded by contract (call before handing
    // the world to workers); the pool handoff publishes these stores.
    values_[v].store(value, std::memory_order_relaxed);
  }
  RecomputeStats();
}

void AtomicWorld::LoadBitsPrefix(const BitVector& bits, bool fill, bool apply_evidence,
                                 ThreadPool* pool) {
  DD_CHECK_LE(bits.size(), values_.size());
  for (VarId v = 0; v < values_.size(); ++v) {
    const bool bit = v < bits.size() ? bits.Get(v) : fill;
    // ordering: relaxed — single-(calling-)threaded load phase; workers see
    // these stores through the ThreadPool mutex handoff (see RecomputeStats).
    values_[v].store(bit ? 1 : 0, std::memory_order_relaxed);
  }
  if (apply_evidence) {
    for (VarId v = 0; v < values_.size(); ++v) {
      const auto ev = graph_->EvidenceValue(v);
      // ordering: relaxed — same single-threaded load phase as above.
      if (ev.has_value()) values_[v].store(*ev ? 1 : 0, std::memory_order_relaxed);
    }
  }
  RecomputeStats(pool);
}

BitVector AtomicWorld::ToBits() const {
  BitVector bits(values_.size());
  for (VarId v = 0; v < values_.size(); ++v) bits.Set(v, value(v));
  return bits;
}

void AtomicWorld::RecomputeStats(ThreadPool* pool) {
  // Publication contract: the relaxed stores below are read by Hogwild
  // workers (and plain callers) AFTER this function returns, with relaxed
  // loads and no release/acquire pair of their own. The happens-before edge
  // is ThreadPool's mutex handoff: each shard's writes are ordered before
  // ParallelFor's Wait() returns (the worker releases the pool mutex after
  // running the shard; the caller re-acquires it to observe completion),
  // and any worker that later sweeps this world receives its task through
  // the same mutex (Submit enqueues under it) — so the shard writes
  // happen-before every subsequent read regardless of which pool runs the
  // sweep. Note a standalone fence pair could NOT stand in for this edge
  // (fences synchronize only through an atomic object the releasing thread
  // stores after its fence and the acquiring thread reads before its
  // fence); a future lock-free pool must supply an equivalent
  // release/acquire handoff on its task and completion queues. The TSan CI
  // job pins the edge via RecomputeStatsPublishesToHogwildWorkers.
  auto scan = [this](size_t /*shard*/, size_t begin, size_t end) {
    for (ClauseId c = static_cast<ClauseId>(begin); c < end; ++c) {
      int32_t unsat = 0;
      for (const auto& lit : graph_->ClauseLiterals(c)) {
        if (value(lit.var) == static_cast<bool>(lit.negated)) ++unsat;
      }
      // ordering: relaxed — shards own disjoint clause ranges; the pool's
      // mutex join publishes every store (see the contract above).
      clause_unsat_[c].store(unsat, std::memory_order_relaxed);
      if (unsat == 0) {
        // ordering: relaxed — group counters are shared across shards, so
        // this one is an RMW for atomicity; no ordering needed (join
        // publishes the final sums).
        group_sat_[graph_->ClauseGroup(c)].fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  // ordering: relaxed — pre-scan zeroing on the calling thread; the shard
  // tasks observe it through the Submit/mutex handoff.
  for (auto& g : group_sat_) g.store(0, std::memory_order_relaxed);
  const size_t num_clauses = graph_->NumClauses();
  if (pool != nullptr && pool->shards() > 1) {
    pool->ParallelFor(num_clauses, scan);
  } else if (num_clauses > 0) {
    scan(0, 0, num_clauses);
  }
}

double AtomicWorld::WeightFeature(WeightId weight) const {
  double f = 0.0;
  for (GroupId g : graph_->GroupsForWeight(weight)) {
    const auto& group = graph_->group(g);
    const double sign = value(group.head) ? 1.0 : -1.0;
    f += sign * factor::GCount(group.semantics, GroupSat(g));
  }
  return f;
}

// ---- ParallelGibbsSampler --------------------------------------------------

ParallelGibbsSampler::ParallelGibbsSampler(const factor::CompiledGraph* graph,
                                           size_t num_threads)
    : graph_(graph),
      num_threads_(num_threads == 0 ? ThreadPool::DefaultThreads()
                                    : num_threads),
      pool_(num_threads_),
      scratch_(pool_.shards()) {}

std::vector<Rng> ParallelGibbsSampler::MakeRngStreams(uint64_t seed,
                                                      uint64_t replica) const {
  std::vector<Rng> rngs;
  rngs.reserve(pool_.shards());
  for (size_t t = 0; t < pool_.shards(); ++t) {
    rngs.emplace_back(Rng::MixSeed(seed, replica, t));
  }
  return rngs;
}

size_t ParallelGibbsSampler::Sweep(AtomicWorld* world, std::vector<Rng>* rngs,
                                   bool sample_evidence) const {
  DD_CHECK_GE(rngs->size(), pool_.shards());
  std::vector<size_t> flips(pool_.shards(), 0);
  pool_.ParallelFor(graph_->NumVariables(),
                    [&](size_t shard, size_t begin, size_t end) {
                      flips[shard] = detail::SweepRangeImpl(
                          *graph_, world, &(*rngs)[shard], &scratch_[shard], nullptr,
                          begin, end, sample_evidence);
                    });
  size_t total = 0;
  for (size_t f : flips) total += f;
  return total;
}

size_t ParallelGibbsSampler::SweepVars(AtomicWorld* world, std::vector<Rng>* rngs,
                                       const std::vector<VarId>& vars) const {
  DD_CHECK_GE(rngs->size(), pool_.shards());
  std::vector<size_t> flips(pool_.shards(), 0);
  pool_.ParallelFor(vars.size(), [&](size_t shard, size_t begin, size_t end) {
    flips[shard] =
        detail::SweepRangeImpl(*graph_, world, &(*rngs)[shard], &scratch_[shard],
                               &vars, begin, end, /*sample_evidence=*/false);
  });
  size_t total = 0;
  for (size_t f : flips) total += f;
  return total;
}

MarginalResult ParallelGibbsSampler::EstimateMarginals(
    const GibbsOptions& options) const {
  if (num_threads_ <= 1) {
    // Sequential delegation: bit-identical to the sequential sampler for a
    // given seed.
    return GibbsSampler(graph_).EstimateMarginals(options);
  }

  MarginalResult result;
  const size_t n = graph_->NumVariables();
  result.marginals.assign(n, 0.0);

  AtomicWorld world(graph_);
  Rng init_rng(options.seed);
  world.InitValues(&init_rng, options.random_init);
  std::vector<Rng> rngs = MakeRngStreams(options.seed);

  for (size_t i = 0; i < options.burn_in_sweeps; ++i) {
    result.flips += Sweep(&world, &rngs, options.sample_evidence);
    ++result.sweeps;
  }
  std::vector<uint32_t> counts(n, 0);
  for (size_t i = 0; i < options.sample_sweeps; ++i) {
    result.flips += Sweep(&world, &rngs, options.sample_evidence);
    ++result.sweeps;
    // Shard-disjoint accumulation; the ParallelFor barrier inside Sweep makes
    // every value quiescent before it is counted.
    pool_.ParallelFor(n, [&](size_t /*shard*/, size_t begin, size_t end) {
      for (size_t v = begin; v < end; ++v) {
        counts[v] += world.value(static_cast<VarId>(v)) ? 1 : 0;
      }
    });
  }
  const double denom = options.sample_sweeps > 0
                           ? static_cast<double>(options.sample_sweeps)
                           : 1.0;
  for (VarId v = 0; v < n; ++v) {
    result.marginals[v] = counts[v] / denom;
  }
  return result;
}

void ParallelGibbsSampler::SampleChain(
    const GibbsOptions& options, size_t count, size_t thin,
    const std::function<bool(const BitVector&)>& on_sample,
    const std::vector<VarId>* vars) const {
  const size_t thin_sweeps = std::max<size_t>(1, thin);
  const auto interrupted = [&options] {
    return options.interrupt && options.interrupt();
  };
  // Burn-in, then `count` samples `thin` sweeps apart, on either world.
  const auto run = [&](const auto& world, const auto& sweep) {
    for (size_t i = 0; i < options.burn_in_sweeps; ++i) {
      if (interrupted()) return;
      sweep();
    }
    for (size_t s = 0; s < count; ++s) {
      for (size_t t = 0; t < thin_sweeps; ++t) {
        if (interrupted()) return;
        sweep();
      }
      if (!on_sample(world.ToBits())) return;
    }
  };
  if (num_threads_ <= 1) {
    // One Rng drives init, burn-in and thinning.
    GibbsSampler sequential(graph_);
    World world(graph_);
    Rng rng(options.seed);
    world.InitValues(&rng, options.random_init);
    run(world, [&] {
      if (vars != nullptr) {
        sequential.SweepVars(&world, &rng, *vars);
      } else {
        sequential.Sweep(&world, &rng, options.sample_evidence);
      }
    });
    return;
  }

  AtomicWorld world(graph_);
  Rng init_rng(options.seed);
  world.InitValues(&init_rng, options.random_init);
  std::vector<Rng> rngs = MakeRngStreams(options.seed);
  run(world, [&] {
    if (vars != nullptr) {
      SweepVars(&world, &rngs, *vars);
    } else {
      Sweep(&world, &rngs, options.sample_evidence);
    }
  });
}

}  // namespace deepdive::inference
