// Replicated (NUMA-style) Gibbs sampling: single-replica bit-equivalence to
// the shared-world sampler, fixed-seed determinism at one thread per
// replica, cross-replica marginal quality, synchronization edge cases, and
// the (seed, replica, worker) RNG stream keying. The multi-replica cases
// also run under the ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <vector>

#include "factor/compiled_graph.h"
#include "factor/factor_graph.h"
#include "inference/exact.h"
#include "inference/gibbs.h"
#include "inference/parallel_gibbs.h"
#include "inference/replicated_gibbs.h"
#include "util/random.h"

namespace deepdive::inference {
namespace {

using factor::CompiledGraph;
using factor::FactorGraph;
using factor::Semantics;
using factor::VarId;
using factor::WeightId;

/// Random small graph (same construction as parallel_gibbs_test).
FactorGraph RandomGraph(uint64_t seed, size_t num_vars, size_t num_groups,
                        Semantics semantics, size_t evidence_count = 0) {
  FactorGraph g;
  Rng rng(seed);
  g.AddVariables(num_vars);
  for (size_t i = 0; i < num_groups; ++i) {
    const VarId head = static_cast<VarId>(rng.UniformInt(num_vars));
    const WeightId w = g.AddWeight(rng.Uniform(-1.0, 1.0), false);
    const auto grp = g.AddGroup(static_cast<uint32_t>(i), head, w, semantics);
    const size_t clauses = 1 + rng.UniformInt(3);
    for (size_t c = 0; c < clauses; ++c) {
      std::vector<factor::Literal> lits;
      const size_t n_lits = rng.UniformInt(3);
      for (size_t l = 0; l < n_lits; ++l) {
        VarId v = static_cast<VarId>(rng.UniformInt(num_vars));
        if (v == head) continue;
        bool dup = false;
        for (const auto& lit : lits) dup |= lit.var == v;
        if (dup) continue;
        lits.push_back({v, rng.Bernoulli(0.3)});
      }
      g.AddClause(grp, lits);
    }
  }
  for (size_t e = 0; e < evidence_count; ++e) {
    g.SetEvidence(static_cast<VarId>(rng.UniformInt(num_vars)), rng.Bernoulli(0.5));
  }
  return g;
}

FactorGraph ChainGraph(size_t n, uint64_t seed) {
  FactorGraph g;
  Rng rng(seed);
  g.AddVariables(n);
  for (size_t i = 0; i + 1 < n; ++i) {
    g.AddSimpleFactor(static_cast<VarId>(i), {{static_cast<VarId>(i + 1), false}},
                      g.AddWeight(rng.Uniform(-0.8, 0.8), false));
  }
  for (size_t i = 0; i < n; ++i) {
    g.AddSimpleFactor(static_cast<VarId>(i), {},
                      g.AddWeight(rng.Uniform(-0.5, 0.5), false));
  }
  return g;
}

/// Collects every sample SampleChain emits.
template <typename Sampler>
std::vector<BitVector> DrawSamples(const Sampler& sampler, size_t count, size_t thin,
                                   const GibbsOptions& options) {
  std::vector<BitVector> samples;
  sampler.SampleChain(options, count, thin, [&](const BitVector& bits) {
    samples.push_back(bits);
    return true;
  });
  return samples;
}

Parallelism Replicas(size_t replicas, size_t sync_every_sweeps = 50) {
  return {.num_threads = replicas,
          .num_replicas = replicas,
          .sync_every_sweeps = sync_every_sweeps};
}

// ---- single-replica bit-equivalence ----------------------------------------

TEST(ReplicatedGibbsTest, SingleReplicaMatchesParallelSamplerExactly) {
  for (uint64_t seed : {3u, 17u}) {
    const CompiledGraph g =
        CompiledGraph::Compile(RandomGraph(seed, 9, 11, Semantics::kLinear, 2));
    GibbsOptions options;
    options.burn_in_sweeps = 20;
    options.sample_sweeps = 100;
    options.seed = seed * 31 + 1;

    const auto parallel = ParallelGibbsSampler(&g, 1).EstimateMarginals(options);
    const auto replicated = ReplicatedGibbsSampler(&g).EstimateMarginals(options);

    ASSERT_EQ(replicated.marginals.size(), parallel.marginals.size());
    for (size_t v = 0; v < parallel.marginals.size(); ++v) {
      EXPECT_DOUBLE_EQ(replicated.marginals[v], parallel.marginals[v])
          << "var " << v;
    }
    EXPECT_EQ(replicated.sweeps, parallel.sweeps);
    EXPECT_EQ(replicated.flips, parallel.flips);

    // ... and therefore to the sequential sampler as well.
    const auto sequential = GibbsSampler(&g).EstimateMarginals(options);
    for (size_t v = 0; v < sequential.marginals.size(); ++v) {
      EXPECT_DOUBLE_EQ(replicated.marginals[v], sequential.marginals[v])
          << "var " << v;
    }
  }
}

TEST(ReplicatedGibbsTest, SingleReplicaDrawSamplesMatchesParallelSampler) {
  const CompiledGraph g =
      CompiledGraph::Compile(RandomGraph(11, 6, 6, Semantics::kLinear));
  GibbsOptions options;
  options.burn_in_sweeps = 10;
  options.seed = 33;
  const auto parallel = DrawSamples(ParallelGibbsSampler(&g, 1), 5, 2, options);
  const auto replicated = DrawSamples(ReplicatedGibbsSampler(&g), 5, 2, options);
  ASSERT_EQ(replicated.size(), parallel.size());
  for (size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(replicated[i], parallel[i]) << "sample " << i;
  }
}

// ---- fixed-seed determinism ------------------------------------------------

TEST(ReplicatedGibbsTest, DeterministicAtOneThreadPerReplica) {
  const CompiledGraph g = CompiledGraph::Compile(ChainGraph(120, 7));
  GibbsOptions options;
  options.burn_in_sweeps = 30;
  options.sample_sweeps = 200;
  options.seed = 91;

  ReplicatedGibbsSampler a(&g, Replicas(3, 40));
  ReplicatedGibbsSampler b(&g, Replicas(3, 40));
  const auto ra = a.EstimateMarginals(options);
  const auto rb = b.EstimateMarginals(options);
  ASSERT_EQ(ra.marginals.size(), rb.marginals.size());
  for (size_t v = 0; v < ra.marginals.size(); ++v) {
    EXPECT_DOUBLE_EQ(ra.marginals[v], rb.marginals[v]) << "var " << v;
  }
  EXPECT_EQ(ra.flips, rb.flips);

  const auto sa = DrawSamples(a, 7, 2, options);
  const auto sb = DrawSamples(b, 7, 2, options);
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i], sb[i]) << "sample " << i;
  }
}

// ---- marginal quality ------------------------------------------------------

TEST(ReplicatedGibbsTest, ReplicaMarginalsCloseToSequential) {
  const CompiledGraph g = CompiledGraph::Compile(ChainGraph(200, 41));
  GibbsOptions options;
  options.burn_in_sweeps = 100;
  options.sample_sweeps = 2000;
  options.seed = 5;

  const auto sequential = GibbsSampler(&g).EstimateMarginals(options);
  const auto replicated =
      ReplicatedGibbsSampler(&g, Replicas(4, 200)).EstimateMarginals(options);

  ASSERT_EQ(replicated.marginals.size(), sequential.marginals.size());
  double max_diff = 0.0, sum_diff = 0.0;
  for (size_t v = 0; v < sequential.marginals.size(); ++v) {
    const double d = std::abs(replicated.marginals[v] - sequential.marginals[v]);
    max_diff = std::max(max_diff, d);
    sum_diff += d;
  }
  EXPECT_LT(sum_diff / static_cast<double>(sequential.marginals.size()), 0.02);
  EXPECT_LT(max_diff, 0.10);
}

TEST(ReplicatedGibbsTest, ReplicaMarginalsConvergeToExact) {
  FactorGraph g = RandomGraph(2, 7, 9, Semantics::kLinear, 2);
  auto exact = ExactInference(g);
  ASSERT_TRUE(exact.ok());

  GibbsOptions options;
  options.burn_in_sweeps = 300;
  options.sample_sweeps = 4000;
  options.seed = 15;
  const CompiledGraph compiled = CompiledGraph::Compile(g);
  const auto result =
      ReplicatedGibbsSampler(&compiled, Replicas(3, 500)).EstimateMarginals(options);
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_NEAR(result.marginals[v], exact->marginals[v], 0.05) << "var " << v;
  }
}

// ---- synchronization edge cases --------------------------------------------

TEST(ReplicatedGibbsTest, SyncLongerThanRunMatchesDisabledSync) {
  // A cadence beyond the total sweep count must behave exactly like disabled
  // periodic synchronization (final merge only) — bitwise.
  const CompiledGraph g = CompiledGraph::Compile(ChainGraph(80, 13));
  GibbsOptions options;
  options.burn_in_sweeps = 25;
  options.sample_sweeps = 75;
  options.seed = 44;

  const auto a = ReplicatedGibbsSampler(&g, Replicas(2, 0)).EstimateMarginals(options);
  const auto b =
      ReplicatedGibbsSampler(&g, Replicas(2, 1000000000)).EstimateMarginals(options);
  ASSERT_EQ(a.marginals.size(), b.marginals.size());
  for (size_t v = 0; v < a.marginals.size(); ++v) {
    EXPECT_DOUBLE_EQ(a.marginals[v], b.marginals[v]) << "var " << v;
  }
  EXPECT_EQ(a.flips, b.flips);
}

TEST(ReplicatedGibbsTest, MidBurnInSyncStaysDeterministicAndAccurate) {
  // A cadence shorter than burn-in forces consensus re-seeds before any
  // sample is taken (the instantaneous-state consensus path).
  FactorGraph g = RandomGraph(6, 8, 10, Semantics::kLinear, 1);
  auto exact = ExactInference(g);
  ASSERT_TRUE(exact.ok());

  GibbsOptions options;
  options.burn_in_sweeps = 30;
  options.sample_sweeps = 4000;
  options.seed = 77;
  const CompiledGraph compiled = CompiledGraph::Compile(g);
  // Every 10 sweeps: 3 syncs during burn-in alone.
  const auto a = ReplicatedGibbsSampler(&compiled, Replicas(2, 10)).EstimateMarginals(options);
  const auto b = ReplicatedGibbsSampler(&compiled, Replicas(2, 10)).EstimateMarginals(options);
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_DOUBLE_EQ(a.marginals[v], b.marginals[v]) << "var " << v;
    EXPECT_NEAR(a.marginals[v], exact->marginals[v], 0.06) << "var " << v;
  }
}

TEST(ReplicatedGibbsTest, EvidenceNeverResampledAcrossReplicas) {
  FactorGraph g = ChainGraph(100, 3);
  g.SetEvidence(0, false);
  g.SetEvidence(50, true);
  g.SetEvidence(99, false);
  GibbsOptions options;
  options.sample_sweeps = 50;
  const CompiledGraph compiled = CompiledGraph::Compile(g);
  // Consensus re-seeds every 20 sweeps must respect labels.
  const auto result =
      ReplicatedGibbsSampler(&compiled, Replicas(2, 20)).EstimateMarginals(options);
  EXPECT_DOUBLE_EQ(result.marginals[0], 0.0);
  EXPECT_DOUBLE_EQ(result.marginals[50], 1.0);
  EXPECT_DOUBLE_EQ(result.marginals[99], 0.0);
}

// ---- SampleChain contract --------------------------------------------------

TEST(ReplicatedGibbsTest, SampleChainStopsOnCallbackFalse) {
  const CompiledGraph g = CompiledGraph::Compile(ChainGraph(20, 5));
  GibbsOptions options;
  options.burn_in_sweeps = 2;
  for (size_t replicas : {1u, 3u}) {
    ReplicatedGibbsSampler sampler(&g, Replicas(replicas, 3));
    size_t emitted = 0;
    sampler.SampleChain(options, /*count=*/50, /*thin=*/1, [&](const BitVector&) {
      ++emitted;
      return emitted < 3;
    });
    EXPECT_EQ(emitted, 3u) << "replicas=" << replicas;
  }
}

TEST(ReplicatedGibbsTest, SampleChainHonorsInterrupt) {
  const CompiledGraph g = CompiledGraph::Compile(ChainGraph(40, 9));
  GibbsOptions options;
  options.burn_in_sweeps = 5;
  std::atomic<size_t> emitted{0};
  options.interrupt = [&emitted] { return emitted.load() >= 2; };
  ReplicatedGibbsSampler sampler(&g, Replicas(2));
  sampler.SampleChain(options, /*count=*/100, /*thin=*/1, [&](const BitVector&) {
    emitted.fetch_add(1);
    return true;
  });
  // The chain abandoned the run shortly after the hook fired instead of
  // emitting all 100 samples.
  EXPECT_GE(emitted.load(), 2u);
  EXPECT_LT(emitted.load(), 10u);
}

TEST(ReplicatedGibbsTest, DrawSamplesDeterministicRoundRobin) {
  const CompiledGraph g = CompiledGraph::Compile(ChainGraph(60, 21));
  GibbsOptions options;
  options.burn_in_sweeps = 10;
  options.seed = 12;
  ReplicatedGibbsSampler a(&g, Replicas(2, 8));
  ReplicatedGibbsSampler b(&g, Replicas(2, 8));
  const auto sa = DrawSamples(a, 6, 3, options);
  const auto sb = DrawSamples(b, 6, 3, options);
  ASSERT_EQ(sa.size(), 6u);
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]) << i;
}

// ---- RNG stream keying -----------------------------------------------------

TEST(ReplicatedGibbsTest, StreamsKeyedBySeedReplicaAndWorker) {
  const CompiledGraph g = CompiledGraph::Compile(ChainGraph(10, 1));
  ParallelGibbsSampler sampler(&g, 4);
  // Distinct (replica, worker) pairs — and the replica-private auxiliary
  // streams — must all open decorrelated streams for one base seed.
  std::set<uint64_t> firsts;
  size_t streams = 0;
  for (uint64_t replica = 0; replica < 3; ++replica) {
    std::vector<Rng> rngs = sampler.MakeRngStreams(/*seed=*/99, replica);
    ASSERT_EQ(rngs.size(), 4u);
    for (Rng& rng : rngs) {
      firsts.insert(rng.Next());
      ++streams;
    }
    for (uint64_t aux : {ReplicatedGibbsSampler::kInitStream,
                         ReplicatedGibbsSampler::kSyncStream}) {
      Rng rng(ReplicatedGibbsSampler::AuxSeed(99, replica, aux));
      firsts.insert(rng.Next());
      ++streams;
    }
  }
  EXPECT_EQ(firsts.size(), streams);
}

}  // namespace
}  // namespace deepdive::inference
