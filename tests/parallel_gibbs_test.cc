#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <vector>

#include "factor/compiled_graph.h"
#include "factor/factor_graph.h"
#include "inference/exact.h"
#include "inference/gibbs.h"
#include "inference/parallel_gibbs.h"
#include "inference/world.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace deepdive::inference {
namespace {

using factor::CompiledGraph;
using factor::FactorGraph;
using factor::GroupId;
using factor::Semantics;
using factor::VarId;
using factor::WeightId;

// ---- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    // ordering: relaxed — exact atomic count; Wait()'s join edge publishes it.
    pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, InlineModeStartsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.shards(), 1u);
  int ran = 0;
  pool.Submit([&ran] { ++ran; });  // runs inline, no Wait needed
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  for (size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    for (size_t n : {0u, 1u, 5u, 7u, 64u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelFor(n, [&](size_t /*shard*/, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          // ordering: relaxed — disjoint shards; ParallelFor's join publishes.
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " n=" << n
                                     << " threads=" << threads;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForShardsAreStable) {
  // Shard s must map to the same range every call (per-shard RNG streams
  // depend on it).
  ThreadPool pool(4);
  std::vector<size_t> first(100, 0), second(100, 0);
  pool.ParallelFor(100, [&](size_t shard, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) first[i] = shard;
  });
  pool.ParallelFor(100, [&](size_t shard, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) second[i] = shard;
  });
  EXPECT_EQ(first, second);
}

TEST(ThreadPoolTest, WaitSynchronizesPlainWrites) {
  ThreadPool pool(4);
  std::vector<int> data(1000, 0);
  pool.ParallelFor(data.size(), [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) data[i] = static_cast<int>(i);
  });
  // ParallelFor waited; plain reads must observe every write.
  for (size_t i = 0; i < data.size(); ++i) EXPECT_EQ(data[i], static_cast<int>(i));
}

// ---- graph fixtures --------------------------------------------------------

/// Random small graph: a mix of priors and grouped multi-clause factors
/// (same construction as world_gibbs_test).
FactorGraph RandomGraph(uint64_t seed, size_t num_vars, size_t num_groups,
                        Semantics semantics, size_t evidence_count = 0) {
  FactorGraph g;
  Rng rng(seed);
  g.AddVariables(num_vars);
  for (size_t i = 0; i < num_groups; ++i) {
    const VarId head = static_cast<VarId>(rng.UniformInt(num_vars));
    const WeightId w = g.AddWeight(rng.Uniform(-1.0, 1.0), false);
    const GroupId grp = g.AddGroup(static_cast<uint32_t>(i), head, w, semantics);
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

/// Chain-structured pairwise graph, large enough that every worker owns a
/// non-trivial shard.
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

// ---- AtomicWorld -----------------------------------------------------------

TEST(AtomicWorldTest, FlipMaintainsStatsIncrementally) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const CompiledGraph g =
        CompiledGraph::Compile(RandomGraph(seed, 10, 12, Semantics::kLinear));
    AtomicWorld aw(&g);
    World w(&g);
    Rng rng(seed + 5);
    aw.InitValues(&rng, true);
    // Mirror the values into the reference world.
    w.LoadBits(aw.ToBits());
    Rng flip_rng(seed + 9);
    for (int step = 0; step < 200; ++step) {
      const VarId v = static_cast<VarId>(flip_rng.UniformInt(10));
      const bool value = flip_rng.Bernoulli(0.5);
      aw.Flip(v, value);
      w.Flip(v, value);
    }
    for (GroupId grp = 0; grp < g.NumGroups(); ++grp) {
      EXPECT_EQ(aw.GroupSat(grp), w.GroupSat(grp)) << "group " << grp;
    }
    for (factor::ClauseId c = 0; c < g.NumClauses(); ++c) {
      EXPECT_EQ(aw.ClauseUnsat(c), w.ClauseUnsat(c)) << "clause " << c;
    }
  }
}

TEST(AtomicWorldTest, LoadBitsPrefixMatchesWorld) {
  const CompiledGraph g = CompiledGraph::Compile(
      RandomGraph(7, 12, 10, Semantics::kRatio, /*evidence_count=*/3));
  BitVector bits(8);
  for (size_t i = 0; i < 8; ++i) bits.Set(i, i % 3 == 0);

  AtomicWorld aw(&g);
  World w(&g);
  for (bool apply_evidence : {true, false}) {
    aw.LoadBitsPrefix(bits, /*fill=*/true, apply_evidence);
    w.LoadBitsPrefix(bits, /*fill=*/true, apply_evidence);
    EXPECT_EQ(aw.ToBits(), w.ToBits()) << "apply_evidence=" << apply_evidence;
    for (GroupId grp = 0; grp < g.NumGroups(); ++grp) {
      EXPECT_EQ(aw.GroupSat(grp), w.GroupSat(grp));
    }
  }
}

TEST(AtomicWorldTest, WeightFeatureMatchesWorld) {
  const CompiledGraph g =
      CompiledGraph::Compile(RandomGraph(13, 10, 14, Semantics::kLogical));
  AtomicWorld aw(&g);
  World w(&g);
  Rng rng(99);
  aw.InitValues(&rng, true);
  w.LoadBits(aw.ToBits());
  for (WeightId id = 0; id < g.NumWeights(); ++id) {
    EXPECT_DOUBLE_EQ(aw.WeightFeature(id), w.WeightFeature(id));
  }
}

// ---- ParallelGibbsSampler: sequential parity -------------------------------

TEST(ParallelGibbsTest, SingleThreadMatchesSequentialExactly) {
  for (uint64_t seed : {3u, 17u}) {
    const CompiledGraph g =
        CompiledGraph::Compile(RandomGraph(seed, 9, 11, Semantics::kLinear, 2));
    GibbsOptions options;
    options.burn_in_sweeps = 20;
    options.sample_sweeps = 100;
    options.seed = seed * 31 + 1;

    const auto sequential = GibbsSampler(&g).EstimateMarginals(options);
    const auto parallel = ParallelGibbsSampler(&g, 1).EstimateMarginals(options);

    ASSERT_EQ(parallel.marginals.size(), sequential.marginals.size());
    for (size_t v = 0; v < sequential.marginals.size(); ++v) {
      EXPECT_DOUBLE_EQ(parallel.marginals[v], sequential.marginals[v]) << "var " << v;
    }
    EXPECT_EQ(parallel.sweeps, sequential.sweeps);
    EXPECT_EQ(parallel.flips, sequential.flips);
  }
}

TEST(ParallelGibbsTest, SingleThreadDrawSamplesMatchesSequential) {
  const CompiledGraph g =
      CompiledGraph::Compile(RandomGraph(11, 6, 6, Semantics::kLinear));
  GibbsOptions options;
  options.burn_in_sweeps = 10;
  options.seed = 33;
  // The sequential sampler's sweep loop: one Rng drives init, burn-in and
  // thinning.
  const GibbsSampler sampler(&g);
  World world(&g);
  Rng rng(options.seed);
  world.InitValues(&rng, options.random_init);
  for (size_t i = 0; i < options.burn_in_sweeps; ++i) sampler.Sweep(&world, &rng);
  std::vector<BitVector> sequential;
  for (size_t s = 0; s < 5; ++s) {
    for (size_t t = 0; t < 2; ++t) sampler.Sweep(&world, &rng);
    sequential.push_back(world.ToBits());
  }
  std::vector<BitVector> parallel;
  ParallelGibbsSampler(&g, 1).SampleChain(options, 5, 2, [&](const BitVector& bits) {
    parallel.push_back(bits);
    return true;
  });
  ASSERT_EQ(parallel.size(), sequential.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(parallel[i], sequential[i]) << "sample " << i;
  }
}

TEST(ParallelGibbsTest, SampleChainStopsOnCallbackFalse) {
  const CompiledGraph g = CompiledGraph::Compile(ChainGraph(20, 5));
  GibbsOptions options;
  options.burn_in_sweeps = 2;
  for (size_t threads : {1u, 4u}) {
    ParallelGibbsSampler sampler(&g, threads);
    size_t emitted = 0;
    sampler.SampleChain(options, /*count=*/50, /*thin=*/1, [&](const BitVector&) {
      ++emitted;
      return emitted < 3;
    });
    EXPECT_EQ(emitted, 3u) << "threads=" << threads;
  }
}

// ---- ParallelGibbsSampler: multi-threaded correctness ----------------------

TEST(ParallelGibbsTest, HogwildStatsStayExactUnderConcurrentSweeps) {
  // After any number of concurrent Hogwild sweeps the atomically-maintained
  // statistics must equal a from-scratch recomputation: lost updates would
  // permanently corrupt the chain.
  const CompiledGraph g = CompiledGraph::Compile(ChainGraph(500, 21));
  ParallelGibbsSampler sampler(&g, 4);
  AtomicWorld world(&g);
  Rng init_rng(7);
  world.InitValues(&init_rng, true);
  std::vector<Rng> rngs = sampler.MakeRngStreams(7);
  for (int i = 0; i < 20; ++i) sampler.Sweep(&world, &rngs);

  World reference(&g);
  reference.LoadBits(world.ToBits());
  for (GroupId grp = 0; grp < g.NumGroups(); ++grp) {
    ASSERT_EQ(world.GroupSat(grp), reference.GroupSat(grp)) << "group " << grp;
  }
}

TEST(ParallelGibbsTest, RecomputeStatsPublishesToHogwildWorkers) {
  // Regression for the relaxed-ordering publication in RecomputeStats: the
  // sharded scan writes clause/group statistics with relaxed stores, and
  // Hogwild workers then read them with relaxed loads. The ParallelFor join
  // plus the pool's submit path are the only happens-before edges (see the
  // publication-contract comment in RecomputeStats); under the TSan CI job
  // this test fails if either edge ever disappears. Repeated
  // LoadBitsPrefix -> Sweep round trips maximize the publish/consume
  // interleavings; the statistics must stay exact throughout.
  const CompiledGraph g = CompiledGraph::Compile(ChainGraph(400, 17));
  ParallelGibbsSampler sampler(&g, 4);
  AtomicWorld world(&g);
  std::vector<Rng> rngs = sampler.MakeRngStreams(23);
  Rng bits_rng(5);
  for (int round = 0; round < 10; ++round) {
    BitVector bits(g.NumVariables());
    for (size_t v = 0; v < g.NumVariables(); ++v) {
      bits.Set(v, bits_rng.Bernoulli(0.5));
    }
    // Sharded stats rebuild on the sampler's own pool, immediately consumed
    // by Hogwild sweeps on that pool.
    world.LoadBitsPrefix(bits, /*fill=*/false, /*apply_evidence=*/true,
                         sampler.pool());
    for (int i = 0; i < 3; ++i) sampler.Sweep(&world, &rngs);

    World reference(&g);
    reference.LoadBits(world.ToBits());
    for (GroupId grp = 0; grp < g.NumGroups(); ++grp) {
      ASSERT_EQ(world.GroupSat(grp), reference.GroupSat(grp))
          << "round " << round << " group " << grp;
    }
    for (factor::ClauseId c = 0; c < g.NumClauses(); ++c) {
      ASSERT_EQ(world.ClauseUnsat(c), reference.ClauseUnsat(c))
          << "round " << round << " clause " << c;
    }
  }
}

TEST(ParallelGibbsTest, MultiThreadMarginalsCloseToSequential) {
  const CompiledGraph g = CompiledGraph::Compile(ChainGraph(200, 41));
  GibbsOptions options;
  options.burn_in_sweeps = 100;
  options.sample_sweeps = 2000;
  options.seed = 5;

  const auto sequential = GibbsSampler(&g).EstimateMarginals(options);
  const auto parallel = ParallelGibbsSampler(&g, 4).EstimateMarginals(options);

  ASSERT_EQ(parallel.marginals.size(), sequential.marginals.size());
  // Both are finite-sample MCMC estimates of the same distribution; bound
  // the mean absolute deviation tightly and individual ones generously.
  double max_diff = 0.0, sum_diff = 0.0;
  for (size_t v = 0; v < sequential.marginals.size(); ++v) {
    const double d = std::abs(parallel.marginals[v] - sequential.marginals[v]);
    max_diff = std::max(max_diff, d);
    sum_diff += d;
  }
  EXPECT_LT(sum_diff / static_cast<double>(sequential.marginals.size()), 0.02);
  EXPECT_LT(max_diff, 0.10);
}

TEST(ParallelGibbsTest, MultiThreadMarginalsConvergeToExact) {
  // The end-to-end quality bar: Hogwild marginals against brute-force
  // enumeration on a small graph.
  FactorGraph g = RandomGraph(2, 7, 9, Semantics::kLinear, 2);
  auto exact = ExactInference(g);
  ASSERT_TRUE(exact.ok());

  GibbsOptions options;
  options.burn_in_sweeps = 300;
  options.sample_sweeps = 6000;
  options.seed = 15;
  const CompiledGraph compiled = CompiledGraph::Compile(g);
  const auto result = ParallelGibbsSampler(&compiled, 4).EstimateMarginals(options);
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_NEAR(result.marginals[v], exact->marginals[v], 0.04) << "var " << v;
  }
}

TEST(ParallelGibbsTest, EvidenceNeverResampledAcrossThreads) {
  FactorGraph g = ChainGraph(100, 3);
  g.SetEvidence(0, false);
  g.SetEvidence(50, true);
  g.SetEvidence(99, false);
  GibbsOptions options;
  options.sample_sweeps = 50;
  const CompiledGraph compiled = CompiledGraph::Compile(g);
  const auto result = ParallelGibbsSampler(&compiled, 4).EstimateMarginals(options);
  EXPECT_DOUBLE_EQ(result.marginals[0], 0.0);
  EXPECT_DOUBLE_EQ(result.marginals[50], 1.0);
  EXPECT_DOUBLE_EQ(result.marginals[99], 0.0);
}

TEST(ParallelGibbsTest, SweepVarsOnlyTouchesGivenVars) {
  const CompiledGraph g = CompiledGraph::Compile(ChainGraph(60, 9));
  ParallelGibbsSampler sampler(&g, 4);
  AtomicWorld world(&g);
  Rng init_rng(2);
  world.InitValues(&init_rng, true);
  const BitVector before = world.ToBits();

  std::vector<VarId> vars;
  for (VarId v = 10; v < 30; ++v) vars.push_back(v);
  std::vector<Rng> rngs = sampler.MakeRngStreams(77);
  for (int i = 0; i < 10; ++i) sampler.SweepVars(&world, &rngs, vars);

  const BitVector after = world.ToBits();
  for (VarId v = 0; v < 60; ++v) {
    if (v < 10 || v >= 30) {
      EXPECT_EQ(after.Get(v), before.Get(v)) << "untouched var " << v << " changed";
    }
  }
}

TEST(ParallelGibbsTest, ZeroThreadsMeansHardwareConcurrency) {
  const CompiledGraph g = CompiledGraph::Compile(ChainGraph(10, 1));
  ParallelGibbsSampler sampler(&g, 0);
  EXPECT_GE(sampler.num_threads(), 1u);
}

}  // namespace
}  // namespace deepdive::inference
