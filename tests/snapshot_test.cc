// The materialization's sample store: small components are drawn exactly from
// their world tables, larger ones by the Gibbs chain (BuildMaterializationSnapshot).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "factor/compiled_graph.h"
#include "factor/factor_graph.h"
#include "incremental/decomposition.h"
#include "incremental/snapshot.h"
#include "inference/exact.h"
#include "inference/world.h"
#include "util/bitvector.h"
#include "util/random.h"

namespace deepdive::incremental {
namespace {

using factor::ClauseId;
using factor::CompiledGraph;
using factor::FactorGraph;
using factor::GroupId;
using factor::Semantics;
using factor::VarId;

constexpr double kSigmas = 4.5;

/// Variables v and u interact only when v % blocks == u % blocks, so the
/// graph has at least `blocks` components (2-4). At most 12 variables are
/// free. Groups take all three semantics and 0-3 clauses of up to 3
/// literals; some clauses hold x and !x, or x twice.
FactorGraph BlockGraph(uint64_t seed) {
  FactorGraph g;
  Rng rng(seed);
  const size_t n = 5 + rng.UniformInt(10);
  const size_t blocks = 2 + rng.UniformInt(3);
  g.AddVariables(n);
  size_t free = n;
  for (VarId v = 0; v < n; ++v) {
    if (free > 12 || rng.Bernoulli(0.2)) {
      g.SetEvidence(v, rng.Bernoulli(0.5));
      --free;
    }
  }
  const auto in_block = [&](VarId of) {
    const size_t members = (n - of % blocks + blocks - 1) / blocks;
    return static_cast<VarId>(of % blocks + blocks * rng.UniformInt(members));
  };
  const size_t groups = 2 * n + rng.UniformInt(n);
  for (size_t i = 0; i < groups; ++i) {
    const VarId head = static_cast<VarId>(rng.UniformInt(n));
    const auto semantics = static_cast<Semantics>(rng.UniformInt(3));
    const GroupId grp = g.AddGroup(static_cast<uint32_t>(i), head,
                                   g.AddWeight(rng.Uniform(-1.5, 1.5), false), semantics);
    const size_t clauses = rng.UniformInt(4);
    for (size_t c = 0; c < clauses; ++c) {
      std::vector<factor::Literal> lits;
      const size_t n_lits = 1 + rng.UniformInt(3);
      for (size_t l = 0; l < n_lits; ++l) {
        const VarId v = in_block(head);
        if (v != head) lits.push_back({v, rng.Bernoulli(0.4)});
      }
      if (!lits.empty() && rng.Bernoulli(0.25)) {
        const factor::Literal x = lits[rng.UniformInt(lits.size())];
        lits.push_back({x.var, rng.Bernoulli(0.5) ? !x.negated : x.negated});
      }
      g.AddClause(grp, lits);
    }
  }
  return g;
}

/// A chain of `n` variables with random pairwise and prior weights.
FactorGraph ChainGraph(uint64_t seed, size_t n) {
  FactorGraph g;
  Rng rng(seed);
  g.AddVariables(n);
  for (VarId v = 0; v + 1 < n; ++v) {
    g.AddSimpleFactor(v, {{v + 1, false}}, g.AddWeight(rng.Uniform(-0.8, 0.8), false));
  }
  for (VarId v = 0; v < n; ++v) {
    g.AddSimpleFactor(v, {}, g.AddWeight(rng.Uniform(-0.3, 0.3), false));
  }
  return g;
}

std::vector<BitVector> Samples(const SampleStore& store) {
  std::vector<BitVector> out;
  for (size_t s = 0; s < store.size(); ++s) out.push_back(store.sample(s));
  return out;
}

uint64_t HashStore(const SampleStore& store) {
  std::vector<uint8_t> bytes;
  for (const BitVector& sample : Samples(store)) {
    for (size_t i = 0; i < sample.size(); ++i) bytes.push_back(sample.Get(i) ? 1 : 0);
  }
  return factor::Fnv1aHash(bytes.data(), bytes.size());
}

std::shared_ptr<MaterializationSnapshot> Build(const FactorGraph& g,
                                               const MaterializationOptions& options,
                                               const inference::Parallelism& parallelism = {}) {
  auto snapshot = BuildMaterializationSnapshot(g, options, parallelism);
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  return snapshot.ok() ? *snapshot : nullptr;
}

// (a) The store's frequencies, one variable and every pair at a time, against
// exact enumeration; (b) consecutive samples agree as often as independent
// draws would. 4.5 sigma per check over ~20k checks.
TEST(ExactStoreTest, FrequenciesMatchExactInferenceAndSamplesAreIndependent) {
  constexpr size_t kSamples = 20000;
  size_t graphs_with_evidence = 0, multi_component = 0, pairs_checked = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const FactorGraph g = BlockGraph(seed);
    auto exact = inference::ExactInference(g);
    ASSERT_TRUE(exact.ok());
    const std::vector<VarId>& free_vars = exact->free_vars;
    MaterializationOptions options;
    options.num_samples = kSamples;
    options.seed = seed;
    const auto snap = Build(g, options);
    ASSERT_NE(snap, nullptr);
    ASSERT_EQ(snap->store.size(), kSamples);
    EXPECT_EQ(snap->stats.exact_vars, free_vars.size()) << "seed " << seed;
    EXPECT_EQ(snap->stats.chain_vars, 0u) << "seed " << seed;
    graphs_with_evidence += free_vars.size() < g.NumVariables() ? 1 : 0;
    const CompiledGraph image = CompiledGraph::Compile(g);
    multi_component += ConnectedComponents(image, free_vars).size() > 1 ? 1 : 0;

    const size_t k = free_vars.size();
    std::vector<size_t> ones(k, 0), agree(k, 0);
    std::vector<std::vector<size_t>> both(k, std::vector<size_t>(k, 0));
    for (size_t s = 0; s < kSamples; ++s) {
      const BitVector& bits = snap->store.sample(s);
      for (VarId v = 0; v < g.NumVariables(); ++v) {
        const auto ev = g.EvidenceValue(v);
        if (ev.has_value()) ASSERT_EQ(bits.Get(v), *ev) << "seed " << seed;
      }
      for (size_t i = 0; i < k; ++i) {
        const bool x = bits.Get(free_vars[i]);
        ones[i] += x ? 1 : 0;
        if (s > 0) agree[i] += x == snap->store.sample(s - 1).Get(free_vars[i]) ? 1 : 0;
        for (size_t j = i + 1; j < k && x; ++j) both[i][j] += bits.Get(free_vars[j]) ? 1 : 0;
      }
    }
    const auto within = [&](double freq, double p, double var, size_t n) {
      return std::abs(freq - p) <= kSigmas * std::sqrt(var / static_cast<double>(n)) + 1e-12;
    };
    for (size_t i = 0; i < k; ++i) {
      const double p = exact->marginals[free_vars[i]];
      EXPECT_TRUE(within(static_cast<double>(ones[i]) / kSamples, p, p * (1 - p), kSamples))
          << "seed " << seed << " var " << free_vars[i] << " freq "
          << static_cast<double>(ones[i]) / kSamples << " exact " << p;
      // A_s = [x_s == x_{s+1}] over consecutive pairs: mean q = p^2 + (1-p)^2;
      // A_s and A_{s+1} share x_{s+1}, so they covary by p^3 + (1-p)^3 - q^2.
      const double q = p * p + (1 - p) * (1 - p);
      const double r = p * p * p + (1 - p) * (1 - p) * (1 - p);
      const double var = q * (1 - q) + 2 * (r - q * q);
      EXPECT_TRUE(within(static_cast<double>(agree[i]) / (kSamples - 1), q, var, kSamples - 1))
          << "seed " << seed << " var " << free_vars[i] << " agreement "
          << static_cast<double>(agree[i]) / (kSamples - 1) << " independent " << q;
      for (size_t j = i + 1; j < k; ++j) {
        double pj = 0.0;
        for (size_t w = 0; w < exact->world_probs.size(); ++w) {
          if (((w >> i) & 1) && ((w >> j) & 1)) pj += exact->world_probs[w];
        }
        EXPECT_TRUE(within(static_cast<double>(both[i][j]) / kSamples, pj, pj * (1 - pj),
                           kSamples))
            << "seed " << seed << " vars " << free_vars[i] << "," << free_vars[j];
        ++pairs_checked;
      }
    }
  }
  EXPECT_GT(graphs_with_evidence, 50u);
  EXPECT_GT(multi_component, 150u);
  EXPECT_GT(pairs_checked, 3000u);
}

// (d) Materialized marginals of enumerated components are exact: they match
// one Gray-code walk over all free variables at once, and the FactorGraph
// oracle, to 1e-12 — also when the time budget stops the draws early.
TEST(ExactStoreTest, MaterializedMarginalsAreExact) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const FactorGraph g = BlockGraph(seed);
    auto exact = inference::ExactInference(g);
    ASSERT_TRUE(exact.ok());
    const CompiledGraph image = CompiledGraph::Compile(g);
    inference::World world(&image);
    inference::GibbsScratch scratch;
    std::vector<double> walked(g.NumVariables(), -1.0);
    inference::EnumerateMarginals(&world, exact->free_vars, &scratch, &walked);
    MaterializationOptions options;
    options.num_samples = seed % 2 == 0 ? 100 : 100000000;
    options.time_budget_seconds = seed % 2 == 0 ? 0.0 : 1e-6;
    const auto snap = Build(g, options);
    ASSERT_NE(snap, nullptr);
    for (VarId v : exact->free_vars) {
      EXPECT_NEAR(snap->materialized_marginals[v], walked[v], 1e-12) << "seed " << seed;
      EXPECT_NEAR(snap->materialized_marginals[v], exact->marginals[v], 1e-12)
          << "seed " << seed;
    }
  }
}

// (c) Exact draws come from their own stream, so without a chain the store
// does not depend on the thread or replica count.
TEST(ExactStoreTest, DrawsIgnoreThreadsAndReplicas) {
  const FactorGraph g = BlockGraph(7);
  MaterializationOptions options;
  options.num_samples = 500;
  const auto reference = Build(g, options);
  ASSERT_NE(reference, nullptr);
  EXPECT_EQ(reference->stats.chain_vars, 0u);
  for (const auto [threads, replicas] :
       {std::pair<size_t, size_t>{2, 1}, {1, 2}, {2, 2}, {4, 2}}) {
    const auto snap = Build(g, options, {.num_threads = threads, .num_replicas = replicas});
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(Samples(snap->store), Samples(reference->store))
        << threads << " threads, " << replicas << " replicas";
  }
}

// (d) The two rules of the cut-off, each at its boundary.
TEST(ExactStoreTest, CutOffEnumeratesUpToTwelveVariables) {
  // 2^12 conditionals against 12 per sweep over 50 + 400 sweeps: the walk is
  // cheaper, so only the size rule decides.
  MaterializationOptions options;
  options.num_samples = 400;
  const FactorGraph at = ChainGraph(3, kMaxExactComponentVars);
  const auto enumerated = Build(at, options);
  ASSERT_NE(enumerated, nullptr);
  EXPECT_EQ(enumerated->stats.exact_vars, kMaxExactComponentVars);
  EXPECT_EQ(enumerated->stats.chain_vars, 0u);

  const FactorGraph above = ChainGraph(3, kMaxExactComponentVars + 1);
  const auto chained = Build(above, options);
  ASSERT_NE(chained, nullptr);
  EXPECT_EQ(chained->stats.exact_vars, 0u);
  EXPECT_EQ(chained->stats.chain_vars, kMaxExactComponentVars + 1);
  EXPECT_EQ(chained->store.size(), 400u);
}

TEST(ExactStoreTest, CutOffEnumeratesWhenTheWalkCostsNoMoreThanTheChain) {
  // 2^10 = 1024 conditionals against the chain's 10 per sweep: enumerated
  // from 103 sweeps (3 burn-in + 100 samples) on, chained at 102.
  const FactorGraph g = ChainGraph(5, 10);
  MaterializationOptions options;
  options.num_samples = 100;
  options.gibbs_burn_in = 3;
  const auto enumerated = Build(g, options);
  ASSERT_NE(enumerated, nullptr);
  EXPECT_EQ(enumerated->stats.exact_vars, 10u);
  options.gibbs_burn_in = 2;
  const auto chained = Build(g, options);
  ASSERT_NE(chained, nullptr);
  EXPECT_EQ(chained->stats.chain_vars, 10u);
  EXPECT_EQ(chained->stats.exact_vars, 0u);
}

// (d) With nothing enumerated the store is the whole-graph chain's, byte for
// byte: the golden was recorded from the implementation that sampled every
// variable with that chain.
TEST(ExactStoreTest, ChainOnlyStoreMatchesGolden) {
  FactorGraph g = ChainGraph(11, kMaxExactComponentVars + 4);
  const VarId labelled = g.AddVariable();
  g.SetEvidence(labelled, true);
  g.AddSimpleFactor(0, {{labelled, false}}, g.AddWeight(0.7, false));
  MaterializationOptions options;
  options.num_samples = 64;
  options.gibbs_burn_in = 10;
  options.gibbs_thin = 2;
  options.seed = 9;
  const auto snap = Build(g, options);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->stats.exact_vars, 0u);
  EXPECT_EQ(snap->store.size(), 64u);
  EXPECT_EQ(HashStore(snap->store), 0x05676479214566c7ULL);
}

// Leftover components are chained over their own variables while the rest
// are drawn; every sample keeps the evidence labels.
TEST(ExactStoreTest, MixedStoreChainsOnlyTheLargeComponent) {
  FactorGraph g = ChainGraph(13, kMaxExactComponentVars + 3);
  const VarId first_small = static_cast<VarId>(g.NumVariables());
  g.AddVariables(3);
  g.AddSimpleFactor(first_small, {{first_small + 1, false}}, g.AddWeight(1.0, false));
  g.AddSimpleFactor(first_small + 2, {}, g.AddWeight(-0.5, false));
  g.SetEvidence(first_small + 1, false);
  MaterializationOptions options;
  options.num_samples = 30000;
  const auto snap = Build(g, options);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->stats.exact_vars, 2u);
  EXPECT_EQ(snap->stats.chain_vars, kMaxExactComponentVars + 3);
  // first_small: prior-free factor fires only with its (false) neighbour
  // true, so it is uniform; first_small + 2 has P(1) = 1 / (1 + e^1).
  size_t a = 0, b = 0;
  for (const BitVector& bits : Samples(snap->store)) {
    EXPECT_FALSE(bits.Get(first_small + 1));
    a += bits.Get(first_small) ? 1 : 0;
    b += bits.Get(first_small + 2) ? 1 : 0;
  }
  const double n = static_cast<double>(snap->store.size());
  const double pb = 1.0 / (1.0 + std::exp(1.0));
  EXPECT_NEAR(a / n, 0.5, kSigmas * std::sqrt(0.25 / n));
  EXPECT_NEAR(b / n, pb, kSigmas * std::sqrt(pb * (1 - pb) / n));
  EXPECT_EQ(snap->materialized_marginals[first_small], 0.5);
  EXPECT_NEAR(snap->materialized_marginals[first_small + 2], pb, 1e-12);
}

}  // namespace
}  // namespace deepdive::incremental
