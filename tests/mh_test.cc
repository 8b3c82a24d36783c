#include <gtest/gtest.h>

#include "factor/compiled_graph.h"
#include "factor/factor_graph.h"
#include "incremental/mh_sampler.h"
#include "incremental/sample_store.h"
#include "inference/exact.h"
#include "inference/gibbs.h"
#include "inference/parallel_gibbs.h"
#include "util/random.h"

namespace deepdive::incremental {
namespace {

using factor::FactorGraph;
using factor::GraphDelta;
using factor::VarId;
using factor::WeightId;

FactorGraph ChainGraph(uint64_t seed, size_t num_vars) {
  FactorGraph g;
  Rng rng(seed);
  g.AddVariables(num_vars);
  for (size_t i = 0; i + 1 < num_vars; ++i) {
    g.AddSimpleFactor(static_cast<VarId>(i), {{static_cast<VarId>(i + 1), false}},
                      g.AddWeight(rng.Uniform(-0.6, 0.6), false));
  }
  for (size_t i = 0; i < num_vars; ++i) {
    g.AddSimpleFactor(static_cast<VarId>(i), {},
                      g.AddWeight(rng.Uniform(-0.4, 0.4), false));
  }
  return g;
}

SampleStore MaterializeSamples(const FactorGraph& g, size_t count, uint64_t seed) {
  const factor::CompiledGraph compiled = factor::CompiledGraph::Compile(g);
  inference::GibbsOptions options;
  options.burn_in_sweeps = 200;
  options.seed = seed;
  SampleStore store;
  inference::ParallelGibbsSampler(&compiled, 1)
      .SampleChain(options, count, 3, [&](const BitVector& bits) {
        store.Add(bits);
        return true;
      });
  return store;
}

TEST(SampleStoreTest, CursorAndExhaustion) {
  SampleStore store;
  store.Add(BitVector(4));
  store.Add(BitVector(4, true));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.remaining(), 2u);
  EXPECT_NE(store.NextProposal(), nullptr);
  EXPECT_NE(store.NextProposal(), nullptr);
  EXPECT_EQ(store.NextProposal(), nullptr);
  EXPECT_TRUE(store.exhausted());
  store.ResetCursor();
  EXPECT_EQ(store.remaining(), 2u);
}

TEST(SampleStoreTest, ByteSizeCountsBits) {
  SampleStore store;
  for (int i = 0; i < 100; ++i) store.Add(BitVector(64));
  EXPECT_EQ(store.ByteSize(), 100u * 8u);
}

TEST(IndependentMHTest, EmptyDeltaAcceptsEverything) {
  FactorGraph g = ChainGraph(1, 10);
  SampleStore store = MaterializeSamples(g, 300, 7);
  GraphDelta empty;
  IndependentMH mh(&g, &empty);
  MHOptions options;
  options.target_steps = 300;
  auto result = mh.Run(&store, options);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->acceptance_rate, 1.0);

  // Marginals should match a fresh Gibbs estimate of the (unchanged) graph.
  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_NEAR(result->marginals[v], exact->marginals[v], 0.12) << "var " << v;
  }
}

TEST(IndependentMHTest, ConvergesToUpdatedDistribution) {
  FactorGraph g = ChainGraph(3, 8);
  SampleStore store = MaterializeSamples(g, 4000, 9);

  // Moderate update: one new factor.
  GraphDelta delta;
  delta.new_groups.push_back(
      g.AddSimpleFactor(2, {{6, false}}, g.AddWeight(0.7, false)));

  IndependentMH mh(&g, &delta);
  MHOptions options;
  options.target_steps = 4000;
  auto result = mh.Run(&store, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->acceptance_rate, 0.3);
  EXPECT_LT(result->acceptance_rate, 1.0);

  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_NEAR(result->marginals[v], exact->marginals[v], 0.08) << "var " << v;
  }
}

TEST(IndependentMHTest, NewEvidenceForcesLabelsAndLowersAcceptance) {
  FactorGraph g = ChainGraph(5, 8);
  SampleStore store = MaterializeSamples(g, 3000, 11);

  GraphDelta delta;
  g.SetEvidence(0, true);
  g.SetEvidence(7, false);
  delta.evidence_changes.push_back({0, std::nullopt, true});
  delta.evidence_changes.push_back({7, std::nullopt, false});

  IndependentMH mh(&g, &delta);
  MHOptions options;
  options.target_steps = 3000;
  auto result = mh.Run(&store, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->acceptance_rate, 1.0);
  EXPECT_DOUBLE_EQ(result->marginals[0], 1.0);
  EXPECT_DOUBLE_EQ(result->marginals[7], 0.0);
}

// Unary groups on four variables, tied to a learnable weight Pr(0) already
// used, which learning moves 0.2 -> 1.0 in the same update. The ratio once
// added the move to each new group on top of its current value, and MH
// overshot their marginals by up to 0.074.
TEST(IndependentMHTest, NewGroupsOnMovedTiedWeightMatchExact) {
  FactorGraph g = ChainGraph(23, 8);
  const WeightId tied = g.AddWeight(0.2, /*learnable=*/true);
  g.AddSimpleFactor(0, {}, tied);
  SampleStore store = MaterializeSamples(g, 40000, 29);

  GraphDelta delta;
  for (const VarId v : {2, 3, 5, 6}) {
    delta.new_groups.push_back(g.AddSimpleFactor(v, {}, tied));
  }
  delta.weight_changes.push_back({tied, 0.2, 1.0});
  g.SetWeightValue(tied, 1.0);

  IndependentMH mh(&g, &delta);
  MHOptions options;
  options.target_steps = 40000;
  auto result = mh.Run(&store, options);
  ASSERT_TRUE(result.ok());
  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_NEAR(result->marginals[v], exact->marginals[v], 0.02) << "var " << v;
  }
}

TEST(IndependentMHTest, ExhaustionReported) {
  FactorGraph g = ChainGraph(7, 6);
  SampleStore store = MaterializeSamples(g, 50, 13);
  GraphDelta empty;
  IndependentMH mh(&g, &empty);
  MHOptions options;
  options.target_steps = 500;
  auto result = mh.Run(&store, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exhausted);
  EXPECT_TRUE(store.exhausted());
}

TEST(IndependentMHTest, ExtendsProposalsOverNewVariables) {
  FactorGraph g = ChainGraph(9, 6);
  SampleStore store = MaterializeSamples(g, 2000, 15);

  // Add a new variable strongly tied to variable 0.
  const VarId nv = g.AddVariable();
  GraphDelta delta;
  delta.new_variables.push_back(nv);
  delta.new_groups.push_back(g.AddSimpleFactor(nv, {}, g.AddWeight(2.0, false)));

  IndependentMH mh(&g, &delta);
  MHOptions options;
  options.target_steps = 2000;
  auto result = mh.Run(&store, options);
  ASSERT_TRUE(result.ok());
  // sigmoid(2 * 2.0) ~ 0.982.
  EXPECT_NEAR(result->marginals[nv], 0.982, 0.05);
}

// A minted variable tied to a Pr(0) variable. Each proposal is extended
// onto it by one Gibbs sweep, and the acceptance test divides that draw's
// probability out. Scoring only the density ratio biased both marginals
// toward the extension's conditional: 0.985 against 0.940 for the new
// variable and 0.947 against 0.912 for variable 0.
TEST(IndependentMHTest, ExtensionProposalIsDividedOut) {
  FactorGraph g = ChainGraph(9, 6);
  SampleStore store = MaterializeSamples(g, 40000, 15);
  const VarId nv = g.AddVariable();
  GraphDelta delta;
  delta.new_variables.push_back(nv);
  delta.new_groups.push_back(g.AddSimpleFactor(nv, {}, g.AddWeight(1.0, false)));
  delta.new_groups.push_back(g.AddSimpleFactor(0, {{nv, false}}, g.AddWeight(1.5, false)));

  IndependentMH mh(&g, &delta);
  MHOptions options;
  options.target_steps = 40000;
  auto result = mh.Run(&store, options);
  ASSERT_TRUE(result.ok());
  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_NEAR(result->marginals[v], exact->marginals[v], 0.01) << "var " << v;
  }
}

TEST(IndependentMHTest, EmptyStoreIsExhaustedImmediately) {
  FactorGraph g = ChainGraph(11, 4);
  SampleStore store;
  GraphDelta empty;
  IndependentMH mh(&g, &empty);
  auto result = mh.Run(&store, MHOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exhausted);
  EXPECT_EQ(result->accepted, 0u);
}

TEST(IndependentMHTest, ParallelTrackedAccumulationBitIdentical) {
  // The tracked-marginal accumulation is a data-parallel reduction over the
  // tracked set (per-thread shard slices + batched run-length adds); it must
  // be bit-identical to the sequential per-step loop at any thread count.
  // 3000 tracked variables clears the parallelization threshold.
  const size_t n = 3000;
  FactorGraph g = ChainGraph(19, n);
  std::vector<VarId> tracked(n);
  for (size_t v = 0; v < n; ++v) tracked[v] = static_cast<VarId>(v);

  GraphDelta delta;
  delta.new_groups.push_back(
      g.AddSimpleFactor(5, {{9, false}}, g.AddWeight(0.9, false)));

  std::vector<double> reference;
  for (size_t threads : {1u, 4u}) {
    SampleStore store = MaterializeSamples(g, 60, 23);
    IndependentMH mh(&g, &delta);
    MHOptions options;
    options.target_steps = 60;
    options.track_vars = &tracked;
    options.num_threads = threads;
    auto result = mh.Run(&store, options);
    ASSERT_TRUE(result.ok());
    if (reference.empty()) {
      reference = result->marginals;
    } else {
      ASSERT_EQ(result->marginals.size(), reference.size());
      for (size_t v = 0; v < n; ++v) {
        ASSERT_EQ(result->marginals[v], reference[v])
            << "threads=" << threads << " var " << v;
      }
    }
  }
}

TEST(IndependentMHTest, UntrackedVariablesReportZeroNotLabels) {
  // With a tracked set, untracked variables — evidence included — must stay
  // exactly 0 (the caller keeps its own values for them); tracked evidence
  // still reports its label and tracked query variables a chain average.
  FactorGraph g = ChainGraph(25, 8);
  g.SetEvidence(0, true);
  g.SetEvidence(7, false);
  SampleStore store = MaterializeSamples(g, 500, 27);

  GraphDelta delta;
  delta.new_groups.push_back(
      g.AddSimpleFactor(2, {{3, false}}, g.AddWeight(0.5, false)));

  const std::vector<VarId> tracked = {0, 2, 3};
  IndependentMH mh(&g, &delta);
  MHOptions options;
  options.target_steps = 500;
  options.track_vars = &tracked;
  auto result = mh.Run(&store, options);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->marginals[0], 1.0);  // tracked evidence: label
  EXPECT_GT(result->marginals[2], 0.0);         // tracked query: chain average
  EXPECT_LT(result->marginals[2], 1.0);
  EXPECT_DOUBLE_EQ(result->marginals[5], 0.0);  // untracked query: untouched
  EXPECT_DOUBLE_EQ(result->marginals[7], 0.0);  // untracked evidence: untouched
}

// Property: acceptance rate decreases monotonically (roughly) with the
// magnitude of the distribution change — the "amount of change" axis of
// Figure 5(b).
TEST(IndependentMHTest, AcceptanceDecreasesWithChangeMagnitude) {
  double last_rate = 1.1;
  for (double dw : {0.0, 0.8, 2.5}) {
    FactorGraph g = ChainGraph(21, 8);
    SampleStore store = MaterializeSamples(g, 2000, 17);
    GraphDelta delta;
    if (dw > 0) {
      for (VarId v = 0; v < 4; ++v) {
        delta.new_groups.push_back(
            g.AddSimpleFactor(v, {}, g.AddWeight(dw, false)));
      }
    }
    IndependentMH mh(&g, &delta);
    MHOptions options;
    options.target_steps = 2000;
    auto result = mh.Run(&store, options);
    ASSERT_TRUE(result.ok());
    EXPECT_LT(result->acceptance_rate, last_rate + 0.02);
    last_rate = result->acceptance_rate;
  }
  EXPECT_LT(last_rate, 0.7);
}

// Golden values of the one-sweep extension, whose proposal probability the
// acceptance test divides out, on a compiled image that drops the retracted
// groups. (Recorded when the extension became one sweep; the two-sweep
// extension scored by the density ratio alone accepted 122 proposals.)
TEST(IndependentMHTest, ExtensionMatchesGoldenValues) {
  FactorGraph g = ChainGraph(9, 6);
  SampleStore store = MaterializeSamples(g, 300, 15);
  const VarId nv = g.AddVariables(3);
  GraphDelta delta;
  for (VarId v = nv; v < nv + 3; ++v) delta.new_variables.push_back(v);
  delta.new_groups.push_back(g.AddSimpleFactor(nv, {}, g.AddWeight(1.2, false)));
  delta.new_groups.push_back(
      g.AddSimpleFactor(nv + 1, {{0, false}}, g.AddWeight(0.8, false)));
  delta.new_groups.push_back(
      g.AddSimpleFactor(nv + 2, {{nv + 1, true}}, g.AddWeight(-0.6, false)));
  delta.new_groups.push_back(g.AddSimpleFactor(2, {{4, false}}, g.AddWeight(0.9, false)));
  const factor::GroupId retracted =
      g.AddSimpleFactor(nv + 1, {{nv, false}}, g.AddWeight(3.0, false));
  g.DeactivateGroup(retracted);
  delta.new_groups.push_back(retracted);
  g.DeactivateGroup(0);
  delta.removed_groups.push_back(0);

  IndependentMH mh(&g, &delta);
  MHOptions options;
  options.target_steps = 300;
  auto result = mh.Run(&store, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(factor::Fnv1aHash(result->marginals.data(),
                              result->marginals.size() * sizeof(double)),
            0x324383380c388b08ULL);
  EXPECT_EQ(result->accepted, 165u);
  EXPECT_EQ(result->proposals, 300u);
}

}  // namespace
}  // namespace deepdive::incremental
