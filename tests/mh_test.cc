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

// Golden values of a tracked run over a delta holding every kind of ratio
// term: a moved Pr(0) weight (and one moved back, which leaves no entry),
// new groups on zero and nonzero weights, a removed group, a modified group
// with an added and a removed clause, and a label set after Pr(0). Recorded
// with the acceptance ratio walked through a value_of callback and the
// marginals accumulated as double adds.
TEST(IndependentMHTest, TrackedRunOverEveryTermKindMatchesGoldenValues) {
  FactorGraph g = ChainGraph(31, 12);
  const WeightId moved = g.AddWeight(0.4, /*learnable=*/true);
  const WeightId moved_back = g.AddWeight(-0.3, /*learnable=*/true);
  g.AddSimpleFactor(1, {{4, false}}, moved);
  g.AddSimpleFactor(6, {}, moved);
  g.AddSimpleFactor(8, {{2, true}}, moved_back);
  const factor::GroupId modified =
      g.AddGroup(0, 10, g.AddWeight(0.7, false), factor::Semantics::kRatio);
  g.AddClause(modified, {{3, false}});
  const factor::ClauseId dropped = g.AddClause(modified, {{5, false}, {7, true}});
  SampleStore store = MaterializeSamples(g, 2000, 37);

  GraphDelta first;
  g.SetWeightValue(moved, 1.1);
  first.weight_changes.push_back({moved, 0.4, 1.1});
  g.SetWeightValue(moved_back, 0.5);
  first.weight_changes.push_back({moved_back, -0.3, 0.5});
  first.new_groups.push_back(g.AddSimpleFactor(3, {}, moved));
  first.new_groups.push_back(
      g.AddSimpleFactor(2, {{9, false}}, g.AddWeight(0.0, /*learnable=*/true)));
  first.new_groups.push_back(g.AddSimpleFactor(11, {{0, true}}, g.AddWeight(0.6, false)));
  g.DeactivateGroup(0);
  first.removed_groups.push_back(0);
  const factor::ClauseId added = g.AddClause(modified, {{9, false}});
  g.DeactivateClause(dropped);
  first.modified_groups.push_back({modified, {added}, {dropped}});
  GraphDelta second;
  g.SetWeightValue(moved_back, -0.3);
  second.weight_changes.push_back({moved_back, 0.5, -0.3});
  g.SetEvidence(4, true);
  second.evidence_changes.push_back({4, std::nullopt, true});
  GraphDelta delta;
  delta.Merge(first);
  delta.Merge(second);
  ASSERT_EQ(delta.weight_changes.size(), 1u);

  const std::vector<VarId> tracked = {1, 2, 3, 4, 5, 8, 9, 10, 11};
  IndependentMH mh(&g, &delta);
  MHOptions options;
  options.target_steps = 2000;
  options.track_vars = &tracked;
  auto result = mh.Run(&store, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(factor::Fnv1aHash(result->marginals.data(),
                              result->marginals.size() * sizeof(double)),
            0x3f5ebae30faad4cfULL);
  EXPECT_EQ(result->accepted, 588u);
  EXPECT_EQ(result->proposals, 2000u);
}

}  // namespace
}  // namespace deepdive::incremental
