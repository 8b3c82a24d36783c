#include <gtest/gtest.h>

#include "factor/compiled_graph.h"
#include "factor/factor_graph.h"
#include "incremental/variational.h"
#include "inference/exact.h"
#include "inference/gibbs.h"
#include "kbc/metrics.h"
#include "util/random.h"

namespace deepdive::incremental {
namespace {

using factor::FactorGraph;
using factor::GraphDelta;
using factor::VarId;
using factor::WeightId;

/// Chain with strong couplings: a good target for pairwise approximation.
FactorGraph StrongChain(uint64_t seed, size_t num_vars) {
  FactorGraph g;
  Rng rng(seed);
  g.AddVariables(num_vars);
  for (size_t i = 0; i + 1 < num_vars; ++i) {
    const double w = rng.Bernoulli(0.5) ? 1.2 : -1.2;
    g.AddSimpleFactor(static_cast<VarId>(i), {{static_cast<VarId>(i + 1), false}},
                      g.AddWeight(w, false));
  }
  for (size_t i = 0; i < num_vars; ++i) {
    g.AddSimpleFactor(static_cast<VarId>(i), {},
                      g.AddWeight(rng.Uniform(-0.3, 0.3), false));
  }
  return g;
}

VariationalOptions TestOptions(double lambda) {
  VariationalOptions options;
  options.lambda = lambda;
  options.num_samples = 400;
  options.gibbs_burn_in = 100;
  options.fit_epochs = 200;
  options.seed = 99;
  return options;
}

TEST(VariationalTest, SparsityIncreasesWithLambda) {
  FactorGraph g = StrongChain(1, 12);
  size_t last_edges = 1000;
  for (double lambda : {0.01, 0.3, 0.95}) {
    auto m = VariationalMaterialization::Materialize(g, TestOptions(lambda));
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    EXPECT_LE(m->NumEdges(), last_edges);
    last_edges = m->NumEdges();
  }
  EXPECT_EQ(last_edges, 0u);  // lambda ~ 1 kills every edge
}

TEST(VariationalTest, NzPairsRestrictEdgeCandidates) {
  FactorGraph g = StrongChain(2, 10);
  auto m = VariationalMaterialization::Materialize(g, TestOptions(0.0));
  ASSERT_TRUE(m.ok());
  // A chain has exactly n-1 co-occurring pairs.
  EXPECT_EQ(m->NumNzPairs(), 9u);
  EXPECT_LE(m->NumEdges(), 9u);
}

TEST(VariationalTest, ApproximationMatchesMarginalsAtSmallLambda) {
  FactorGraph g = StrongChain(3, 10);
  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());

  auto m = VariationalMaterialization::Materialize(g, TestOptions(0.05));
  ASSERT_TRUE(m.ok());
  inference::GibbsSampler sampler(&m->approx_graph());
  inference::GibbsOptions gopts;
  gopts.burn_in_sweeps = 200;
  gopts.sample_sweeps = 3000;
  gopts.seed = 7;
  const auto approx = sampler.EstimateMarginals(gopts);
  const double kl = kbc::MeanSymmetricKL(exact->marginals, approx.marginals);
  EXPECT_LT(kl, 0.08) << "KL(original || approx) too large";
}

TEST(VariationalTest, LargerLambdaGivesWorseApproximation) {
  FactorGraph g = StrongChain(4, 10);
  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());

  auto kl_for = [&](double lambda) {
    auto m = VariationalMaterialization::Materialize(g, TestOptions(lambda));
    EXPECT_TRUE(m.ok());
    inference::GibbsSampler sampler(&m->approx_graph());
    inference::GibbsOptions gopts;
    gopts.burn_in_sweeps = 200;
    gopts.sample_sweeps = 3000;
    gopts.seed = 11;
    return kbc::MeanSymmetricKL(exact->marginals,
                                sampler.EstimateMarginals(gopts).marginals);
  };
  // Edge-free approximation must be clearly worse than the dense one.
  EXPECT_LT(kl_for(0.05), kl_for(0.99) + 0.02);
}

TEST(VariationalTest, EvidencePreservedInApproxGraph) {
  FactorGraph g = StrongChain(5, 8);
  g.SetEvidence(0, true);
  auto m = VariationalMaterialization::Materialize(g, TestOptions(0.1));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->approx_graph().EvidenceValue(0), std::optional<bool>(true));
  EXPECT_EQ(m->approx_graph().NumVariables(), g.NumVariables());
  EXPECT_EQ(m->compiled_approx().EvidenceValue(0), std::optional<bool>(true));
  EXPECT_EQ(m->compiled_approx().Checksum(),
            factor::CompiledGraph::Compile(m->approx_graph()).Checksum());
}

TEST(VariationalTest, BuildInferenceGraphAppendsDelta) {
  FactorGraph g = StrongChain(6, 8);
  auto m = VariationalMaterialization::Materialize(g, TestOptions(0.1));
  ASSERT_TRUE(m.ok());

  GraphDelta delta;
  const WeightId w = g.AddWeight(1.0, true, "new-feature");
  delta.new_groups.push_back(g.AddSimpleFactor(2, {{3, false}}, w));
  g.SetEvidence(4, true);
  delta.evidence_changes.push_back({4, std::nullopt, true});

  const factor::CompiledGraph inf = BuildVariationalInferenceImage(g, *m, delta);
  EXPECT_EQ(inf.NumVariables(), g.NumVariables());
  EXPECT_EQ(inf.NumGroups(), m->approx_graph().NumGroups() + 1);
  EXPECT_EQ(inf.NumWeights(), m->approx_graph().NumWeights() + 1);
  EXPECT_EQ(inf.EvidenceValue(4), std::optional<bool>(true));
  // The copied group carries the original weight and the delta's clause.
  const factor::GroupId copied_id = static_cast<factor::GroupId>(inf.NumGroups() - 1);
  const factor::CompiledGroup& copied = inf.group(copied_id);
  EXPECT_EQ(copied.head, 2u);
  EXPECT_DOUBLE_EQ(inf.WeightValue(copied.weight), 1.0);
  EXPECT_EQ(inf.WeightDescription(copied.weight), "new-feature");
  ASSERT_EQ(inf.GroupClauses(copied_id).size(), 1u);
  const auto literals = inf.ClauseLiterals(inf.GroupClauses(copied_id)[0]);
  ASSERT_EQ(literals.size(), 1u);
  EXPECT_EQ(literals[0].var, 3u);
  // Variable 2's head row is its approximation groups, then the copy.
  EXPECT_EQ(inf.HeadGroups(2).back(), copied_id);
  EXPECT_EQ(inf.HeadGroups(2).size(), m->compiled_approx().HeadGroups(2).size() + 1);
}

TEST(VariationalTest, SearchLambdaStopsBeforeQualityCollapse) {
  FactorGraph g = StrongChain(7, 10);
  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  auto lambda = SearchLambda(g, TestOptions(0.0), 0.001, 0.05, exact->marginals);
  ASSERT_TRUE(lambda.ok()) << lambda.status().ToString();
  EXPECT_GE(*lambda, 0.001);
  EXPECT_LE(*lambda, 10.0);
}

TEST(VariationalTest, EdgeStatsExposeCovariances) {
  FactorGraph g = StrongChain(8, 6);
  auto m = VariationalMaterialization::Materialize(g, TestOptions(0.0));
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->edge_stats().size(), 5u);
  // Strong couplings (|w| = 1.2) produce clearly nonzero spin covariance.
  double max_abs = 0;
  for (const auto& e : m->edge_stats()) max_abs = std::max(max_abs, std::abs(e.covariance));
  EXPECT_GT(max_abs, 0.3);
}

}  // namespace
}  // namespace deepdive::incremental
