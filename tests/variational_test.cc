#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "factor/compiled_graph.h"
#include "factor/factor_graph.h"
#include "incremental/variational.h"
#include "inference/exact.h"
#include "inference/gibbs.h"
#include "kbc/metrics.h"
#include "util/random.h"

namespace deepdive::incremental {
namespace {

using factor::CompiledGraph;
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

StatusOr<VariationalMaterialization> Materialize(const FactorGraph& g,
                                                const VariationalOptions& options) {
  return VariationalMaterialization::Materialize(g, CompiledGraph::Compile(g), options);
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
    auto m = Materialize(g, TestOptions(lambda));
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    EXPECT_LE(m->NumEdges(), last_edges);
    last_edges = m->NumEdges();
  }
  EXPECT_EQ(last_edges, 0u);  // lambda ~ 1 kills every edge
}

TEST(VariationalTest, NzPairsRestrictEdgeCandidates) {
  FactorGraph g = StrongChain(2, 10);
  auto m = Materialize(g, TestOptions(0.0));
  ASSERT_TRUE(m.ok());
  // A chain has exactly n-1 co-occurring pairs.
  EXPECT_EQ(m->NumNzPairs(), 9u);
  EXPECT_LE(m->NumEdges(), 9u);
}

TEST(VariationalTest, ApproximationMatchesMarginalsAtSmallLambda) {
  FactorGraph g = StrongChain(3, 10);
  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());

  auto m = Materialize(g, TestOptions(0.05));
  ASSERT_TRUE(m.ok());
  inference::GibbsSampler sampler(&m->compiled_approx());
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
    auto m = Materialize(g, TestOptions(lambda));
    EXPECT_TRUE(m.ok());
    inference::GibbsSampler sampler(&m->compiled_approx());
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
  auto m = Materialize(g, TestOptions(0.1));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->compiled_approx().EvidenceValue(0), std::optional<bool>(true));
  EXPECT_EQ(m->compiled_approx().NumVariables(), g.NumVariables());
  // The fitted weights are the image's owned values, which Checksum() and
  // Decompile read.
  EXPECT_EQ(m->compiled_approx().Checksum(),
            CompiledGraph::Compile(m->compiled_approx().Decompile()).Checksum());
}

TEST(VariationalTest, BuildInferenceGraphAppendsDelta) {
  FactorGraph g = StrongChain(6, 8);
  auto m = Materialize(g, TestOptions(0.1));
  ASSERT_TRUE(m.ok());

  GraphDelta delta;
  const WeightId w = g.AddWeight(1.0, true, "new-feature");
  delta.new_groups.push_back(g.AddSimpleFactor(2, {{3, false}}, w));
  g.SetEvidence(4, true);
  delta.evidence_changes.push_back({4, std::nullopt, true});

  const factor::CompiledGraph inf = BuildVariationalInferenceImage(g, *m, delta);
  EXPECT_EQ(inf.NumVariables(), g.NumVariables());
  EXPECT_EQ(inf.NumGroups(), m->compiled_approx().NumGroups() + 1);
  EXPECT_EQ(inf.NumWeights(), m->compiled_approx().NumWeights() + 1);
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

TEST(VariationalTest, SearchLambdaRejectsNonPositiveStart) {
  // From a start <= 0, lambda *= 10 never passes the loop bound.
  FactorGraph g = StrongChain(7, 6);
  const std::vector<double> reference(g.NumVariables(), 0.5);
  for (double lambda_min : {0.0, -0.1, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    auto lambda = SearchLambda(g, TestOptions(0.0), lambda_min, 0.05, reference);
    EXPECT_EQ(lambda.status().code(), StatusCode::kInvalidArgument) << lambda_min;
  }
}

TEST(VariationalTest, SearchLambdaRejectsShortReference) {
  FactorGraph g = StrongChain(7, 6);
  const std::vector<double> reference(g.NumVariables() - 1, 0.5);
  auto lambda = SearchLambda(g, TestOptions(0.0), 0.001, 0.05, reference);
  EXPECT_EQ(lambda.status().code(), StatusCode::kInvalidArgument);
}

// Golden values recorded where the approximation was still built and fit as
// a FactorGraph, then compiled: the compiled-image build and in-place fit
// must reproduce its checksum and edge count exactly.
TEST(VariationalTest, ApproximationMatchesGoldenChecksums) {
  FactorGraph g;
  Rng rng(31);
  g.AddVariables(16);
  for (VarId v = 0; v + 1 < 16; ++v) {
    g.AddSimpleFactor(v, {{v + 1, false}}, g.AddWeight(rng.Uniform(-0.6, 0.6), false));
  }
  for (VarId v = 0; v < 16; ++v) {
    g.AddSimpleFactor(v, {}, g.AddWeight(rng.Uniform(-0.4, 0.4), false));
  }
  for (VarId v = 0; v + 2 < 16; v += 3) {
    g.AddSimpleFactor(v, {{v + 2, false}}, g.AddWeight(1.1, false));
  }
  g.SetEvidence(0, true);
  g.SetEvidence(15, false);
  g.DeactivateGroup(3);
  const struct {
    double lambda;
    uint64_t checksum;
    size_t edges;
  } kGolden[] = {{0.05, 0x377093d6a5679708ULL, 9}, {0.15, 0x69e296f209f2e12aULL, 6}};
  for (const auto& golden : kGolden) {
    VariationalOptions options;
    options.num_samples = 80;
    options.gibbs_burn_in = 10;
    options.fit_epochs = 20;
    options.lambda = golden.lambda;
    options.seed = 5;
    auto m = Materialize(g, options);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    EXPECT_EQ(m->compiled_approx().Checksum(), golden.checksum) << golden.lambda;
    EXPECT_EQ(m->NumEdges(), golden.edges) << golden.lambda;
  }
}

TEST(VariationalTest, EdgeStatsExposeCovariances) {
  FactorGraph g = StrongChain(8, 6);
  auto m = Materialize(g, TestOptions(0.0));
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->edge_stats().size(), 5u);
  // Strong couplings (|w| = 1.2) produce clearly nonzero spin covariance.
  double max_abs = 0;
  for (const auto& e : m->edge_stats()) max_abs = std::max(max_abs, std::abs(e.covariance));
  EXPECT_GT(max_abs, 0.3);
}

}  // namespace
}  // namespace deepdive::incremental
