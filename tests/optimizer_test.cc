#include <gtest/gtest.h>

#include "factor/factor_graph.h"
#include "incremental/optimizer.h"

namespace deepdive::incremental {
namespace {

using factor::FactorGraph;
using factor::GraphDelta;

struct Fixture {
  FactorGraph graph;
  factor::WeightId learnable_w;
  factor::WeightId fixed_w;
  factor::GroupId learnable_group;
  factor::GroupId fixed_group;

  Fixture() {
    graph.AddVariables(4);
    learnable_w = graph.AddWeight(0.0, true, "feature");
    fixed_w = graph.AddWeight(0.5, false, "rule");
    learnable_group = graph.AddSimpleFactor(0, {}, learnable_w);
    fixed_group = graph.AddSimpleFactor(1, {}, fixed_w);
  }
};

TEST(OptimizerTest, Rule1StructureUnchangedPicksSampling) {
  Fixture f;
  RuleBasedOptimizer opt;
  GraphDelta delta;  // empty: pure analysis
  auto d = opt.Choose(f.graph, delta, /*samples_available=*/true);
  EXPECT_EQ(d.strategy, Strategy::kSampling);

  delta.weight_changes.push_back({f.fixed_w, 0.5, 0.7});
  d = opt.Choose(f.graph, delta, true);
  EXPECT_EQ(d.strategy, Strategy::kSampling);
}

TEST(OptimizerTest, Rule2EvidencePicksVariational) {
  Fixture f;
  RuleBasedOptimizer opt;
  GraphDelta delta;
  delta.evidence_changes.push_back({0, std::nullopt, true});
  auto d = opt.Choose(f.graph, delta, true);
  EXPECT_EQ(d.strategy, Strategy::kVariational);
  EXPECT_NE(d.reason.find("evidence"), std::string::npos);
}

TEST(OptimizerTest, Rule3NewFeaturesPicksSampling) {
  Fixture f;
  RuleBasedOptimizer opt;
  GraphDelta delta;
  delta.new_groups.push_back(f.learnable_group);
  auto d = opt.Choose(f.graph, delta, true);
  EXPECT_EQ(d.strategy, Strategy::kSampling);
  EXPECT_NE(d.reason.find("new features"), std::string::npos);
}

TEST(OptimizerTest, Rule4OutOfSamplesPicksVariational) {
  Fixture f;
  RuleBasedOptimizer opt;
  GraphDelta delta;
  delta.new_groups.push_back(f.learnable_group);
  auto d = opt.Choose(f.graph, delta, /*samples_available=*/false);
  EXPECT_EQ(d.strategy, Strategy::kVariational);
  EXPECT_NE(d.reason.find("out of samples"), std::string::npos);
}

TEST(OptimizerTest, FixedWeightStructuralChangeGoesVariational) {
  Fixture f;
  RuleBasedOptimizer opt;
  GraphDelta delta;
  delta.new_groups.push_back(f.fixed_group);
  auto d = opt.Choose(f.graph, delta, true);
  EXPECT_EQ(d.strategy, Strategy::kVariational);
}

TEST(OptimizerTest, LesionSamplingDisabled) {
  Fixture f;
  OptimizerConfig config;
  config.sampling_enabled = false;
  RuleBasedOptimizer opt(config);
  GraphDelta delta;
  auto d = opt.Choose(f.graph, delta, true);
  EXPECT_EQ(d.strategy, Strategy::kVariational);
}

TEST(OptimizerTest, LesionVariationalDisabled) {
  Fixture f;
  OptimizerConfig config;
  config.variational_enabled = false;
  RuleBasedOptimizer opt(config);
  GraphDelta delta;
  delta.evidence_changes.push_back({0, std::nullopt, true});
  auto d = opt.Choose(f.graph, delta, /*samples_available=*/true);
  EXPECT_EQ(d.strategy, Strategy::kSampling);
  // ... and with no samples either, we must rerun.
  d = opt.Choose(f.graph, delta, /*samples_available=*/false);
  EXPECT_EQ(d.strategy, Strategy::kRerun);
}

TEST(OptimizerTest, BothDisabledFallsBackToRerun) {
  Fixture f;
  OptimizerConfig config;
  config.sampling_enabled = false;
  config.variational_enabled = false;
  RuleBasedOptimizer opt(config);
  GraphDelta delta;
  auto d = opt.Choose(f.graph, delta, true);
  EXPECT_EQ(d.strategy, Strategy::kRerun);
}

TEST(OptimizerTest, StrategyNames) {
  EXPECT_STREQ(StrategyName(Strategy::kSampling), "sampling");
  EXPECT_STREQ(StrategyName(Strategy::kVariational), "variational");
  EXPECT_STREQ(StrategyName(Strategy::kRerun), "rerun");
}

}  // namespace
}  // namespace deepdive::incremental
