#include <gtest/gtest.h>

#include <vector>

#include "factor/factor_graph.h"
#include "inference/learner.h"
#include "util/random.h"

namespace deepdive::inference {
namespace {

using factor::FactorGraph;
using factor::Semantics;
using factor::VarId;
using factor::WeightId;

/// Builds a logistic-regression-style graph (Example 2.6): objects with two
/// features; feature "pos" implies the class, feature "neg" implies not.
/// All objects are labeled (evidence) so the learner must recover weights
/// with the right signs.
struct PlantedModel {
  FactorGraph graph;
  WeightId w_pos = 0;
  WeightId w_neg = 0;
  std::vector<VarId> vars;
};

PlantedModel BuildPlanted(size_t objects, uint64_t seed) {
  PlantedModel m;
  Rng rng(seed);
  m.w_pos = m.graph.GetOrCreateTiedWeight("f/pos");
  m.w_neg = m.graph.GetOrCreateTiedWeight("f/neg");
  for (size_t i = 0; i < objects; ++i) {
    const VarId v = m.graph.AddVariable();
    m.vars.push_back(v);
    const bool label = rng.Bernoulli(0.5);
    // Feature assignment correlates deterministically with the label.
    m.graph.AddSimpleFactor(v, {}, label ? m.w_pos : m.w_neg, Semantics::kLinear);
    m.graph.SetEvidence(v, label);
  }
  return m;
}

/// EvidenceLoss after `epochs` epochs of `options` on a fresh planted model:
/// the loss a longer run from the same start and seed reaches at that epoch.
double LossAfterEpochs(size_t objects, uint64_t model_seed, LearnerOptions options,
                       size_t epochs, const Parallelism& parallelism = {}) {
  PlantedModel m = BuildPlanted(objects, model_seed);
  Learner learner(&m.graph, parallelism);
  options.epochs = epochs;
  learner.Learn(options);
  return learner.EvidenceLoss();
}

TEST(LearnerTest, RecoversPlantedSigns) {
  PlantedModel m = BuildPlanted(60, 3);
  Learner learner(&m.graph);
  LearnerOptions options;
  options.epochs = 80;
  options.learning_rate = 0.2;
  options.seed = 5;
  options.warmstart = false;
  const double initial_loss = learner.EvidenceLoss();
  learner.Learn(options);
  EXPECT_GT(m.graph.WeightValue(m.w_pos), 0.5);
  EXPECT_LT(m.graph.WeightValue(m.w_neg), -0.5);
  EXPECT_LT(learner.EvidenceLoss(), initial_loss);
}

TEST(LearnerTest, LossDecreasesOverEpochs) {
  PlantedModel m = BuildPlanted(60, 7);
  Learner learner(&m.graph);
  LearnerOptions options;
  options.epochs = 60;
  options.warmstart = false;
  options.seed = 11;
  const double initial_loss = learner.EvidenceLoss();
  const LearnStats stats = learner.Learn(options);
  ASSERT_EQ(stats.epochs_run, 60u);
  const double final_loss = learner.EvidenceLoss();
  // The loss after epoch i + 1 is that of an (i + 1)-epoch run.
  std::vector<double> epoch_losses;
  for (size_t epochs = 1; epochs <= 60; ++epochs) {
    epoch_losses.push_back(LossAfterEpochs(60, 7, options, epochs));
  }
  EXPECT_EQ(epoch_losses.back(), final_loss);
  // Compare early-epoch loss to late-epoch loss (allowing SGD noise; on
  // separable data both can converge to ~0 within the first epochs).
  double early = 0, late = 0;
  for (size_t i = 0; i < 5; ++i) early += epoch_losses[i];
  for (size_t i = 55; i < 60; ++i) late += epoch_losses[i];
  EXPECT_LE(late, early + 1e-6);
  EXPECT_LT(final_loss, initial_loss);
}

TEST(LearnerTest, NonLearnableWeightsUntouched) {
  PlantedModel m = BuildPlanted(20, 9);
  const WeightId fixed = m.graph.AddWeight(2.5, /*learnable=*/false, "fixed");
  m.graph.AddSimpleFactor(m.vars[0], {}, fixed);
  Learner learner(&m.graph);
  LearnerOptions options;
  options.epochs = 10;
  learner.Learn(options);
  EXPECT_DOUBLE_EQ(m.graph.WeightValue(fixed), 2.5);
}

TEST(LearnerTest, ColdStartResetsWeights) {
  PlantedModel m = BuildPlanted(20, 13);
  m.graph.SetWeightValue(m.w_pos, 99.0);
  Learner learner(&m.graph);
  LearnerOptions options;
  options.epochs = 0;  // reset only, no training
  options.warmstart = false;
  learner.Learn(options);
  EXPECT_DOUBLE_EQ(m.graph.WeightValue(m.w_pos), 0.0);
}

TEST(LearnerTest, WarmstartStartsFromLowerLoss) {
  // Train a model, then "re-learn" with warmstart vs cold start: the
  // warmstarted run must begin at (much) lower loss (Appendix B.3).
  PlantedModel m = BuildPlanted(60, 17);
  Learner learner(&m.graph);
  LearnerOptions train;
  train.epochs = 80;
  train.warmstart = false;
  train.seed = 19;
  learner.Learn(train);
  const double trained_loss = learner.EvidenceLoss();

  // A zero-epoch Learn leaves the weights at its starting point.
  LearnerOptions warm;
  warm.epochs = 0;
  warm.warmstart = true;
  learner.Learn(warm);
  EXPECT_DOUBLE_EQ(learner.EvidenceLoss(), trained_loss);

  LearnerOptions cold;
  cold.epochs = 0;
  cold.warmstart = false;
  learner.Learn(cold);
  EXPECT_GT(learner.EvidenceLoss(), trained_loss);
}

TEST(LearnerTest, ReplicatedChainsRecoverPlantedSigns) {
  // The replicated learner (R clamped + R free chains, replica-averaged
  // gradients) must learn the planted model like the two-chain path does.
  PlantedModel m = BuildPlanted(60, 31);
  Learner learner(&m.graph, {.num_threads = 6, .num_replicas = 3});
  LearnerOptions options;
  options.epochs = 80;
  options.learning_rate = 0.2;
  options.seed = 5;
  options.warmstart = false;
  const double initial_loss = learner.EvidenceLoss();
  learner.Learn(options);
  EXPECT_GT(m.graph.WeightValue(m.w_pos), 0.5);
  EXPECT_LT(m.graph.WeightValue(m.w_neg), -0.5);
  EXPECT_LT(learner.EvidenceLoss(), initial_loss);
}

TEST(LearnerTest, ReplicatedLearnerDeterministicAtOneWorkerPerChain) {
  // With num_threads <= 2 * num_replicas every chain runs on one worker, so
  // the whole procedure is deterministic for a fixed seed: two independent
  // runs over identical graphs must land on bit-identical weights.
  PlantedModel a = BuildPlanted(40, 37);
  PlantedModel b = BuildPlanted(40, 37);
  LearnerOptions options;
  options.epochs = 30;
  options.warmstart = false;
  options.seed = 41;
  const Parallelism parallelism{.num_threads = 4, .num_replicas = 2};
  const LearnStats sa = Learner(&a.graph, parallelism).Learn(options);
  const LearnStats sb = Learner(&b.graph, parallelism).Learn(options);
  ASSERT_EQ(a.graph.NumWeights(), b.graph.NumWeights());
  for (WeightId w = 0; w < a.graph.NumWeights(); ++w) {
    EXPECT_DOUBLE_EQ(a.graph.WeightValue(w), b.graph.WeightValue(w)) << "w " << w;
  }
  ASSERT_EQ(sa.epochs_run, sb.epochs_run);
  for (size_t e = 1; e <= sa.epochs_run; ++e) {
    EXPECT_DOUBLE_EQ(LossAfterEpochs(40, 37, options, e, parallelism),
                     LossAfterEpochs(40, 37, options, e, parallelism))
        << "epoch " << e;
  }
}

TEST(LearnerTest, GradientStyleAveragingAlsoLearns) {
  PlantedModel m = BuildPlanted(40, 23);
  Learner learner(&m.graph);
  LearnerOptions options;
  options.epochs = 25;
  options.sweeps_per_epoch = 5;  // GD-style averaged gradient
  options.warmstart = false;
  options.seed = 29;
  const double initial_loss = learner.EvidenceLoss();
  learner.Learn(options);
  EXPECT_LT(learner.EvidenceLoss(), initial_loss);
  EXPECT_GT(m.graph.WeightValue(m.w_pos), 0.0);
}

}  // namespace
}  // namespace deepdive::inference
