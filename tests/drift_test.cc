// Appendix B.3 / B.4: warmstart incremental learning, with and without
// concept drift.
#include <gtest/gtest.h>

#include "factor/compiled_graph.h"
#include "inference/learner.h"
#include "kbc/drift.h"

namespace deepdive::kbc {
namespace {

inference::LearnerOptions TrainOptions(bool warmstart, size_t epochs) {
  inference::LearnerOptions options;
  options.epochs = epochs;
  options.warmstart = warmstart;
  options.learning_rate = 0.02;
  // Moderate regularization: an overfit stage-1 model saturates its weights
  // and stalls later contrastive-divergence updates.
  options.l2 = 0.05;
  options.seed = 17;
  return options;
}

TEST(DriftLearningTest, WarmstartReachesLowLossFasterAfterMoreLabels) {
  DriftOptions dopts;
  dopts.num_docs = 240;
  dopts.drift_point = 2.0;  // no drift in this test
  const auto docs = GenerateDriftStream(dopts);

  // Stage 1: train on 10% of labels.
  DriftModel warm = BuildDriftModel(docs, 0.1);
  inference::Learner(&warm.graph).Learn(TrainOptions(false, 40));

  // Stage 2: labels grow to 30%; warmstart vs cold.
  ExtendTraining(&warm, 0.3);
  DriftModel cold = BuildDriftModel(docs, 0.3);

  const double warm_loss_at_start = TestLoss(warm);
  const double cold_loss_at_start = TestLoss(cold);
  EXPECT_LT(warm_loss_at_start, cold_loss_at_start);

  // After a few incremental epochs the warmstarted model is at least as
  // good as a cold model given the same budget.
  inference::Learner(&warm.graph).Learn(TrainOptions(true, 10));
  inference::Learner(&cold.graph).Learn(TrainOptions(false, 10));
  EXPECT_LE(TestLoss(warm), TestLoss(cold) + 0.05);
}

TEST(DriftLearningTest, WarmstartStillHelpsUnderDrift) {
  DriftOptions dopts;
  dopts.num_docs = 240;
  dopts.drift_point = 0.2;  // drift happens inside the training prefix
  const auto docs = GenerateDriftStream(dopts);

  DriftModel warm = BuildDriftModel(docs, 0.1);
  inference::Learner(&warm.graph).Learn(TrainOptions(false, 40));
  ExtendTraining(&warm, 0.3);
  DriftModel cold = BuildDriftModel(docs, 0.3);

  // Both must converge to (roughly) the same loss with enough epochs —
  // the Appendix B.4 finding that drift does not break incremental
  // learning, it only shrinks the benefit.
  inference::Learner(&warm.graph).Learn(TrainOptions(true, 60));
  inference::Learner(&cold.graph).Learn(TrainOptions(false, 60));
  EXPECT_NEAR(TestLoss(warm), TestLoss(cold), 0.15);
}

TEST(DriftLearningTest, TrainingReducesTestLoss) {
  DriftOptions dopts;
  dopts.num_docs = 200;
  dopts.drift_point = 2.0;
  const auto docs = GenerateDriftStream(dopts);
  DriftModel model = BuildDriftModel(docs, 0.5);
  const double before = TestLoss(model);
  inference::Learner(&model.graph).Learn(TrainOptions(false, 50));
  const double after = TestLoss(model);
  EXPECT_LT(after, before);
  EXPECT_LT(after, 0.6);
}

// A golden value recorded where TestLoss evaluated the FactorGraph itself;
// the compiled image it evaluates now must give the same bits.
TEST(DriftLearningTest, TestLossMatchesGoldenValue) {
  DriftOptions dopts;
  dopts.num_docs = 120;
  dopts.seed = 5;
  DriftModel model = BuildDriftModel(GenerateDriftStream(dopts), 0.5);
  for (factor::WeightId w = 0; w < model.graph.NumWeights(); ++w) {
    model.graph.SetWeightValue(w, 0.1 * (static_cast<double>(w % 7) - 3.0));
  }
  const double loss = TestLoss(model);
  EXPECT_EQ(factor::Fnv1aHash(&loss, sizeof loss), 0x5ee62cbca15b57f3ULL) << loss;
}

}  // namespace
}  // namespace deepdive::kbc
