#ifndef DEEPDIVE_INFERENCE_LEARNER_H_
#define DEEPDIVE_INFERENCE_LEARNER_H_

#include <cstdint>

#include "factor/factor_graph.h"
#include "inference/parallelism.h"

namespace deepdive::inference {

struct LearnerOptions {
  size_t epochs = 60;
  double learning_rate = 0.5;
  double decay = 0.96;        // multiplicative step decay per epoch
  /// L2 decay of every trained weight: learnable with an active group. A
  /// weight whose groups were all retracted is not trained and not decayed.
  double l2 = 1e-4;
  /// Sweeps of each chain per gradient estimate. 1 = stochastic (SGD);
  /// larger values average more sweeps per update (gradient-descent style).
  size_t sweeps_per_epoch = 1;
  /// Keep current weight values as the starting point (Appendix B.3).
  /// When false, learnable weights are reset to zero first.
  bool warmstart = true;
  uint64_t seed = 7;
};

struct LearnStats {
  size_t epochs_run = 0;
};

/// Weight learning over a FactorGraph: stochastic maximum likelihood
/// (persistent contrastive divergence), the standard Gibbs-based procedure
/// of Tuffy/DeepDive — maintain a "clamped" chain (evidence fixed to labels)
/// and a "free" chain (evidence resampled); the gradient of a weight is the
/// difference of its sufficient statistic sign(head) * g(n_sat) between the
/// chains. Only weights flagged learnable move. The chains run on a one-shot
/// compiled image of the graph, and the learned weights are written back
/// into the graph (single-writer: this learner, between inference runs).
/// Warmstart (keep previous weights) is the incremental-learning technique
/// evaluated in Figure 16.
///
/// Parallelism: with one replica, num_threads >= 2 runs the clamped and free
/// chains concurrently on a thread pool (each chain owns a decorrelated RNG
/// stream); 1 keeps the single-threaded interleaving, bit-identical for a
/// given seed. num_replicas >= 2 maintains R clamped and R free persistent
/// chains with private worlds and (seed, chain, worker)-keyed RNG streams;
/// each sweep's gradient is the replica-averaged difference of sufficient
/// statistics — the weight vector itself is the consensus model,
/// synchronized every sweep. That is deterministic for a fixed seed whenever
/// each chain runs on one worker (num_threads <= 2 * num_replicas).
class Learner {
 public:
  explicit Learner(factor::FactorGraph* graph, const Parallelism& parallelism = {});

  LearnStats Learn(const LearnerOptions& options);

  /// Negative pseudo-log-likelihood of the evidence variables under the
  /// graph's current weights, evaluated on a compiled image of it with
  /// evidence clamped: sum over e in E of -log sigma(+/- logodds(e)). The
  /// learning curves of Figures 16/17 report this; Learn does not evaluate
  /// it. A k-epoch Learn is a prefix of a longer one from the same start and
  /// seed, so this after k epochs is the longer run's loss at epoch k.
  double EvidenceLoss() const;

 private:
  factor::FactorGraph* graph_;
  Parallelism parallelism_;
};

}  // namespace deepdive::inference

#endif  // DEEPDIVE_INFERENCE_LEARNER_H_
