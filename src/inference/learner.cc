#include "inference/learner.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "factor/compiled_graph.h"
#include "inference/gibbs.h"
#include "inference/replicated_gibbs.h"
#include "inference/world.h"
#include "util/thread_pool.h"

namespace deepdive::inference {

using factor::CompiledGraph;
using factor::FactorGraph;
using factor::VarId;
using factor::WeightId;

namespace {

double CompiledEvidenceLoss(const CompiledGraph& graph) {
  // Clamped world: evidence at labels, query variables at their conditional
  // mode given an all-false start (cheap deterministic proxy; the loss is
  // used for relative learning curves, not as the training objective).
  World world(&graph);
  GibbsSampler sampler(&graph);
  GibbsScratch scratch;
  double loss = 0.0;
  size_t count = 0;
  for (VarId v = 0; v < graph.NumVariables(); ++v) {
    const auto ev = graph.EvidenceValue(v);
    if (!ev.has_value()) continue;
    const double log_odds = sampler.ConditionalLogOdds(world, v, &scratch);
    // -log P(label | rest)
    const double z = *ev ? log_odds : -log_odds;
    // log(1 + e^-z), numerically stable.
    loss += z > 0 ? std::log1p(std::exp(-z)) : -z + std::log1p(std::exp(z));
    ++count;
  }
  return count > 0 ? loss / static_cast<double>(count) : 0.0;
}

/// The gradient step's callback: advances every persistent chain one sweep
/// and adds that sweep's sufficient-statistic differences for the `trained`
/// weights into the gradient buffer.
using AccumulateSweep =
    std::function<void(const std::vector<WeightId>& trained, std::vector<double>* grad)>;

/// The shared SGD scaffolding (weight reset, per-epoch gradient averaging
/// + L2 step, learning-rate decay): `accumulate_sweep` is the only part that
/// differs between the two-chain and replicated executions. Only learnable
/// weights with an active group are trained; one without (all its groups
/// retracted) has no gradient and is left alone, without L2 decay.
LearnStats RunEpochs(CompiledGraph* graph, const LearnerOptions& options,
                     const AccumulateSweep& accumulate_sweep) {
  LearnStats stats;
  if (!options.warmstart) {
    for (WeightId w = 0; w < graph->NumWeights(); ++w) {
      if (graph->WeightLearnable(w)) graph->SetWeightValue(w, 0.0);
    }
  }
  std::vector<WeightId> trained;
  for (WeightId w = 0; w < graph->NumWeights(); ++w) {
    if (graph->WeightLearnable(w) && !graph->GroupsForWeight(w).empty()) trained.push_back(w);
  }

  std::vector<double> grad(graph->NumWeights(), 0.0);
  double lr = options.learning_rate;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    std::fill(grad.begin(), grad.end(), 0.0);
    const size_t sweeps = std::max<size_t>(1, options.sweeps_per_epoch);
    for (size_t s = 0; s < sweeps; ++s) accumulate_sweep(trained, &grad);
    for (WeightId w : trained) {
      const double g = grad[w] / static_cast<double>(sweeps);
      const double updated =
          graph->WeightValue(w) + lr * (g - options.l2 * graph->WeightValue(w));
      graph->SetWeightValue(w, updated);
    }
    lr *= options.decay;
    ++stats.epochs_run;
  }
  return stats;
}

LearnStats LearnTwoChains(CompiledGraph* graph, const LearnerOptions& options,
                          size_t num_threads) {
  GibbsSampler sampler(graph);
  Rng rng(options.seed);

  // Persistent chains.
  World clamped(graph);
  World free(graph);
  clamped.InitValues(&rng, /*random_init=*/true);
  free.InitValues(&rng, /*random_init=*/true);

  // The two chains are independent given the weights, so with num_threads
  // >= 2 each epoch's sweeps run concurrently (the sampler is stateless and
  // shared; each chain owns its world and RNG stream). The pool's Wait()
  // inside Submit/Wait pairs orders the sweeps before WeightFeature reads.
  const bool parallel_chains =
      (num_threads == 0 ? ThreadPool::DefaultThreads() : num_threads) >= 2;
  ThreadPool pool(parallel_chains ? 2 : 1);
  Rng free_rng(Rng::MixSeed(options.seed, 1));

  return RunEpochs(graph, options, [&](const std::vector<WeightId>& trained,
                                      std::vector<double>* grad) {
    if (parallel_chains) {
      pool.Submit([&] { sampler.Sweep(&clamped, &rng, /*sample_evidence=*/false); });
      pool.Submit([&] { sampler.Sweep(&free, &free_rng, /*sample_evidence=*/true); });
      pool.Wait();
    } else {
      sampler.Sweep(&clamped, &rng, /*sample_evidence=*/false);
      sampler.Sweep(&free, &rng, /*sample_evidence=*/true);
    }
    for (WeightId w : trained) {
      (*grad)[w] += clamped.WeightFeature(w) - free.WeightFeature(w);
    }
  });
}

/// num_replicas >= 2: R clamped + R free persistent chains with private
/// worlds, swept concurrently through a ReplicatedGibbsSampler; gradients
/// are replica-averaged every sweep (the shared weight vector is the
/// consensus model of DimmWitted-style model averaging).
LearnStats LearnReplicated(CompiledGraph* graph, const LearnerOptions& options,
                           const Parallelism& parallelism) {
  // Chain 2r is clamped replica r, chain 2r + 1 is free replica r. Every
  // chain owns a private world and (seed, chain, worker)-keyed streams; the
  // replicated sampler's pool runs all 2R chains concurrently, each chain's
  // Hogwild shards on its own replica sampler. With one worker per chain
  // every chain is internally sequential, so the whole procedure is
  // deterministic for a fixed seed.
  const size_t replicas = parallelism.num_replicas;
  const size_t chains = 2 * replicas;
  ReplicatedGibbsSampler replicated(
      graph, {.num_threads = parallelism.num_threads, .num_replicas = chains});
  std::vector<std::unique_ptr<AtomicWorld>> worlds;
  std::vector<std::vector<Rng>> rngs;
  worlds.reserve(chains);
  rngs.reserve(chains);
  for (size_t c = 0; c < chains; ++c) {
    worlds.push_back(std::make_unique<AtomicWorld>(graph));
    rngs.push_back(replicated.replica(c).MakeRngStreams(options.seed, c));
  }
  replicated.ForEachReplica([&](size_t c) {
    Rng init_rng(ReplicatedGibbsSampler::AuxSeed(options.seed, c,
                                                 ReplicatedGibbsSampler::kInitStream));
    worlds[c]->InitValues(&init_rng, /*random_init=*/true);
  });

  return RunEpochs(graph, options, [&](const std::vector<WeightId>& trained,
                                      std::vector<double>* grad) {
    replicated.ForEachReplica([&](size_t c) {
      replicated.replica(c).Sweep(worlds[c].get(), &rngs[c],
                                  /*sample_evidence=*/(c & 1) != 0);
    });
    // Replica-averaged gradient: the weight vector is the consensus model,
    // synchronized across replicas at every step.
    for (WeightId w : trained) {
      double clamped_f = 0.0, free_f = 0.0;
      for (size_t r = 0; r < replicas; ++r) {
        clamped_f += worlds[2 * r]->WeightFeature(w);
        free_f += worlds[2 * r + 1]->WeightFeature(w);
      }
      (*grad)[w] += (clamped_f - free_f) / static_cast<double>(replicas);
    }
  });
}

}  // namespace

Learner::Learner(FactorGraph* graph, const Parallelism& parallelism)
    : graph_(graph), parallelism_(parallelism) {}

double Learner::EvidenceLoss() const {
  return CompiledEvidenceLoss(CompiledGraph::Compile(*graph_));
}

LearnStats Learner::Learn(const LearnerOptions& options) {
  // Compile once, learn on the flat image, write the weights back.
  CompiledGraph compiled = CompiledGraph::Compile(*graph_);
  LearnStats stats = parallelism_.num_replicas >= 2
                         ? LearnReplicated(&compiled, options, parallelism_)
                         : LearnTwoChains(&compiled, options, parallelism_.num_threads);
  for (WeightId w = 0; w < graph_->NumWeights(); ++w) {
    graph_->SetWeightValue(w, compiled.WeightValue(w));
  }
  return stats;
}

}  // namespace deepdive::inference
