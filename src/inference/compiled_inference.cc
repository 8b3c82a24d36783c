#include "inference/compiled_inference.h"

#include "inference/replicated_gibbs.h"

namespace deepdive::inference {

MarginalResult EstimateMarginalsAuto(const factor::FactorGraph& graph,
                                     const GibbsOptions& options) {
  const factor::CompiledGraph compiled = factor::CompiledGraph::Compile(graph);
  ReplicatedGibbsSampler sampler(&compiled, options.num_replicas, options.num_threads);
  return sampler.EstimateMarginals(options);
}

uint64_t CompiledMarginalsFingerprint(const factor::CompiledGraph& graph,
                                      uint64_t seed, size_t threads,
                                      size_t replicas, size_t sync_every) {
  GibbsOptions gopts;
  gopts.seed = Rng::MixSeed(seed, /*stream=*/1);
  gopts.num_threads = threads;
  gopts.num_replicas = replicas;
  gopts.sync_every_sweeps = sync_every;
  ReplicatedGibbsSampler sampler(&graph, replicas, threads);
  std::vector<double> marginals = sampler.EstimateMarginals(gopts).marginals;
  for (factor::VarId v = 0; v < graph.NumVariables(); ++v) {
    const auto ev = graph.EvidenceValue(v);
    if (ev.has_value()) marginals[v] = *ev ? 1.0 : 0.0;
  }
  return factor::Fnv1aHash(marginals.data(),
                           marginals.size() * sizeof(double));
}

}  // namespace deepdive::inference
