#include "inference/compiled_inference.h"

#include "inference/replicated_gibbs.h"

namespace deepdive::inference {

MarginalResult EstimateMarginalsAuto(const factor::FactorGraph& graph,
                                     const GibbsOptions& options,
                                     const Parallelism& parallelism) {
  const factor::CompiledGraph compiled = factor::CompiledGraph::Compile(graph);
  ReplicatedGibbsSampler sampler(&compiled, parallelism);
  return sampler.EstimateMarginals(options);
}

uint64_t CompiledMarginalsFingerprint(const factor::CompiledGraph& graph,
                                      uint64_t seed, const Parallelism& parallelism) {
  GibbsOptions gopts;
  gopts.seed = Rng::MixSeed(seed, /*stream=*/1);
  ReplicatedGibbsSampler sampler(&graph, parallelism);
  std::vector<double> marginals = sampler.EstimateMarginals(gopts).marginals;
  for (factor::VarId v = 0; v < graph.NumVariables(); ++v) {
    const auto ev = graph.EvidenceValue(v);
    if (ev.has_value()) marginals[v] = *ev ? 1.0 : 0.0;
  }
  return factor::Fnv1aHash(marginals.data(),
                           marginals.size() * sizeof(double));
}

}  // namespace deepdive::inference
