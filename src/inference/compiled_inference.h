#ifndef DEEPDIVE_INFERENCE_COMPILED_INFERENCE_H_
#define DEEPDIVE_INFERENCE_COMPILED_INFERENCE_H_

#include <cstddef>
#include <functional>

#include "factor/compiled_graph.h"
#include "factor/factor_graph.h"
#include "inference/gibbs.h"
#include "inference/replicated_gibbs.h"
#include "util/bitvector.h"

namespace deepdive::inference {

/// Whole-graph marginal estimation: compiles `graph` into the flat CSR image
/// and runs the compiled replicated/parallel/sequential sampler stack. The
/// compiled kernel preserves iteration and RNG order exactly, so for a fixed
/// seed the result is bit-identical to ReplicatedGibbsSampler on `graph`.
MarginalResult EstimateMarginalsAuto(const factor::FactorGraph& graph,
                                     const GibbsOptions& options);

/// Materialization chain on the compiled kernel; the emitted sample stream is
/// bit-identical to ReplicatedGibbsSampler::SampleChain on `graph`.
void SampleChainAuto(const factor::FactorGraph& graph, const GibbsOptions& options,
                     size_t count, size_t thin,
                     const std::function<bool(const BitVector&)>& on_sample);

/// FNV-1a hash of the marginals a fresh process must reproduce from a
/// compiled snapshot: EstimateMarginals on the compiled kernel with seed+1
/// and the given replica settings, evidence clamped to its label (as the
/// pipeline does). The identity line printed by `run --save-graph` (via the
/// serving stack's save_graph verb) and recomputed by `load-graph`; the CI
/// cold-start smoke diffs the two.
uint64_t CompiledMarginalsFingerprint(const factor::CompiledGraph& graph,
                                      uint64_t seed, size_t threads,
                                      size_t replicas, size_t sync_every);

}  // namespace deepdive::inference

#endif  // DEEPDIVE_INFERENCE_COMPILED_INFERENCE_H_
