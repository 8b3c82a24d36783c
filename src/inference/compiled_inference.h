#ifndef DEEPDIVE_INFERENCE_COMPILED_INFERENCE_H_
#define DEEPDIVE_INFERENCE_COMPILED_INFERENCE_H_

#include <cstddef>
#include <cstdint>

#include "factor/compiled_graph.h"
#include "factor/factor_graph.h"
#include "inference/gibbs.h"

namespace deepdive::inference {

/// Whole-graph marginal estimation: compiles `graph` into the flat CSR image
/// and runs the replicated/parallel/sequential sampler stack on it
/// (ReplicatedGibbsSampler with the options' replica and thread counts).
MarginalResult EstimateMarginalsAuto(const factor::FactorGraph& graph,
                                     const GibbsOptions& options);

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
