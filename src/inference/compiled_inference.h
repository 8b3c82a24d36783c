#ifndef DEEPDIVE_INFERENCE_COMPILED_INFERENCE_H_
#define DEEPDIVE_INFERENCE_COMPILED_INFERENCE_H_

#include <cstddef>
#include <cstdint>

#include "factor/compiled_graph.h"
#include "factor/factor_graph.h"
#include "inference/gibbs.h"
#include "inference/parallelism.h"

namespace deepdive::inference {

/// Whole-graph marginal estimation: compiles `graph` into the flat CSR image
/// and runs the replicated/parallel/sequential sampler stack on it
/// (ReplicatedGibbsSampler with `parallelism`).
MarginalResult EstimateMarginalsAuto(const factor::FactorGraph& graph,
                                     const GibbsOptions& options,
                                     const Parallelism& parallelism = {});

/// FNV-1a hash of the marginals a fresh process must reproduce from a
/// compiled snapshot: EstimateMarginals on the compiled kernel with seed+1
/// and `parallelism`, evidence clamped to its label (as the pipeline does).
/// The identity line printed by `run --save-graph` (via the serving stack's
/// save_graph verb) and recomputed by `load-graph`; the CI cold-start smoke
/// diffs the two.
uint64_t CompiledMarginalsFingerprint(const factor::CompiledGraph& graph,
                                      uint64_t seed, const Parallelism& parallelism);

}  // namespace deepdive::inference

#endif  // DEEPDIVE_INFERENCE_COMPILED_INFERENCE_H_
