#ifndef DEEPDIVE_INFERENCE_EXACT_H_
#define DEEPDIVE_INFERENCE_EXACT_H_

#include <span>
#include <vector>

#include "factor/factor_graph.h"
#include "inference/gibbs.h"
#include "inference/world.h"
#include "util/status.h"

namespace deepdive::inference {

/// Exact result of full world enumeration.
struct ExactResult {
  std::vector<double> marginals;      // P(v = 1), evidence vars at {0,1}
  double log_partition = 0.0;         // log Z (over query variables)
  /// Probability of each world, indexed by the bit pattern of the
  /// *non-evidence* variables (bit i = i-th non-evidence variable).
  std::vector<double> world_probs;
  std::vector<factor::VarId> free_vars;  // bit order of world_probs
};

/// Enumerates all assignments of the non-evidence variables. #P-hard in
/// general; usable up to ~24 free variables. This is both the correctness
/// oracle for the samplers and the "strawman" materialization's ground truth.
StatusOr<ExactResult> ExactInference(const factor::FactorGraph& graph,
                                     size_t max_free_vars = 24);

/// Exact marginals of `vars` (fewer than 64 distinct variables) with every
/// other variable held at its value in `world`: writes P(v = 1) to
/// (*marginals)[v] for each v in `vars`. Walks the 2^n assignments of `vars`
/// in Gray-code order on the compiled world, so each step flips one variable
/// and the flipped variable's conditional log-odds (the Gibbs kernel's) is
/// the step's log-weight change. Log-weights are relative to the start world
/// and normalised by their running maximum before exp. A single variable
/// takes one conditional. `world` ends with the values and statistics it
/// started with. Uses no RNG.
///
/// When `world_probs` is non-empty it must hold 2^n entries, and the same
/// walk also writes the probability of every assignment of `vars` to it,
/// indexed by its bit pattern (bit i is vars[i]'s value).
void EnumerateMarginals(World* world, std::span<const factor::VarId> vars,
                        GibbsScratch* scratch, std::vector<double>* marginals,
                        std::span<double> world_probs = {});

}  // namespace deepdive::inference

#endif  // DEEPDIVE_INFERENCE_EXACT_H_
