#ifndef DEEPDIVE_INCREMENTAL_OPTIMIZER_H_
#define DEEPDIVE_INCREMENTAL_OPTIMIZER_H_

#include <string>

#include "factor/graph_delta.h"

namespace deepdive::incremental {

enum class Strategy {
  kSampling,
  kVariational,
  kRerun,      // full Gibbs from scratch (the baseline executor)
};

const char* StrategyName(Strategy strategy);

struct OptimizerDecision {
  Strategy strategy = Strategy::kSampling;
  std::string reason;
};

/// Flags for the lesion studies of Section 4.3 (Figure 11).
struct OptimizerConfig {
  bool sampling_enabled = true;
  bool variational_enabled = true;
};

/// The rule-based materialization optimizer of Section 3.3:
///   1. update does not change the structure of the graph -> sampling;
///   2. update modifies the evidence                      -> variational;
///   3. update introduces new features (new learnable tied weights /
///      feature groups)                                   -> sampling;
///   4. out of samples                                    -> variational.
/// Disabled strategies fall through to the other one; if both are disabled
/// the decision is kRerun.
class RuleBasedOptimizer {
 public:
  explicit RuleBasedOptimizer(OptimizerConfig config = {}) : config_(config) {}

  OptimizerDecision Choose(const factor::FactorGraph& graph,
                           const factor::GraphDelta& delta,
                           bool samples_available) const;

 private:
  OptimizerDecision Pick(Strategy preferred, std::string reason,
                         bool samples_available) const;

  OptimizerConfig config_;
};

}  // namespace deepdive::incremental

#endif  // DEEPDIVE_INCREMENTAL_OPTIMIZER_H_
