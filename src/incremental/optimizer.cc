#include "incremental/optimizer.h"

namespace deepdive::incremental {

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kSampling:
      return "sampling";
    case Strategy::kVariational:
      return "variational";
    case Strategy::kRerun:
      return "rerun";
  }
  return "?";
}

OptimizerDecision RuleBasedOptimizer::Pick(Strategy preferred, std::string reason,
                                           bool samples_available) const {
  // Rule 4: if the preferred strategy is sampling but the store is dry,
  // switch to variational.
  if (preferred == Strategy::kSampling && !samples_available) {
    preferred = Strategy::kVariational;
    reason += " (out of samples)";
  }
  if (preferred == Strategy::kSampling && !config_.sampling_enabled) {
    preferred = config_.variational_enabled ? Strategy::kVariational : Strategy::kRerun;
    reason += " (sampling disabled)";
  }
  if (preferred == Strategy::kVariational && !config_.variational_enabled) {
    preferred = (config_.sampling_enabled && samples_available) ? Strategy::kSampling
                                                                : Strategy::kRerun;
    reason += " (variational disabled)";
  }
  return OptimizerDecision{preferred, std::move(reason)};
}

OptimizerDecision RuleBasedOptimizer::Choose(const factor::FactorGraph& graph,
                                             const factor::GraphDelta& delta,
                                             bool samples_available) const {
  // Rule 1: structure unchanged -> sampling (acceptance stays high; for a
  // pure analysis query the acceptance rate is 100%).
  if (!delta.structure_changed() && !delta.evidence_changed()) {
    return Pick(Strategy::kSampling, "structure unchanged", samples_available);
  }
  // Rule 2: evidence modified -> variational (new labels collapse the MH
  // acceptance rate).
  if (delta.evidence_changed()) {
    return Pick(Strategy::kVariational, "evidence modified", samples_available);
  }
  // Rule 3: new features (new learnable weights on new groups) -> sampling.
  bool new_features = false;
  for (factor::GroupId g : delta.new_groups) {
    if (graph.weight(graph.group(g).weight).learnable) {
      new_features = true;
      break;
    }
  }
  if (new_features) {
    return Pick(Strategy::kSampling, "new features", samples_available);
  }
  // Other structural changes (fixed-weight inference rules like I1) add
  // many correlated factors at once; the distribution shifts enough that MH
  // acceptance collapses, so go straight to the variational approach.
  return Pick(Strategy::kVariational, "structural change (inference rule)",
              samples_available);
}

}  // namespace deepdive::incremental
