#include "incremental/strawman.h"

#include <cmath>

#include "util/string_util.h"

namespace deepdive::incremental {

using factor::FactorGraph;
using factor::GraphDelta;
using factor::VarId;

StatusOr<StrawmanMaterialization> StrawmanMaterialization::Materialize(
    const FactorGraph& graph, size_t max_free_vars) {
  StrawmanMaterialization m;
  m.evidence_values_.assign(graph.NumVariables(), 0);
  for (VarId v = 0; v < graph.NumVariables(); ++v) {
    const auto ev = graph.EvidenceValue(v);
    if (ev.has_value()) {
      m.evidence_values_[v] = *ev ? 1 : 0;
    } else {
      m.free_vars_.push_back(v);
    }
  }
  const size_t k = m.free_vars_.size();
  if (k > max_free_vars) {
    return Status::OutOfRange(StrFormat(
        "strawman materialization of %zu free variables needs 2^%zu worlds", k, k));
  }

  std::vector<uint8_t> values = m.evidence_values_;
  auto value_of = [&](VarId v) { return values[v] != 0; };
  const uint64_t num_worlds = uint64_t{1} << k;
  m.log_weights_.resize(num_worlds);
  for (uint64_t world = 0; world < num_worlds; ++world) {
    for (size_t i = 0; i < k; ++i) values[m.free_vars_[i]] = (world >> i) & 1;
    m.log_weights_[world] = graph.TotalLogWeight(value_of);
  }

  // Original marginals (also validates normalization).
  double max_log = -1e300;
  for (double lw : m.log_weights_) max_log = std::max(max_log, lw);
  double z = 0.0;
  for (double lw : m.log_weights_) z += std::exp(lw - max_log);
  m.original_marginals_.assign(graph.NumVariables(), 0.0);
  for (VarId v = 0; v < graph.NumVariables(); ++v) {
    if (graph.EvidenceValue(v).has_value()) {
      m.original_marginals_[v] = m.evidence_values_[v];
    }
  }
  for (uint64_t world = 0; world < num_worlds; ++world) {
    const double p = std::exp(m.log_weights_[world] - max_log) / z;
    for (size_t i = 0; i < k; ++i) {
      if ((world >> i) & 1) m.original_marginals_[m.free_vars_[i]] += p;
    }
  }
  return m;
}

StatusOr<std::vector<double>> StrawmanMaterialization::InferUpdated(
    const FactorGraph& graph, const GraphDelta& delta) const {
  if (graph.NumVariables() != evidence_values_.size()) {
    return Status::FailedPrecondition(
        "strawman cannot cover variables added after materialization");
  }
  const size_t k = free_vars_.size();
  const uint64_t num_worlds = uint64_t{1} << k;

  BitVector values(evidence_values_.size());
  for (VarId v = 0; v < values.size(); ++v) values.Set(v, evidence_values_[v] != 0);
  const factor::DeltaRatio ratio(graph, delta);

  std::vector<double> new_log(num_worlds);
  double max_log = -1e300;
  for (uint64_t world = 0; world < num_worlds; ++world) {
    for (size_t i = 0; i < k; ++i) values.Set(free_vars_[i], (world >> i) & 1);
    const double r = ratio(values);
    new_log[world] = log_weights_[world] + r;
    if (new_log[world] > max_log) max_log = new_log[world];
  }
  if (!std::isfinite(max_log)) {
    return Status::Internal("updated distribution has empty support");
  }
  double z = 0.0;
  for (double lw : new_log) z += std::exp(lw - max_log);

  // Enumerated (free-at-materialization) variables accumulate world mass —
  // including any that acquired evidence later (their conflicting worlds
  // carry zero mass). Only variables fixed at materialization time are
  // pre-set from their stored values.
  std::vector<bool> enumerated(evidence_values_.size(), false);
  for (VarId v : free_vars_) enumerated[v] = true;
  std::vector<double> marginals(evidence_values_.size(), 0.0);
  for (VarId v = 0; v < marginals.size(); ++v) {
    if (!enumerated[v]) marginals[v] = evidence_values_[v] ? 1.0 : 0.0;
  }
  for (uint64_t world = 0; world < num_worlds; ++world) {
    const double p = std::exp(new_log[world] - max_log) / z;
    for (size_t i = 0; i < k; ++i) {
      if ((world >> i) & 1) marginals[free_vars_[i]] += p;
    }
  }
  return marginals;
}

}  // namespace deepdive::incremental
