#include "inference/exact.h"

#include <array>
#include <bit>
#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace deepdive::inference {

using factor::VarId;

StatusOr<ExactResult> ExactInference(const factor::FactorGraph& graph,
                                     size_t max_free_vars) {
  ExactResult result;
  for (VarId v = 0; v < graph.NumVariables(); ++v) {
    if (!graph.IsEvidence(v)) result.free_vars.push_back(v);
  }
  const size_t k = result.free_vars.size();
  if (k > max_free_vars) {
    return Status::OutOfRange(
        StrFormat("%zu free variables exceed the enumeration limit %zu", k,
                  max_free_vars));
  }

  std::vector<uint8_t> values(graph.NumVariables(), 0);
  for (VarId v = 0; v < graph.NumVariables(); ++v) {
    const auto ev = graph.EvidenceValue(v);
    if (ev.has_value()) values[v] = *ev ? 1 : 0;
  }
  auto value_of = [&](VarId v) { return values[v] != 0; };

  const uint64_t num_worlds = uint64_t{1} << k;
  std::vector<double> log_weights(num_worlds);
  double max_log = -1e300;
  for (uint64_t world = 0; world < num_worlds; ++world) {
    for (size_t i = 0; i < k; ++i) {
      values[result.free_vars[i]] = (world >> i) & 1;
    }
    const double lw = graph.TotalLogWeight(value_of);
    log_weights[world] = lw;
    if (lw > max_log) max_log = lw;
  }

  double z = 0.0;
  for (double lw : log_weights) z += std::exp(lw - max_log);
  result.log_partition = max_log + std::log(z);

  result.world_probs.resize(num_worlds);
  result.marginals.assign(graph.NumVariables(), 0.0);
  for (VarId v = 0; v < graph.NumVariables(); ++v) {
    const auto ev = graph.EvidenceValue(v);
    if (ev.has_value()) result.marginals[v] = *ev ? 1.0 : 0.0;
  }
  for (uint64_t world = 0; world < num_worlds; ++world) {
    const double p = std::exp(log_weights[world] - result.log_partition);
    result.world_probs[world] = p;
    for (size_t i = 0; i < k; ++i) {
      if ((world >> i) & 1) result.marginals[result.free_vars[i]] += p;
    }
  }
  return result;
}

void EnumerateMarginals(World* world, std::span<const VarId> vars,
                        GibbsScratch* scratch, std::vector<double>* marginals,
                        std::span<double> world_probs) {
  const factor::CompiledGraph& graph = world->graph();
  const size_t n = vars.size();
  if (n == 0) return;
  DD_CHECK_LT(n, 64u);
  if (!world_probs.empty()) DD_CHECK_EQ(world_probs.size(), uint64_t{1} << n);
  if (n == 1) {
    const double log_odds = detail::ConditionalLogOddsImpl(graph, *world, vars[0], scratch);
    const double p = 1.0 / (1.0 + std::exp(-log_odds));
    (*marginals)[vars[0]] = p;
    if (!world_probs.empty()) {
      world_probs[0] = 1.0 - p;
      world_probs[1] = p;
    }
    return;
  }
  // Bit i of `values` is vars[i]'s current value. `ones[i]` and `z` sum
  // exp(lw - max_lw) over the worlds visited so far with vars[i] = 1 and over
  // all of them; both are rescaled whenever a world raises max_lw. The table,
  // when asked for, keeps each world's lw until the walk knows the final
  // max_lw and z.
  uint64_t values = 0;
  for (size_t i = 0; i < n; ++i) {
    if (world->value(vars[i])) values |= uint64_t{1} << i;
  }
  std::array<double, 64> ones{};
  for (uint64_t m = values; m != 0; m &= m - 1) ones[std::countr_zero(m)] = 1.0;
  double z = 1.0;
  double lw = 0.0;
  double max_lw = 0.0;
  if (!world_probs.empty()) world_probs[values] = 0.0;
  const uint64_t num_worlds = uint64_t{1} << n;
  for (uint64_t k = 1; k < num_worlds; ++k) {
    // Gray code k ^ (k >> 1) differs from its predecessor in bit ctz(k).
    const int i = std::countr_zero(k);
    const VarId v = vars[i];
    const bool cur = world->value(v);
    const double log_odds = detail::ConditionalLogOddsImpl(graph, *world, v, scratch);
    lw += cur ? -log_odds : log_odds;
    world->Flip(v, !cur);
    values ^= uint64_t{1} << i;
    if (!world_probs.empty()) world_probs[values] = lw;
    if (lw > max_lw) {
      const double scale = std::exp(max_lw - lw);
      z *= scale;
      for (size_t j = 0; j < n; ++j) ones[j] *= scale;
      max_lw = lw;
    }
    const double p = std::exp(lw - max_lw);
    z += p;
    for (uint64_t m = values; m != 0; m &= m - 1) ones[std::countr_zero(m)] += p;
  }
  // The walk ends at Gray code 2^(n-1): only the last variable differs.
  world->Flip(vars[n - 1], !world->value(vars[n - 1]));
  for (size_t i = 0; i < n; ++i) (*marginals)[vars[i]] = ones[i] / z;
  for (double& entry : world_probs) entry = std::exp(entry - max_lw) / z;
}

}  // namespace deepdive::inference
