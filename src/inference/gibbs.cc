#include "inference/gibbs.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace deepdive::inference {

using factor::VarId;

GibbsSampler::GibbsSampler(const factor::CompiledGraph* graph) : graph_(graph) {}

double GibbsSampler::ConditionalLogOdds(const World& world, VarId v,
                                        GibbsScratch* scratch) const {
  return detail::ConditionalLogOddsImpl(*graph_, world, v, scratch);
}

double GibbsSampler::ConditionalLogOdds(const World& world, VarId v) const {
  GibbsScratch scratch;
  return detail::ConditionalLogOddsImpl(*graph_, world, v, &scratch);
}

size_t GibbsSampler::Sweep(World* world, Rng* rng, bool sample_evidence) const {
  GibbsScratch scratch;
  return detail::SweepRangeImpl(*graph_, world, rng, &scratch, nullptr, 0,
                                graph_->NumVariables(), sample_evidence);
}

size_t GibbsSampler::SweepVars(World* world, Rng* rng,
                               const std::vector<VarId>& vars) const {
  GibbsScratch scratch;
  return detail::SweepRangeImpl(*graph_, world, rng, &scratch, &vars, 0, vars.size(),
                                /*sample_evidence=*/false);
}

MarginalResult GibbsSampler::EstimateMarginals(const GibbsOptions& options) const {
  World world(graph_);
  Rng rng(options.seed);
  world.InitValues(&rng, options.random_init);
  return EstimateMarginals(options, &world, &rng);
}

MarginalResult GibbsSampler::EstimateMarginals(const GibbsOptions& options,
                                               World* world, Rng* rng) const {
  MarginalResult result;
  result.marginals.assign(graph_->NumVariables(), 0.0);
  for (size_t i = 0; i < options.burn_in_sweeps; ++i) {
    result.flips += Sweep(world, rng, options.sample_evidence);
    ++result.sweeps;
  }
  std::vector<uint32_t> counts(graph_->NumVariables(), 0);
  for (size_t i = 0; i < options.sample_sweeps; ++i) {
    result.flips += Sweep(world, rng, options.sample_evidence);
    ++result.sweeps;
    for (VarId v = 0; v < graph_->NumVariables(); ++v) {
      counts[v] += world->value(v) ? 1 : 0;
    }
  }
  const double denom = options.sample_sweeps > 0
                           ? static_cast<double>(options.sample_sweeps)
                           : 1.0;
  for (VarId v = 0; v < graph_->NumVariables(); ++v) {
    result.marginals[v] = counts[v] / denom;
  }
  return result;
}

CompiledGibbsChain::CompiledGibbsChain(World world)
    : graph_(&world.graph()), world_(std::move(world)) {
  const size_t n = graph_->NumVariables();
  p1_.assign(n, 0.0);
  state_.assign(n, kDirty);
  // Two passes over the groups within the cap: count each occurrence's
  // co-members (an upper bound on its dependents), then fill; a variable
  // occurring twice in a group lands in its own list.
  std::vector<VarId> members;
  auto for_each_cached_group = [&](auto&& visit) {
    for (factor::GroupId g = 0; g < graph_->NumGroups(); ++g) {
      members.assign(1, graph_->group(g).head);
      for (factor::ClauseId c : graph_->GroupClauses(g)) {
        for (const factor::CompiledLiteral& lit : graph_->ClauseLiterals(c)) {
          members.push_back(lit.var);
        }
      }
      if (members.size() > kMaxCachedGroupSize) {
        for (VarId u : members) state_[u] |= kUncached;
      } else {
        visit();
      }
    }
  };
  dependent_offsets_.assign(n + 1, 0);
  for_each_cached_group([&] {
    for (VarId u : members) dependent_offsets_[u + 1] += members.size() - 1;
  });
  for (size_t v = 0; v < n; ++v) dependent_offsets_[v + 1] += dependent_offsets_[v];
  dependents_.resize(dependent_offsets_[n]);
  std::vector<size_t> fill(dependent_offsets_.begin(), dependent_offsets_.end() - 1);
  for_each_cached_group([&] {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = 0; j < members.size(); ++j) {
        if (j != i) dependents_[fill[members[i]]++] = members[j];
      }
    }
  });
  // Sort and deduplicate each list, compacting leftwards in place.
  size_t out = 0;
  for (size_t v = 0; v < n; ++v) {
    const auto first = dependents_.begin() + static_cast<ptrdiff_t>(dependent_offsets_[v]);
    auto last = dependents_.begin() + static_cast<ptrdiff_t>(dependent_offsets_[v + 1]);
    std::sort(first, last);
    last = std::unique(first, last);
    dependent_offsets_[v] = out;
    for (auto it = first; it != last; ++it) dependents_[out++] = *it;
  }
  dependent_offsets_[n] = out;
  dependents_.resize(out);
}

size_t CompiledGibbsChain::SweepVars(Rng* rng, const std::vector<VarId>& vars) {
  size_t flips = 0;
  for (VarId v : vars) {
    if (graph_->IsEvidence(v)) continue;
    ++visits_;
    if (state_[v] != 0) {
      const double log_odds = detail::ConditionalLogOddsImpl(*graph_, world_, v, &scratch_);
      p1_[v] = 1.0 / (1.0 + std::exp(-log_odds));
      state_[v] &= kUncached;
      ++conditionals_evaluated_;
    }
    const bool new_value = rng->Bernoulli(p1_[v]);
    if (new_value != world_.value(v)) {
      world_.Flip(v, new_value);
      ++flips;
      for (size_t i = dependent_offsets_[v]; i < dependent_offsets_[v + 1]; ++i) {
        state_[dependents_[i]] |= kDirty;
      }
    }
  }
  return flips;
}

}  // namespace deepdive::inference
