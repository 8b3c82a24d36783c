#include "incremental/mh_sampler.h"

#include <cmath>
#include <optional>

#include "factor/compiled_graph.h"
#include "inference/gibbs.h"
#include "inference/world.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace deepdive::incremental {

using factor::GraphDelta;
using factor::VarId;

namespace {

/// log(1 + e^x) without overflow.
double LogOnePlusExp(double x) {
  return x > 0.0 ? x + std::log1p(std::exp(-x)) : std::log1p(std::exp(x));
}

}  // namespace

IndependentMH::IndependentMH(const factor::FactorGraph* graph, const GraphDelta* delta)
    : graph_(graph), delta_(delta) {}

StatusOr<MHResult> IndependentMH::Run(SampleStore* store, const MHOptions& options) {
  MHResult result;
  const size_t n = graph_->NumVariables();
  result.marginals.assign(n, 0.0);
  if (store->exhausted()) {
    result.exhausted = true;
    return result;
  }

  Rng rng(options.seed);

  // Variables created after materialization are extended by one sweep on a
  // compiled image of the graph (compiled once per Run, only when such
  // variables exist); that path rebuilds a world's statistics per proposal.
  // The common fast path (no new variables) evaluates the delta's
  // log-density ratio directly on the stored bits — per proposal cost
  // O(|delta|), never O(graph), which is the whole point of the sampling
  // approach.
  std::vector<VarId> extension_vars;
  for (VarId v = static_cast<VarId>(store->num_vars()); v < n; ++v) {
    extension_vars.push_back(v);
  }
  std::optional<factor::CompiledGraph> compiled;
  std::optional<inference::World> extension_world;
  inference::GibbsScratch scratch;
  if (!extension_vars.empty()) {
    compiled.emplace(factor::CompiledGraph::Compile(*graph_));
    extension_world.emplace(&*compiled);
  }

  // Loads a proposal as a full-width bit vector and returns the log
  // probability of its extension draws (0 without new variables).
  BitVector proposal_bits(n);
  auto load_proposal = [&](const BitVector& raw) {
    if (extension_vars.empty()) {
      proposal_bits = raw;
      return 0.0;
    }
    // Raw sample bits verbatim; evidence added after materialization is
    // handled by the acceptance test, not coerced into the proposal. New
    // *evidence* variables take their labels (they have no Pr(0)
    // coordinate); the others are drawn from their conditionals in turn.
    extension_world->LoadBitsPrefix(raw, /*fill=*/false, /*apply_evidence=*/false);
    for (VarId v : extension_vars) {
      const auto ev = compiled->EvidenceValue(v);
      if (ev.has_value()) extension_world->Flip(v, *ev);
    }
    const inference::GibbsSampler sampler(&*compiled);
    double log_q = 0.0;
    for (VarId v : extension_vars) {
      if (compiled->IsEvidence(v)) continue;
      const double log_odds = sampler.ConditionalLogOdds(*extension_world, v, &scratch);
      const bool value = rng.Bernoulli(1.0 / (1.0 + std::exp(-log_odds)));
      log_q -= LogOnePlusExp(value ? -log_odds : log_odds);
      if (value != extension_world->value(v)) extension_world->Flip(v, value);
    }
    proposal_bits = extension_world->ToBits();
    return log_q;
  };

  BitVector current(n);
  auto current_of = [&](VarId v) { return current.Get(v); };
  auto proposal_of = [&](VarId v) { return proposal_bits.Get(v); };

  const BitVector* first = store->NextProposal();
  DD_CHECK(first != nullptr);
  double current_log_q = load_proposal(*first);
  current = proposal_bits;
  double current_ratio = factor::DeltaLogDensityRatio(*graph_, *delta_, current_of);
  ++result.proposals;
  ++result.accepted;  // the chain starts at the first proposal

  // ---- marginal accumulation ----
  // The chain sits in each accepted state for a run of consecutive steps, so
  // per-step adds are deferred until the state changes and applied as one
  // batched pass (marginals[v] += run * I[v]). The run counts are integers
  // well below 2^53, so the batched double adds are bit-identical to the
  // historical step-by-step loop. When the tracked set is large — the
  // ROADMAP's data-parallel reduction — the pass shards over it on a pool:
  // tracked ids are unique (component expansions), so shard slices write
  // disjoint entries of the marginal vector and each worker effectively owns
  // a private accumulation buffer (its slice), reduced for free in place.
  const std::vector<VarId>* tracked = options.track_vars;
  const size_t tracked_count = tracked != nullptr ? tracked->size() : n;
  constexpr size_t kParallelTrackThreshold = 2048;
  const size_t num_threads = options.num_threads == 0 ? ThreadPool::DefaultThreads()
                                                     : options.num_threads;
  std::optional<ThreadPool> accum;
  if (num_threads > 1 && tracked_count >= kParallelTrackThreshold) accum.emplace(num_threads);
  size_t run_length = 0;
  double* marginals = result.marginals.data();
  auto flush_run = [&]() {
    if (run_length == 0) return;
    const double run = static_cast<double>(run_length);
    run_length = 0;
    auto add_range = [&](size_t begin, size_t end) {
      if (tracked != nullptr) {
        for (size_t i = begin; i < end; ++i) {
          const VarId v = (*tracked)[i];
          if (current.Get(v)) marginals[v] += run;
        }
      } else {
        for (size_t v = begin; v < end; ++v) {
          if (current.Get(static_cast<VarId>(v))) marginals[v] += run;
        }
      }
    };
    if (accum.has_value()) {
      accum->ParallelFor(tracked_count,
                         [&](size_t /*shard*/, size_t begin, size_t end) {
                           add_range(begin, end);
                         });
    } else {
      add_range(0, tracked_count);
    }
  };

  size_t steps = 1;
  run_length = 1;  // the initial state is counted once

  while (steps < options.target_steps &&
         (options.target_accepted == 0 || result.accepted < options.target_accepted)) {
    const BitVector* raw = store->NextProposal();
    if (raw == nullptr) {
      result.exhausted = true;
      break;
    }
    ++result.proposals;
    const double proposed_log_q = load_proposal(*raw);
    const double proposed_ratio =
        factor::DeltaLogDensityRatio(*graph_, *delta_, proposal_of);
    bool accept;
    if (std::isinf(current_ratio) && current_ratio < 0.0) {
      // Current state has zero probability under Pr(Δ) (e.g. it violates new
      // evidence): escape to any supported proposal.
      accept = !(std::isinf(proposed_ratio) && proposed_ratio < 0.0);
    } else {
      // Importance weights r - log q: the extension draws are divided out
      // like Pr(0) is.
      const double log_alpha =
          (proposed_ratio - proposed_log_q) - (current_ratio - current_log_q);
      accept = log_alpha >= 0.0 || rng.Uniform() < std::exp(log_alpha);
    }
    if (accept) {
      ++result.accepted;
      flush_run();  // batch out the departing state before replacing it
      current = proposal_bits;
      current_ratio = proposed_ratio;
      current_log_q = proposed_log_q;
    }
    ++steps;
    ++run_length;  // the (possibly new) current state is counted this step
  }
  flush_run();

  // Only tracked variables carry chain averages; with a tracked set the
  // untracked entries stay exactly 0 and are neither divided nor overwritten
  // with evidence labels as if they were estimates — the caller replaces
  // only the tracked subset and keeps its own values for the rest.
  const double steps_d = static_cast<double>(steps);
  if (tracked != nullptr) {
    for (VarId v : *tracked) {
      result.marginals[v] /= steps_d;
      const auto ev = graph_->EvidenceValue(v);
      if (ev.has_value()) result.marginals[v] = *ev ? 1.0 : 0.0;
    }
  } else {
    for (VarId v = 0; v < n; ++v) {
      result.marginals[v] /= steps_d;
    }
    // Evidence variables report their labels exactly.
    for (VarId v = 0; v < n; ++v) {
      const auto ev = graph_->EvidenceValue(v);
      if (ev.has_value()) result.marginals[v] = *ev ? 1.0 : 0.0;
    }
  }
  result.acceptance_rate =
      result.proposals > 0
          ? static_cast<double>(result.accepted) / static_cast<double>(result.proposals)
          : 0.0;
  return result;
}

}  // namespace deepdive::incremental
