#include "incremental/mh_sampler.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>

#include "factor/compiled_graph.h"
#include "inference/gibbs.h"
#include "inference/world.h"
#include "util/logging.h"

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
  // log-density ratio directly on the stored bits — per proposal cost the
  // delta's nonzero terms, never O(graph), which is the whole point of the
  // sampling approach.
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

  // Returns the proposal as a full-width world and sets *log_q to the log
  // probability of its extension draws (0 without new variables).
  BitVector proposal_bits;
  auto load_proposal = [&](const BitVector& raw, double* log_q) -> const BitVector& {
    *log_q = 0.0;
    if (extension_vars.empty()) return raw;
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
    for (VarId v : extension_vars) {
      if (compiled->IsEvidence(v)) continue;
      const double log_odds = sampler.ConditionalLogOdds(*extension_world, v, &scratch);
      const bool value = rng.Bernoulli(1.0 / (1.0 + std::exp(-log_odds)));
      *log_q -= LogOnePlusExp(value ? -log_odds : log_odds);
      if (value != extension_world->value(v)) extension_world->Flip(v, value);
    }
    proposal_bits = extension_world->ToBits();
    return proposal_bits;
  };

  // The delta's ratio, compiled once for the whole chain.
  const factor::DeltaRatio delta_ratio(*graph_, *delta_);

  const BitVector* first = store->NextProposal();
  DD_CHECK(first != nullptr);
  double current_log_q = 0.0;
  BitVector current = load_proposal(*first, &current_log_q);
  double current_ratio = delta_ratio(current);
  ++result.proposals;
  ++result.accepted;  // the chain starts at the first proposal

  // ---- marginal accumulation ----
  // The chain sits in each accepted state for a run of consecutive steps.
  // When it leaves a state, the run's length is added to an integer count
  // for each tracked variable set in that state, found by walking the set
  // bits of (state & tracked mask) a word at a time. Every count is a sum of
  // integer run lengths below 2^53, which a double holds exactly, so
  // converting the counts once at the end equals adding each step's
  // indicator in double.
  const std::vector<VarId>* tracked = options.track_vars;
  BitVector tracked_mask(n, /*value=*/tracked == nullptr);
  if (tracked != nullptr) {
    for (VarId v : *tracked) tracked_mask.Set(v, true);
  }
  std::vector<uint64_t> counts(n, 0);
  size_t run_length = 1;  // the initial state is counted once
  auto flush_run = [&]() {
    for (size_t w = 0; w < tracked_mask.num_words(); ++w) {
      for (uint64_t bits = current.word(w) & tracked_mask.word(w); bits != 0;
           bits &= bits - 1) {
        counts[w * 64 + static_cast<size_t>(std::countr_zero(bits))] += run_length;
      }
    }
    run_length = 0;
  };

  size_t steps = 1;
  while (steps < options.target_steps &&
         (options.target_accepted == 0 || result.accepted < options.target_accepted)) {
    const BitVector* raw = store->NextProposal();
    if (raw == nullptr) {
      result.exhausted = true;
      break;
    }
    ++result.proposals;
    double proposed_log_q = 0.0;
    const BitVector& proposal = load_proposal(*raw, &proposed_log_q);
    const double proposed_ratio = delta_ratio(proposal);
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
      flush_run();  // count out the departing state before replacing it
      current = proposal;
      current_ratio = proposed_ratio;
      current_log_q = proposed_log_q;
    }
    ++steps;
    ++run_length;  // the (possibly new) current state is counted this step
  }
  flush_run();

  // Only tracked variables carry chain averages; with a tracked set the
  // untracked entries stay exactly 0 and are not overwritten with evidence
  // labels as if they were estimates — the caller replaces only the tracked
  // subset and keeps its own values for the rest. Evidence variables report
  // their labels exactly.
  const double steps_d = static_cast<double>(steps);
  auto estimate = [&](VarId v) {
    const auto ev = graph_->EvidenceValue(v);
    result.marginals[v] =
        ev.has_value() ? (*ev ? 1.0 : 0.0) : static_cast<double>(counts[v]) / steps_d;
  };
  if (tracked != nullptr) {
    for (VarId v : *tracked) estimate(v);
  } else {
    for (VarId v = 0; v < n; ++v) estimate(v);
  }
  result.acceptance_rate =
      result.proposals > 0
          ? static_cast<double>(result.accepted) / static_cast<double>(result.proposals)
          : 0.0;
  return result;
}

}  // namespace deepdive::incremental
