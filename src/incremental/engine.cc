#include "incremental/engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "incremental/decomposition.h"
#include "inference/exact.h"
#include "inference/parallel_gibbs.h"
#include "inference/replicated_gibbs.h"
#include "inference/world.h"
#include "util/thread_pool.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace deepdive::incremental {

using factor::GraphDelta;
using factor::GroupId;
using factor::VarId;

namespace {

/// Drops the entries of weights at or past `num_weights`, which Pr(0) did
/// not have: the groups on them are all new groups, and the net diff keeps
/// one entry per weight Pr(0) had.
void DropNewWeights(GraphDelta* delta, size_t num_weights) {
  std::erase_if(delta->weight_changes, [num_weights](const GraphDelta::WeightChange& c) {
    return c.weight >= num_weights;
  });
}

}  // namespace

IncrementalEngine::IncrementalEngine(factor::FactorGraph* graph,
                                     const inference::Parallelism& parallelism)
    : graph_(graph),
      parallelism_(parallelism),
      snapshot_(std::make_shared<MaterializationSnapshot>()) {
  // The constructing thread is the serving thread: it owns every
  // serving_thread-guarded member it is about to initialize, and the role
  // stays bound to it for the engine's lifetime (trusted root; see
  // util/thread_role.h).
  serving_thread.AssertHeld();
}

IncrementalEngine::~IncrementalEngine() {
  // A background build may still be sampling its private graph copy; cancel
  // and drain it so it cannot touch the handoff slot after we are gone (the
  // background pool's destructor joins the worker).
  // ordering: relaxed — the builder only polls this flag; the mu_ critical
  // sections below and in the builder provide the actual synchronization.
  cancel_build_.store(true, std::memory_order_relaxed);
  MutexLock lock(mu_);
  while (build_in_flight_) build_done_cv_.Wait(mu_);
}

Status IncrementalEngine::Materialize(const MaterializationOptions& options) {
  AbortInFlightBuild();
  rebuild_after_discard_ = false;
  mat_options_ = options;
  mat_options_valid_ = true;
  DD_ASSIGN_OR_RETURN(std::shared_ptr<MaterializationSnapshot> snap,
                      BuildMaterializationSnapshot(*graph_, options, parallelism_));
  snap->rule_set_version = rule_set_version_;
  InstallSnapshot(std::move(snap));
  return Status::OK();
}

Status IncrementalEngine::MaterializeAsync(const MaterializationOptions& options) {
  {
    MutexLock lock(mu_);
    if (build_in_flight_ || pending_ != nullptr) {
      return Status::FailedPrecondition("a materialization is already in flight");
    }
    build_in_flight_ = true;
    pending_status_ = Status::OK();
  }
  rebuild_after_discard_ = false;
  MaterializationOptions opts = options;  // survives self-scheduled remats
  mat_options_ = opts;
  mat_options_valid_ = true;
  // ordering: relaxed — no build is running (we just claimed the in-flight
  // slot under mu_), so nothing can observe the flag concurrently; the
  // builder first sees it through the Submit/mu_ handoff.
  cancel_build_.store(false, std::memory_order_relaxed);
  since_build_ = GraphDelta{};
  since_build_updates_ = 0;
  // The build samples a private copy: the serving thread keeps mutating the
  // live graph with later updates while the chain runs, and those updates
  // accumulate in since_build_ for the post-swap rebase.
  auto graph_copy = std::make_shared<const factor::FactorGraph>(*graph_);
  if (!background_) {
    background_ = std::make_unique<ThreadPool>(1, /*inline_when_single=*/false);
  }
  // The build materializes the program as of this call: stamp the current
  // rule-set version so the install points can recognize (and discard) a
  // build obsoleted by a rule delta that landed while the chain ran.
  const uint64_t rule_version = rule_set_version_;
  background_->Submit([this, graph_copy, rule_version, opts = std::move(opts),
                       parallelism = parallelism_] {
    auto built =
        BuildMaterializationSnapshot(*graph_copy, opts, parallelism, &cancel_build_);
    if (built.ok()) (*built)->rule_set_version = rule_version;
    if (opts.on_before_publish) opts.on_before_publish();
    MutexLock lock(mu_);
    // ordering: relaxed — the flag is a best-effort cancellation hint; the
    // decisions below are serialized with the canceller through mu_ (it sets
    // the flag before taking mu_ to drain, so a post-lock read here is
    // never stale in a way that matters: a cancel set after this read still
    // discards `pending_` in AbortInFlightBuild's own critical section).
    if (built.ok()) {
      if (!cancel_build_.load(std::memory_order_relaxed)) {
        pending_ = std::move(built).value();
      }
    } else if (!cancel_build_.load(std::memory_order_relaxed)) {
      // Deliberate cancellation (abort/shutdown) is not a failure; only
      // organic build errors are recorded and reported.
      pending_status_ = built.status();
      DD_LOG(Warning) << "background materialization failed: "
                      << built.status().ToString();
    }
    build_in_flight_ = false;
    build_done_cv_.NotifyAll();
  });
  return Status::OK();
}

bool IncrementalEngine::MaterializationInFlight() const {
  MutexLock lock(mu_);
  return build_in_flight_ || pending_ != nullptr;
}

Status IncrementalEngine::WaitForMaterialization() {
  std::shared_ptr<MaterializationSnapshot> ready;
  Status status;
  {
    MutexLock lock(mu_);
    while (build_in_flight_) build_done_cv_.Wait(mu_);
    ready = std::move(pending_);
    status = pending_status_;
    pending_status_ = Status::OK();
  }
  if (ready != nullptr && DiscardIfStale(&ready)) {
    // The finished build predates a rule delta: installing it would
    // resurrect retracted factors. The next update rebuilds at the current
    // rule-set version (MaybeScheduleRemat).
    return status;
  }
  if (ready != nullptr) InstallSnapshot(std::move(ready));
  return status;
}

bool IncrementalEngine::DiscardIfStale(
    std::shared_ptr<MaterializationSnapshot>* ready) {
  if ((*ready)->rule_set_version == rule_set_version_) return false;
  DD_LOG(Info) << "discarding materialization built at rule-set version "
               << (*ready)->rule_set_version << " (current "
               << rule_set_version_ << ")";
  ready->reset();
  rebuild_after_discard_ = true;
  return true;
}

void IncrementalEngine::AbortInFlightBuild() {
  // ordering: relaxed — the builder polls the flag between sweeps; the
  // drain below synchronizes with its exit through mu_ / the condvar.
  cancel_build_.store(true, std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    while (build_in_flight_) build_done_cv_.Wait(mu_);
    pending_.reset();
    pending_status_ = Status::OK();
  }
  // ordering: relaxed — no build is in flight anymore (drained above), so
  // this reset is unobservable until the next Submit's mu_ handoff.
  cancel_build_.store(false, std::memory_order_relaxed);
  since_build_ = GraphDelta{};
  since_build_updates_ = 0;
}

void IncrementalEngine::InstallSnapshot(
    std::shared_ptr<MaterializationSnapshot> snapshot) {
  // Variables are append-only, so a snapshot can only cover a prefix of the
  // serving graph (built from a copy taken at or before this point).
  DD_CHECK_LE(snapshot->graph_width, graph_->NumVariables());
  // Install points filter stale builds (DiscardIfStale); this is the
  // last-line defense that the invariant held.
  DD_CHECK(snapshot->rule_set_version == rule_set_version_);
  snapshot_ = std::move(snapshot);
  snapshot_->generation = ++generation_;
  // Rebase: deltas that arrived while the build ran are not covered by the
  // new snapshot and must survive the swap; everything older is absorbed.
  cumulative_ = std::move(since_build_);
  DropNewWeights(&cumulative_, snapshot_->num_weights);
  since_build_ = GraphDelta{};
  updates_since_snapshot_ = since_build_updates_;
  since_build_updates_ = 0;
  if (cumulative_.empty()) {
    marginals_ = snapshot_->materialized_marginals;
    marginals_.resize(graph_->NumVariables(), 0.5);
  }
}

bool IncrementalEngine::MaybeInstallPending() {
  std::shared_ptr<MaterializationSnapshot> ready;
  bool still_building = false;
  {
    MutexLock lock(mu_);
    ready = std::move(pending_);
    still_building = build_in_flight_;
  }
  if (ready != nullptr && !DiscardIfStale(&ready)) {
    InstallSnapshot(std::move(ready));
  }
  return still_building;
}

void IncrementalEngine::MaybeScheduleRemat(const UpdateOutcome& outcome) {
  if (!mat_options_valid_ || !mat_options_.async) return;
  {
    // No remat while one is in flight — and a *failed* build disarms the
    // triggers until WaitForMaterialization observes the error, so a
    // deterministically failing build cannot retry (and pay a full graph
    // copy) on every update, and the failure is never silently clobbered.
    MutexLock lock(mu_);
    if (build_in_flight_ || pending_ != nullptr || !pending_status_.ok()) return;
  }
  // A discarded build is rebuilt here, not where it was discarded: this
  // update's delta is merged by now, so the copy the rebuild takes holds
  // its groups exactly once, none of them left in since_build_ as well.
  const char* trigger = nullptr;
  if (rebuild_after_discard_) {
    trigger = "build discarded after a rule change";
  } else if (mat_options_.remat_on_exhaustion && !snapshot_->store.empty() &&
             snapshot_->store.exhausted()) {
    trigger = "sample store exhausted";
  } else if (mat_options_.remat_acceptance_floor > 0.0 &&
             outcome.acceptance_rate >= 0.0 &&
             outcome.acceptance_rate < mat_options_.remat_acceptance_floor) {
    trigger = "acceptance rate below floor";
  } else if (mat_options_.remat_after_updates > 0 &&
             updates_since_snapshot_ >= mat_options_.remat_after_updates &&
             !cumulative_.empty()) {
    // The count trigger only fires once something actually drifted: a pure
    // analysis stream (empty cumulative delta) would rebuild an identical
    // snapshot.
    trigger = "update count since snapshot";
  }
  if (trigger == nullptr) return;
  DD_LOG(Info) << "scheduling background rematerialization (" << trigger << ")";
  // A remat exists because the distribution drifted: it must re-sample the
  // current graph, never replay the persisted store the initial
  // materialization may have loaded (which covers the original Pr(0) and
  // may not even match the graph's width anymore) — and it must not
  // overwrite the store the user deliberately saved for overnight reuse
  // with drifted-graph samples.
  MaterializationOptions remat_options = mat_options_;
  remat_options.load_sample_store.clear();
  remat_options.save_sample_store.clear();
  remat_options.on_before_publish = nullptr;
  const Status status = MaterializeAsync(remat_options);
  if (!status.ok()) {
    DD_LOG(Warning) << "failed to schedule rematerialization: "
                    << status.ToString();
  }
}

std::vector<bool> IncrementalEngine::TouchedVars(const GraphDelta& delta) const {
  std::vector<bool> touched(graph_->NumVariables(), false);
  auto touch_group = [&](GroupId g) {
    const factor::FactorGroup& group = graph_->group(g);
    touched[group.head] = true;
    for (factor::ClauseId cid : group.clauses) {
      for (const factor::Literal& lit : graph_->clause(cid).literals) {
        touched[lit.var] = true;
      }
    }
  };
  for (GroupId g : delta.new_groups) touch_group(g);
  for (GroupId g : delta.removed_groups) touch_group(g);
  for (const GraphDelta::GroupMod& mod : delta.modified_groups) touch_group(mod.group);
  for (const GraphDelta::WeightChange& wc : delta.weight_changes) {
    for (GroupId g : graph_->GroupsForWeight(wc.weight)) touch_group(g);
  }
  for (const GraphDelta::EvidenceChange& ec : delta.evidence_changes) {
    touched[ec.var] = true;
  }
  for (VarId v : delta.new_variables) touched[v] = true;
  return touched;
}

const std::vector<std::vector<VarId>>& IncrementalEngine::Components() {
  if (!components_valid_ || components_width_ != graph_->NumVariables()) {
    components_cache_ = ConnectedComponents(*graph_);
    components_width_ = graph_->NumVariables();
    components_valid_ = true;
  }
  return components_cache_;
}

std::vector<VarId> IncrementalEngine::AffectedVars(const GraphDelta& delta,
                                                   bool decomposition_enabled) {
  std::vector<VarId> out;
  if (!decomposition_enabled) {
    out.resize(graph_->NumVariables());
    for (VarId v = 0; v < graph_->NumVariables(); ++v) out[v] = v;
    return out;
  }
  const std::vector<bool> touched = TouchedVars(delta);
  // Expand to full components: a delta factor shifts the distribution of
  // everything connected to it; disconnected components are untouched.
  for (const auto& comp : Components()) {
    bool hit = false;
    for (VarId v : comp) {
      if (touched[v]) {
        hit = true;
        break;
      }
    }
    if (hit) out.insert(out.end(), comp.begin(), comp.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

StatusOr<UpdateOutcome> IncrementalEngine::ApplyDelta(
    const GraphDelta& delta, const EngineOptions& options,
    const std::vector<double>* restore_marginals) {
  Timer timer;
  // Swap in a finished background snapshot before serving; while a build is
  // still running we serve from the previous snapshot and record the delta
  // for the post-swap rebase.
  const bool mid_build = MaybeInstallPending();
  cumulative_.Merge(delta);
  DropNewWeights(&cumulative_, snapshot_->num_weights);
  if (mid_build) {
    since_build_.Merge(delta);
    ++since_build_updates_;
  }
  ++update_seq_;
  ++updates_since_snapshot_;
  if (delta.structure_changed()) components_valid_ = false;
  // The compiled kernel freezes structure, weights and evidence, so any
  // non-empty delta (weight updates from learning included) obsoletes it.
  if (!delta.empty()) compiled_kernel_.reset();
  marginals_.resize(graph_->NumVariables(), 0.5);

  StatusOr<UpdateOutcome> result = ExecuteUpdate(delta, options, restore_marginals);
  if (!result.ok()) return result;
  result->snapshot_generation = snapshot_->generation;
  result->served_during_remat = mid_build;
  marginals_ = result->marginals;
  // Scheduling a remat copies the graph on this thread; stamp the latency
  // after it so the update's reported cost includes that stall.
  MaybeScheduleRemat(*result);
  result->seconds = timer.Seconds();
  return result;
}

void IncrementalEngine::RuleSetChanged() {
  ++rule_set_version_;
  compiled_kernel_.reset();
}

const factor::CompiledGraph* IncrementalEngine::CompiledKernel() {
  if (compiled_kernel_ == nullptr) {
    compiled_kernel_ = std::make_unique<const factor::CompiledGraph>(
        factor::CompiledGraph::Compile(*graph_));
  }
  return compiled_kernel_.get();
}

StatusOr<UpdateOutcome> IncrementalEngine::ExecuteUpdate(
    const GraphDelta& delta, const EngineOptions& options,
    const std::vector<double>* restore_marginals) {
  // An exact restore: the caller proved (rule journal: no update intervened
  // since the matching rule add) that the pre-add marginals are the exact
  // posterior of the restored graph, so they are adopted verbatim. Or an
  // analysis-only workload (rule A1): the distribution equals the
  // materialized one, so its marginals are the exact answer — the 100%-
  // acceptance case where the sampling approach needs no computation.
  const bool unchanged = cumulative_.empty() && snapshot_->generation > 0 &&
                         (!options.forced_strategy.has_value() ||
                          *options.forced_strategy == Strategy::kSampling);
  if (restore_marginals != nullptr || unchanged) {
    UpdateOutcome outcome;
    outcome.marginals = restore_marginals != nullptr
                            ? *restore_marginals
                            : snapshot_->materialized_marginals;
    outcome.marginals.resize(graph_->NumVariables(), 0.5);
    outcome.strategy = Strategy::kSampling;
    outcome.reason = restore_marginals != nullptr
                         ? "rule retracted; exact restore from journal"
                         : "no change; materialized marginals";
    outcome.acceptance_rate = 1.0;
    return outcome;
  }

  const std::vector<VarId> affected =
      AffectedVars(cumulative_, options.decomposition_enabled);

  OptimizerDecision decision;
  if (options.forced_strategy.has_value()) {
    decision.strategy = *options.forced_strategy;
    decision.reason = "forced";
  } else {
    RuleBasedOptimizer optimizer(options.optimizer);
    decision = optimizer.Choose(*graph_, delta, !snapshot_->store.exhausted());
    if (decision.strategy == Strategy::kVariational &&
        !snapshot_->variational.has_value()) {
      decision.strategy = Strategy::kRerun;
      decision.reason += " (no variational materialization)";
    }
  }

  UpdateOutcome outcome;
  if (!options.forced_strategy.has_value() && options.decomposition_enabled &&
      decision.strategy != Strategy::kRerun) {
    DD_ASSIGN_OR_RETURN(outcome, RunPerGroup(options, affected));
    outcome.affected_vars = affected.size();
    return outcome;
  }
  switch (decision.strategy) {
    case Strategy::kSampling: {
      DD_ASSIGN_OR_RETURN(outcome, RunSampling(options, affected));
      break;
    }
    case Strategy::kVariational:
      outcome = RunVariational(options, affected);
      break;
    case Strategy::kRerun:
      outcome = RunRerun(options);
      break;
  }
  outcome.strategy = decision.strategy;
  if (outcome.reason.empty()) outcome.reason = decision.reason;
  outcome.affected_vars = affected.size();
  return outcome;
}

StatusOr<UpdateOutcome> IncrementalEngine::RunPerGroup(
    const EngineOptions& options, const std::vector<VarId>& affected) {
  // Classify each affected component by what the cumulative delta does to
  // it: evidence-modified components go variational (rule 2), the rest ride
  // the sampling chain (rules 1/3) while samples last.
  std::vector<bool> is_affected(graph_->NumVariables(), false);
  for (VarId v : affected) is_affected[v] = true;
  // Per-variable classification signals: evidence modified (rule 2) and
  // fixed-weight structural changes such as inference rules, whose many
  // correlated factors collapse MH acceptance (see RuleBasedOptimizer).
  std::vector<bool> wants_variational(graph_->NumVariables(), false);
  for (const GraphDelta::EvidenceChange& ec : cumulative_.evidence_changes) {
    wants_variational[ec.var] = true;
  }
  auto mark_group = [&](GroupId gid) {
    const factor::FactorGroup& group = graph_->group(gid);
    if (graph_->weight(group.weight).learnable) return;  // new feature: sampling
    wants_variational[group.head] = true;
    for (factor::ClauseId cid : group.clauses) {
      for (const factor::Literal& lit : graph_->clause(cid).literals) {
        wants_variational[lit.var] = true;
      }
    }
  };
  for (GroupId gid : cumulative_.new_groups) mark_group(gid);
  for (GroupId gid : cumulative_.removed_groups) mark_group(gid);

  std::vector<VarId> sampling_vars, variational_vars;
  for (const auto& component : Components()) {
    bool touched = false, variational = false;
    for (VarId v : component) {
      touched |= is_affected[v];
      variational |= wants_variational[v];
    }
    if (!touched) continue;
    auto& bucket = (variational && snapshot_->variational.has_value() &&
                    options.optimizer.variational_enabled)
                       ? variational_vars
                       : sampling_vars;
    bucket.insert(bucket.end(), component.begin(), component.end());
  }
  if (!options.optimizer.sampling_enabled) {
    variational_vars.insert(variational_vars.end(), sampling_vars.begin(),
                            sampling_vars.end());
    sampling_vars.clear();
  }

  UpdateOutcome outcome;
  outcome.marginals = snapshot_->materialized_marginals;
  outcome.marginals.resize(graph_->NumVariables(), 0.5);
  outcome.sampling_vars = sampling_vars.size();
  outcome.variational_vars = variational_vars.size();

  if (!sampling_vars.empty()) {
    DD_ASSIGN_OR_RETURN(UpdateOutcome s, RunSampling(options, sampling_vars));
    for (VarId v : sampling_vars) outcome.marginals[v] = s.marginals[v];
    outcome.acceptance_rate = s.acceptance_rate;
    outcome.fell_back_to_variational = s.fell_back_to_variational;
    outcome.exact_vars = s.exact_vars;
    outcome.sampled_vars = s.sampled_vars;
    if (s.fell_back_to_variational) {
      outcome.sampling_vars = 0;
      outcome.variational_vars += sampling_vars.size();
    }
  }
  if (!variational_vars.empty()) {
    if (!snapshot_->variational.has_value()) {
      UpdateOutcome r = RunRerun(options);
      for (VarId v : variational_vars) outcome.marginals[v] = r.marginals[v];
    } else {
      UpdateOutcome v_outcome = RunVariational(options, variational_vars);
      for (VarId v : variational_vars) outcome.marginals[v] = v_outcome.marginals[v];
      outcome.exact_vars += v_outcome.exact_vars;
      outcome.sampled_vars += v_outcome.sampled_vars;
    }
  }
  for (VarId v = 0; v < graph_->NumVariables(); ++v) {
    const auto ev = graph_->EvidenceValue(v);
    if (ev.has_value()) outcome.marginals[v] = *ev ? 1.0 : 0.0;
  }
  outcome.strategy = outcome.variational_vars > outcome.sampling_vars
                         ? Strategy::kVariational
                         : Strategy::kSampling;
  outcome.reason =
      StrFormat("per-group: %zu vars sampling, %zu vars variational",
                outcome.sampling_vars, outcome.variational_vars);
  return outcome;
}

StatusOr<UpdateOutcome> IncrementalEngine::RunSampling(
    const EngineOptions& options, const std::vector<VarId>& affected) {
  UpdateOutcome outcome;
  IndependentMH mh(graph_, &cumulative_);
  MHOptions mh_options;
  // The paper's cost model: the chain consumes proposals until it has
  // gathered enough *effective* (accepted) samples — SI samples cost SI/rho
  // proposals — or until the store runs dry.
  mh_options.target_steps = std::numeric_limits<size_t>::max();  // store-bounded
  mh_options.target_accepted = options.mh_target_steps;
  mh_options.seed = Rng::MixSeed(options.gibbs.seed, update_seq_, /*substream=*/1);
  mh_options.track_vars = &affected;  // untouched components keep Pr(0) marginals
  DD_ASSIGN_OR_RETURN(MHResult result, mh.Run(&snapshot_->store, mh_options));
  outcome.acceptance_rate = result.acceptance_rate;

  const bool too_few_steps =
      result.exhausted &&
      result.accepted < std::max<size_t>(2, options.mh_target_steps / 2);
  if (too_few_steps) {
    // Optimizer rule 4 at execution time: the store ran dry before the chain
    // gathered enough accepted moves.
    if (snapshot_->variational.has_value() && options.optimizer.variational_enabled) {
      outcome = RunVariational(options, affected);
      outcome.fell_back_to_variational = true;
      outcome.acceptance_rate = result.acceptance_rate;
      outcome.reason = "samples exhausted; fell back to variational";
    } else {
      outcome = RunRerun(options);
      outcome.acceptance_rate = result.acceptance_rate;
      outcome.reason = "samples exhausted; no variational; rerunning";
    }
    return outcome;
  }

  // Refresh only affected variables; untouched components keep their
  // materialized marginals (exact, since the cumulative delta does not
  // reach them).
  outcome.marginals = snapshot_->materialized_marginals;
  outcome.marginals.resize(graph_->NumVariables(), 0.5);
  for (VarId v : affected) outcome.marginals[v] = result.marginals[v];
  for (VarId v = 0; v < graph_->NumVariables(); ++v) {
    const auto ev = graph_->EvidenceValue(v);
    if (ev.has_value()) outcome.marginals[v] = *ev ? 1.0 : 0.0;
  }
  return outcome;
}

UpdateOutcome IncrementalEngine::RunVariational(const EngineOptions& options,
                                                const std::vector<VarId>& affected) {
  UpdateOutcome outcome;
  DD_CHECK(snapshot_->variational.has_value());
  // The sweeps run on the approximation's compiled image with the cumulative
  // delta spliced on; its rows keep the order a compile of the whole
  // approximation-plus-delta graph gives, and so its FP and RNG order.
  const factor::CompiledGraph inference_graph = BuildVariationalInferenceImage(
      *graph_, *snapshot_->variational, cumulative_);

  std::vector<VarId> sweep_vars;
  for (VarId v : affected) {
    if (!inference_graph.IsEvidence(v)) sweep_vars.push_back(v);
  }
  // Warm start from the current marginal estimates.
  auto warm_value = [&](VarId v) {
    const auto ev = inference_graph.EvidenceValue(v);
    return ev.has_value() ? *ev : (v < marginals_.size() && marginals_[v] > 0.5);
  };
  inference::World world(&inference_graph);
  for (VarId v = 0; v < inference_graph.NumVariables(); ++v) {
    world.Flip(v, warm_value(v));
  }
  world.RecomputeStats();
  outcome.marginals = snapshot_->materialized_marginals;
  outcome.marginals.resize(graph_->NumVariables(), 0.5);

  // The chain samples the swept variables with every other variable fixed at
  // its warm value, so the swept variables split into the image's components
  // among them, which are independent. Enumerating a component of n
  // variables takes 2^n conditionals and the chain n per sweep; a component
  // is enumerated when 2^n <= n * (burn-in + sample sweeps), which with the
  // default 50 + 200 sweeps is n <= 11. Its marginals are then exact and
  // draw no random numbers.
  const size_t sample_sweeps = std::max<size_t>(1, options.gibbs.sample_sweeps);
  const uint64_t sweeps = options.gibbs.burn_in_sweeps + sample_sweeps;
  std::vector<bool> enumerated(inference_graph.NumVariables(), false);
  inference::GibbsScratch scratch;
  for (const std::vector<VarId>& component :
       ConnectedComponents(inference_graph, sweep_vars)) {
    const size_t n = component.size();
    // n < 32 keeps the shift and the product in range.
    if (n >= 32 || (uint64_t{1} << n) > n * sweeps) continue;
    inference::EnumerateMarginals(&world, component, &scratch, &outcome.marginals);
    for (VarId v : component) enumerated[v] = true;
    outcome.exact_vars += n;
  }
  // The rest keep their sweep order.
  std::erase_if(sweep_vars, [&](VarId v) { return enumerated[v]; });
  outcome.sampled_vars = sweep_vars.size();

  std::vector<double> sums(inference_graph.NumVariables(), 0.0);
  const size_t num_threads = parallelism_.num_threads == 0 ? ThreadPool::DefaultThreads()
                                                          : parallelism_.num_threads;
  // A chain is built only when some component is left to sample.
  if (!sweep_vars.empty() && num_threads > 1) {
    // Hogwild over the (sparse) inference graph, confined to the sampled
    // variables: the component decomposition shards across workers. It keeps
    // the plain kernel because a cached conditional could miss a racing flip.
    inference::ParallelGibbsSampler sampler(&inference_graph, num_threads);
    inference::AtomicWorld atomic_world(&inference_graph);
    for (VarId v = 0; v < inference_graph.NumVariables(); ++v) {
      atomic_world.Flip(v, warm_value(v));
    }
    std::vector<Rng> rngs = sampler.MakeRngStreams(
        Rng::MixSeed(options.gibbs.seed, update_seq_, /*substream=*/2));
    for (size_t i = 0; i < options.gibbs.burn_in_sweeps; ++i) {
      sampler.SweepVars(&atomic_world, &rngs, sweep_vars);
    }
    for (size_t i = 0; i < sample_sweeps; ++i) {
      sampler.SweepVars(&atomic_world, &rngs, sweep_vars);
      for (VarId v : sweep_vars) sums[v] += atomic_world.value(v) ? 1.0 : 0.0;
    }
  } else if (!sweep_vars.empty()) {
    // Sequential sweeps reuse each conditional until a variable it reads
    // flips; the chain is bit-identical to GibbsSampler::SweepVars.
    Rng rng(Rng::MixSeed(options.gibbs.seed, update_seq_, /*substream=*/2));
    inference::CompiledGibbsChain chain(std::move(world));
    for (size_t i = 0; i < options.gibbs.burn_in_sweeps; ++i) {
      chain.SweepVars(&rng, sweep_vars);
    }
    for (size_t i = 0; i < sample_sweeps; ++i) {
      chain.SweepVars(&rng, sweep_vars);
      for (VarId v : sweep_vars) sums[v] += chain.world().value(v) ? 1.0 : 0.0;
    }
  }

  for (VarId v : sweep_vars) {
    outcome.marginals[v] = sums[v] / static_cast<double>(sample_sweeps);
  }
  for (VarId v = 0; v < graph_->NumVariables(); ++v) {
    const auto ev = graph_->EvidenceValue(v);
    if (ev.has_value()) outcome.marginals[v] = *ev ? 1.0 : 0.0;
  }
  return outcome;
}

UpdateOutcome IncrementalEngine::RunRerun(const EngineOptions& options) {
  UpdateOutcome outcome;
  inference::GibbsOptions gopts = options.rerun_gibbs;
  gopts.seed = Rng::MixSeed(gopts.seed, update_seq_);
  // Reuse (or lazily rebuild) the cached CSR kernel instead of recompiling
  // per rerun; rule/structural deltas invalidate it.
  inference::ReplicatedGibbsSampler sampler(CompiledKernel(), parallelism_);
  outcome.marginals = sampler.EstimateMarginals(gopts).marginals;
  for (VarId v = 0; v < graph_->NumVariables(); ++v) {
    const auto ev = graph_->EvidenceValue(v);
    if (ev.has_value()) outcome.marginals[v] = *ev ? 1.0 : 0.0;
  }
  outcome.reason = "rerun";
  return outcome;
}

}  // namespace deepdive::incremental
