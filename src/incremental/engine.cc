#include "incremental/engine.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "incremental/decomposition.h"
#include "inference/exact.h"
#include "inference/replicated_gibbs.h"
#include "inference/world.h"
#include "util/thread_pool.h"
#include "util/logging.h"

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

/// Per-variable marks of a delta: kTouched on every variable it references,
/// kPrefersVariational on those the classifier's rule 2 reads.
enum VarMark : uint8_t { kTouched = 1, kPrefersVariational = 2 };

std::vector<uint8_t> MarkVars(const factor::FactorGraph& graph, const GraphDelta& delta) {
  std::vector<uint8_t> marks(graph.NumVariables(), 0);
  auto mark_group = [&](GroupId g, uint8_t mark) {
    const factor::FactorGroup& group = graph.group(g);
    marks[group.head] |= mark;
    for (factor::ClauseId cid : group.clauses) {
      for (const factor::Literal& lit : graph.clause(cid).literals) marks[lit.var] |= mark;
    }
  };
  // A new or removed group on a fixed weight (an inference rule's, say) comes
  // with many correlated factors, which collapse MH's acceptance; a new
  // feature's group is on a learnable weight and stays with sampling.
  auto structural = [&](GroupId g) -> uint8_t {
    return graph.weight(graph.group(g).weight).learnable ? kTouched
                                                         : kTouched | kPrefersVariational;
  };
  for (GroupId g : delta.new_groups) mark_group(g, structural(g));
  for (GroupId g : delta.removed_groups) mark_group(g, structural(g));
  for (const GraphDelta::GroupMod& mod : delta.modified_groups) mark_group(mod.group, kTouched);
  for (const GraphDelta::WeightChange& wc : delta.weight_changes) {
    for (GroupId g : graph.GroupsForWeight(wc.weight)) mark_group(g, kTouched);
  }
  // New labels collapse MH's acceptance too.
  for (const GraphDelta::EvidenceChange& ec : delta.evidence_changes) {
    marks[ec.var] |= kTouched | kPrefersVariational;
  }
  for (VarId v : delta.new_variables) marks[v] |= kTouched;
  return marks;
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

const std::vector<std::vector<VarId>>& IncrementalEngine::Components() {
  if (!components_valid_ || components_width_ != graph_->NumVariables()) {
    components_cache_ = ConnectedComponents(*graph_);
    components_width_ = graph_->NumVariables();
    components_valid_ = true;
  }
  return components_cache_;
}

StatusOr<UpdateOutcome> IncrementalEngine::ApplyDelta(
    const GraphDelta& delta, const EngineOptions& options,
    const std::vector<double>* restore_marginals) {
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

  StatusOr<UpdateOutcome> result = ExecuteUpdate(options, restore_marginals);
  if (!result.ok()) return result;
  result->snapshot_generation = snapshot_->generation;
  result->served_during_remat = mid_build;
  marginals_ = result->marginals;
  MaybeScheduleRemat(*result);
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
    const EngineOptions& options, const std::vector<double>* restore_marginals) {
  UpdateOutcome outcome;
  // An exact restore: the caller proved (rule journal: no update intervened
  // since the matching rule add) that the pre-add marginals are the exact
  // posterior of the restored graph, so they are adopted verbatim. Or an
  // analysis-only workload (rule A1): the distribution equals the
  // materialized one, so its marginals are the exact answer — the 100%-
  // acceptance case where the sampling approach needs no computation.
  const std::optional<Strategy>& forced = options.forced_strategy;
  const bool unchanged = cumulative_.empty() && snapshot_->generation > 0 &&
                         (!forced.has_value() || *forced == Strategy::kSampling);
  if (restore_marginals != nullptr || unchanged) {
    outcome.marginals = restore_marginals != nullptr
                            ? *restore_marginals
                            : snapshot_->materialized_marginals;
    outcome.marginals.resize(graph_->NumVariables(), 0.5);
    outcome.acceptance_rate = 1.0;
    return outcome;
  }

  // The classifier (see the declaration for its rules): the first rule that
  // matches picks a touched component's strategy, and the component joins
  // that strategy's bucket in component order.
  const bool has_fit = snapshot_->variational.has_value();
  const bool variational_on = has_fit && options.optimizer.variational_enabled;
  const std::vector<uint8_t> marks = MarkVars(*graph_, cumulative_);
  bool rerun = snapshot_->generation == 0 || forced == Strategy::kRerun;
  std::vector<VarId> sampling_vars, variational_vars;
  auto classify = [&](const std::vector<VarId>& component) {
    outcome.affected_vars += component.size();
    Strategy strategy = Strategy::kRerun;
    if (forced.has_value()) {
      if (*forced != Strategy::kVariational || has_fit) strategy = *forced;
    } else if (variational_on &&
               std::any_of(component.begin(), component.end(),
                           [&](VarId v) { return marks[v] & kPrefersVariational; })) {
      strategy = Strategy::kVariational;
    } else if (options.optimizer.sampling_enabled) {
      strategy = Strategy::kSampling;
    } else if (variational_on) {
      strategy = Strategy::kVariational;
    }
    if (strategy == Strategy::kRerun) rerun = true;
    std::vector<VarId>& bucket =
        strategy == Strategy::kVariational ? variational_vars : sampling_vars;
    if (!rerun) bucket.insert(bucket.end(), component.begin(), component.end());
  };
  if (options.decomposition_enabled) {
    // A delta factor shifts the distribution of everything connected to it;
    // disconnected components are untouched.
    for (const std::vector<VarId>& component : Components()) {
      if (std::any_of(component.begin(), component.end(),
                      [&](VarId v) { return marks[v] & kTouched; })) {
        classify(component);
      }
    }
  } else {
    std::vector<VarId> all(graph_->NumVariables());
    std::iota(all.begin(), all.end(), VarId{0});
    classify(all);
  }

  if (rerun) {
    outcome.marginals = RunRerun(options);
    outcome.strategy = Strategy::kRerun;
  } else {
    // Untouched components keep their materialized marginals (exact, since
    // the cumulative delta does not reach them).
    outcome.marginals = snapshot_->materialized_marginals;
    outcome.marginals.resize(graph_->NumVariables(), 0.5);
    outcome.sampling_vars = sampling_vars.size();
    outcome.variational_vars = variational_vars.size();
    Strategy answered = Strategy::kSampling;
    if (!sampling_vars.empty()) {
      DD_ASSIGN_OR_RETURN(answered, RunSampling(options, sampling_vars, &outcome));
      if (answered == Strategy::kVariational) outcome.variational_vars += sampling_vars.size();
      if (answered != Strategy::kSampling) outcome.sampling_vars = 0;
    }
    if (!variational_vars.empty()) RunVariational(options, variational_vars, &outcome);
    if (answered == Strategy::kRerun) {
      outcome.strategy = Strategy::kRerun;
    } else if (outcome.variational_vars > outcome.sampling_vars) {
      outcome.strategy = Strategy::kVariational;
    }
  }
  for (VarId v = 0; v < graph_->NumVariables(); ++v) {
    const auto ev = graph_->EvidenceValue(v);
    if (ev.has_value()) outcome.marginals[v] = *ev ? 1.0 : 0.0;
  }
  return outcome;
}

StatusOr<Strategy> IncrementalEngine::RunSampling(const EngineOptions& options,
                                                  const std::vector<VarId>& vars,
                                                  UpdateOutcome* outcome) {
  IndependentMH mh(graph_, &cumulative_);
  MHOptions mh_options;
  // The paper's cost model: the chain consumes proposals until it has
  // gathered enough *effective* (accepted) samples — SI samples cost SI/rho
  // proposals — or until the store runs dry.
  mh_options.target_steps = std::numeric_limits<size_t>::max();  // store-bounded
  mh_options.target_accepted = options.mh_target_steps;
  mh_options.seed = Rng::MixSeed(options.gibbs.seed, update_seq_, /*substream=*/1);
  mh_options.track_vars = &vars;  // untouched components keep Pr(0) marginals
  DD_ASSIGN_OR_RETURN(MHResult result, mh.Run(&snapshot_->store, mh_options));
  outcome->acceptance_rate = result.acceptance_rate;

  const bool too_few_steps =
      result.exhausted &&
      result.accepted < std::max<size_t>(2, options.mh_target_steps / 2);
  if (!too_few_steps) {
    for (VarId v : vars) outcome->marginals[v] = result.marginals[v];
    return Strategy::kSampling;
  }
  // Optimizer rule 4 at execution time: the store ran dry before the chain
  // gathered enough accepted moves.
  if (snapshot_->variational.has_value() && options.optimizer.variational_enabled) {
    RunVariational(options, vars, outcome);
    return Strategy::kVariational;
  }
  const std::vector<double> rerun = RunRerun(options);
  for (VarId v : vars) outcome->marginals[v] = rerun[v];
  return Strategy::kRerun;
}

void IncrementalEngine::RunVariational(const EngineOptions& options,
                                       const std::vector<VarId>& vars,
                                       UpdateOutcome* outcome) {
  // The sweeps run on the approximation's compiled image with the cumulative
  // delta spliced on; its rows keep the order a compile of the whole
  // approximation-plus-delta graph gives, and so its FP and RNG order.
  const factor::CompiledGraph inference_graph = BuildVariationalInferenceImage(
      *graph_, *snapshot_->variational, cumulative_);

  std::vector<VarId> sweep_vars;
  for (VarId v : vars) {
    if (!inference_graph.IsEvidence(v)) sweep_vars.push_back(v);
  }
  // Warm start from the current marginal estimates.
  inference::World world(&inference_graph);
  for (VarId v = 0; v < inference_graph.NumVariables(); ++v) {
    const auto ev = inference_graph.EvidenceValue(v);
    world.Flip(v, ev.has_value() ? *ev : (v < marginals_.size() && marginals_[v] > 0.5));
  }
  world.RecomputeStats();

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
    inference::EnumerateMarginals(&world, component, &scratch, &outcome->marginals);
    for (VarId v : component) enumerated[v] = true;
    outcome->exact_vars += n;
  }
  // The rest keep their sweep order.
  std::erase_if(sweep_vars, [&](VarId v) { return enumerated[v]; });
  outcome->sampled_vars += sweep_vars.size();
  // A chain is built only when some component is left to sample.
  if (sweep_vars.empty()) return;

  // Sequential sweeps reuse each conditional until a variable it reads
  // flips; the chain is bit-identical to GibbsSampler::SweepVars.
  std::vector<double> sums(inference_graph.NumVariables(), 0.0);
  Rng rng(Rng::MixSeed(options.gibbs.seed, update_seq_, /*substream=*/2));
  inference::CompiledGibbsChain chain(std::move(world));
  for (size_t i = 0; i < options.gibbs.burn_in_sweeps; ++i) {
    chain.SweepVars(&rng, sweep_vars);
  }
  for (size_t i = 0; i < sample_sweeps; ++i) {
    chain.SweepVars(&rng, sweep_vars);
    for (VarId v : sweep_vars) sums[v] += chain.world().value(v) ? 1.0 : 0.0;
  }
  for (VarId v : sweep_vars) {
    outcome->marginals[v] = sums[v] / static_cast<double>(sample_sweeps);
  }
}

std::vector<double> IncrementalEngine::RunRerun(const EngineOptions& options) {
  inference::GibbsOptions gopts = options.rerun_gibbs;
  gopts.seed = Rng::MixSeed(gopts.seed, update_seq_);
  // Reuse (or lazily rebuild) the cached CSR kernel instead of recompiling
  // per rerun; rule/structural deltas invalidate it.
  inference::ReplicatedGibbsSampler sampler(CompiledKernel(), parallelism_);
  return sampler.EstimateMarginals(gopts).marginals;
}

}  // namespace deepdive::incremental
