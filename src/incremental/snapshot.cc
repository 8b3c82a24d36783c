#include "incremental/snapshot.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>

#include "factor/compiled_graph.h"
#include "incremental/decomposition.h"
#include "inference/exact.h"
#include "inference/replicated_gibbs.h"
#include "inference/world.h"
#include "util/logging.h"
#include "util/timer.h"

namespace deepdive::incremental {

using factor::VarId;

namespace {

/// Stream of `MaterializationOptions::seed` that draws the enumerated
/// components' samples (stream 101 seeds the variational fit).
constexpr uint64_t kExactDrawStream = 102;

/// Whether a component of n free variables is enumerated (see
/// BuildMaterializationSnapshot): n <= kMaxExactComponentVars, and its 2^n
/// conditionals cost no more than the chain's n per sweep over
/// burn-in + num_samples * thin sweeps.
bool Enumerated(size_t n, const MaterializationOptions& options) {
  // In doubles: the options' product may overflow 64 bits, and every value
  // the comparison can turn on (at most 12 * 2^12) is exact.
  const double sweeps =
      static_cast<double>(options.gibbs_burn_in) +
      static_cast<double>(options.num_samples) *
          static_cast<double>(std::max<size_t>(1, options.gibbs_thin));
  return n <= kMaxExactComponentVars &&
         static_cast<double>(uint64_t{1} << n) <= static_cast<double>(n) * sweeps;
}

/// The enumerated components, flat: component c's members are
/// vars[begin[c]] .. vars[begin[c + 1] - 1], and its table is the next 2^n
/// entries of `cdf`: entry a is the probability that the members' bit
/// pattern (bit i = i-th member) is at most a, and the last entry is 1.
struct ExactComponents {
  std::vector<VarId> vars;
  std::vector<size_t> begin{0};
  std::vector<double> cdf;

  /// Overwrites every member's bit of `sample` with a draw of its
  /// component's assignment: one uniform per component, looked up in its
  /// table by inverse CDF.
  void Draw(Rng* rng, BitVector* sample) const {
    const double* table = cdf.data();
    for (size_t c = 0; c + 1 < begin.size(); ++c) {
      const size_t n = begin[c + 1] - begin[c];
      const double u = rng->Uniform();
      // a = the number of entries <= u, by a branch-free binary search over
      // the 2^n entries; the last one (1 > u) is never read, so a < 2^n.
      size_t a = 0;
      for (size_t half = size_t{1} << (n - 1); half != 0; half >>= 1) {
        a += table[a + half - 1] <= u ? half : 0;
      }
      const VarId* members = vars.data() + begin[c];
      for (size_t i = 0; i < n; ++i) sample->Set(members[i], (a >> i) & 1);
      table += size_t{1} << n;
    }
  }
};

}  // namespace

StatusOr<std::shared_ptr<MaterializationSnapshot>> BuildMaterializationSnapshot(
    const factor::FactorGraph& graph, const MaterializationOptions& options,
    const inference::Parallelism& parallelism, const std::atomic<bool>* cancel) {
  Timer timer;
  auto snapshot = std::make_shared<MaterializationSnapshot>();
  MaterializationSnapshot& snap = *snapshot;
  snap.graph_width = graph.NumVariables();
  snap.num_weights = graph.NumWeights();
  snap.materialized_marginals.assign(graph.NumVariables(), 0.5);

  const auto cancelled = [cancel] {
    // ordering: relaxed — best-effort poll; a stale read only delays
    // cancellation by one sweep, and the discard decision is serialized
    // with the canceller under the engine's handoff mutex.
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  };
  // One compiled image serves the component split, the sampling chain and
  // the variational draw.
  const factor::CompiledGraph image = factor::CompiledGraph::Compile(graph);

  // Each small component is walked once into its table, which also gives
  // its exact materialized marginals; the other free variables are left to
  // the chain and to sample averages.
  std::vector<VarId> free_vars;
  for (VarId v = 0; v < image.NumVariables(); ++v) {
    if (!image.IsEvidence(v)) free_vars.push_back(v);
  }
  ExactComponents exact;
  std::vector<bool> enumerated(image.NumVariables(), false);
  inference::World world(&image);
  inference::GibbsScratch scratch;
  for (const std::vector<VarId>& component : ConnectedComponents(image, free_vars)) {
    const size_t n = component.size();
    if (!Enumerated(n, options)) continue;
    const size_t offset = exact.cdf.size();
    exact.cdf.resize(offset + (size_t{1} << n));
    const std::span<double> table(exact.cdf.data() + offset, size_t{1} << n);
    inference::EnumerateMarginals(&world, component, &scratch,
                                  &snap.materialized_marginals, table);
    std::partial_sum(table.begin(), table.end(), table.begin());
    const double total = table.back();
    for (double& entry : table) entry /= total;
    exact.vars.insert(exact.vars.end(), component.begin(), component.end());
    exact.begin.push_back(exact.vars.size());
    for (VarId v : component) enumerated[v] = true;
  }
  std::vector<VarId> chain_vars;
  for (VarId v : free_vars) {
    if (!enumerated[v]) chain_vars.push_back(v);
  }
  snap.stats.exact_vars = exact.vars.size();
  snap.stats.chain_vars = chain_vars.size();

  if (!options.load_sample_store.empty()) {
    // Overnight-materialization reuse: a persisted store stands in for the
    // sampling chain and the draws. Width validation keeps a store
    // materialized for one graph from being replayed against a
    // differently-shaped one.
    DD_ASSIGN_OR_RETURN(
        snap.store,
        SampleStore::Load(options.load_sample_store, graph.NumVariables()));
    snap.stats.store_loaded = true;
  } else {
    // Sampling materialization: draw as many samples as the budget allows.
    // The interrupt hook enforces the time budget between samples, and
    // during the chain's burn-in as well, and doubles as the cancellation
    // point for superseded background builds (with replicas it is polled
    // from replica workers, which this atomic-flag + monotonic-timer hook
    // tolerates).
    inference::GibbsOptions gopts;
    gopts.burn_in_sweeps = options.gibbs_burn_in;
    gopts.seed = options.seed;
    gopts.interrupt = [&] {
      return cancelled() || (options.time_budget_seconds > 0 &&
                             timer.Seconds() > options.time_budget_seconds);
    };
    Rng draw_rng(Rng::MixSeed(options.seed, kExactDrawStream));
    const auto emit = [&](BitVector sample) {
      exact.Draw(&draw_rng, &sample);
      snap.store.Add(std::move(sample));
    };
    if (exact.vars.empty() || !chain_vars.empty()) {
      // With nothing enumerated the chain sweeps the whole graph.
      inference::ReplicatedGibbsSampler sampler(&image, parallelism);
      sampler.SampleChain(
          gopts, options.num_samples, options.gibbs_thin,
          [&](const BitVector& bits) {
            emit(bits);
            return !gopts.interrupt();
          },
          exact.vars.empty() ? nullptr : &chain_vars);
    } else {
      // Every free variable is enumerated: a sample is the evidence labels
      // plus one draw per component.
      BitVector labels(image.NumVariables());
      for (VarId v = 0; v < image.NumVariables(); ++v) {
        const auto ev = image.EvidenceValue(v);
        if (ev.has_value()) labels.Set(v, *ev);
      }
      while (snap.store.size() < options.num_samples && !gopts.interrupt()) emit(labels);
    }
  }
  if (cancelled()) return Status::FailedPrecondition("materialization cancelled");

  // Materialized marginals: exact for the enumerated components (above),
  // sample averages for the rest, labels for evidence.
  if (!snap.store.empty()) {
    std::vector<double> sums(graph.NumVariables(), 0.0);
    for (size_t s = 0; s < snap.store.size(); ++s) {
      const BitVector& bits = snap.store.sample(s);
      for (VarId v : chain_vars) sums[v] += bits.Get(v) ? 1.0 : 0.0;
    }
    for (VarId v : chain_vars) {
      snap.materialized_marginals[v] = sums[v] / static_cast<double>(snap.store.size());
    }
  }
  for (VarId v = 0; v < graph.NumVariables(); ++v) {
    const auto ev = graph.EvidenceValue(v);
    if (ev.has_value()) snap.materialized_marginals[v] = *ev ? 1.0 : 0.0;
  }

  // Variational materialization.
  VariationalOptions vopts = options.variational;
  vopts.seed = Rng::MixSeed(options.seed, /*stream=*/101);
  auto vmat =
      VariationalMaterialization::Materialize(graph, image, vopts, parallelism.num_threads);
  if (vmat.ok()) {
    snap.variational = std::move(vmat).value();
  } else {
    DD_LOG(Warning) << "variational materialization failed: "
                    << vmat.status().ToString();
  }
  if (cancelled()) return Status::FailedPrecondition("materialization cancelled");

  if (!options.save_sample_store.empty() && !snap.stats.store_loaded) {
    // (A loaded store is skipped outright: rewriting byte-identical content
    // would only open a truncation window on the file it was read from.)
    if (snap.store.empty() || cancelled()) {
      // Never truncate a (possibly good) persisted store with the output of
      // a budget-starved or cancelled build.
      DD_LOG(Warning) << "not saving sample store to '"
                      << options.save_sample_store
                      << "': " << (snap.store.empty() ? "no samples collected"
                                                      : "build cancelled");
    } else {
      // Persistence is an optional step: a failed write (unwritable path,
      // disk full) must not discard the otherwise valid snapshot — same
      // policy as a failed variational build above.
      const Status saved = snap.store.Save(options.save_sample_store);
      if (!saved.ok()) {
        DD_LOG(Warning) << "failed to save sample store: " << saved.ToString();
      }
    }
  }

  snap.stats.samples_collected = snap.store.size();
  snap.stats.sample_bytes = snap.store.ByteSize();
  snap.stats.variational_edges = snap.variational ? snap.variational->NumEdges() : 0;
  snap.stats.seconds = timer.Seconds();
  return snapshot;
}

}  // namespace deepdive::incremental
