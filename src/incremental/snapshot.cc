#include "incremental/snapshot.h"

#include <utility>

#include "factor/compiled_graph.h"
#include "inference/replicated_gibbs.h"
#include "util/logging.h"
#include "util/timer.h"

namespace deepdive::incremental {

using factor::VarId;

StatusOr<std::shared_ptr<MaterializationSnapshot>> BuildMaterializationSnapshot(
    const factor::FactorGraph& graph, const MaterializationOptions& options,
    const std::atomic<bool>* cancel) {
  Timer timer;
  auto snapshot = std::make_shared<MaterializationSnapshot>();
  MaterializationSnapshot& snap = *snapshot;
  snap.graph_width = graph.NumVariables();

  const auto cancelled = [cancel] {
    // ordering: relaxed — best-effort poll; a stale read only delays
    // cancellation by one sweep, and the discard decision is serialized
    // with the canceller under the engine's handoff mutex.
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  };
  // One compiled image serves the sampling chain and the variational draw.
  const factor::CompiledGraph image = factor::CompiledGraph::Compile(graph);

  if (!options.load_sample_store.empty()) {
    // Overnight-materialization reuse: a persisted store stands in for the
    // sampling chain. Width validation keeps a store materialized for one
    // graph from being replayed against a differently-shaped one.
    DD_ASSIGN_OR_RETURN(
        snap.store,
        SampleStore::Load(options.load_sample_store, graph.NumVariables()));
    snap.stats.store_loaded = true;
  } else {
    // Sampling materialization: draw as many samples as the budget allows.
    // The chain runs through the replicated sampler — num_replicas == 1 and
    // num_threads == 1 keep the historical sequential chain bit-for-bit;
    // more threads Hogwild the sweeps, more replicas draw round-robin from
    // private-world chains with periodic consensus averaging. The interrupt
    // hook enforces the time budget during burn-in as well as between
    // samples, and doubles as the cancellation point for superseded
    // background builds (with replicas it is polled from replica workers,
    // which this atomic-flag + monotonic-timer hook tolerates).
    inference::GibbsOptions gopts;
    gopts.burn_in_sweeps = options.gibbs_burn_in;
    gopts.seed = options.seed;
    gopts.num_threads = options.num_threads;
    gopts.num_replicas = options.num_replicas;
    gopts.sync_every_sweeps = options.sync_every_sweeps;
    gopts.interrupt = [&] {
      return cancelled() || (options.time_budget_seconds > 0 &&
                             timer.Seconds() > options.time_budget_seconds);
    };
    inference::ReplicatedGibbsSampler sampler(&image, gopts.num_replicas,
                                              gopts.num_threads);
    sampler.SampleChain(gopts, options.num_samples, options.gibbs_thin,
                        [&](const BitVector& bits) {
                          snap.store.Add(bits);
                          return !gopts.interrupt();
                        });
  }
  if (cancelled()) return Status::FailedPrecondition("materialization cancelled");

  // Materialized marginals: sample averages.
  snap.materialized_marginals.assign(graph.NumVariables(), 0.5);
  if (!snap.store.empty()) {
    std::vector<double> sums(graph.NumVariables(), 0.0);
    for (size_t s = 0; s < snap.store.size(); ++s) {
      const BitVector& bits = snap.store.sample(s);
      for (VarId v = 0; v < graph.NumVariables(); ++v) {
        sums[v] += bits.Get(v) ? 1.0 : 0.0;
      }
    }
    for (VarId v = 0; v < graph.NumVariables(); ++v) {
      snap.materialized_marginals[v] =
          sums[v] / static_cast<double>(snap.store.size());
    }
  }
  for (VarId v = 0; v < graph.NumVariables(); ++v) {
    const auto ev = graph.EvidenceValue(v);
    if (ev.has_value()) snap.materialized_marginals[v] = *ev ? 1.0 : 0.0;
  }

  // Variational materialization.
  VariationalOptions vopts = options.variational;
  vopts.seed = Rng::MixSeed(options.seed, /*stream=*/101);
  auto vmat = VariationalMaterialization::Materialize(graph, image, vopts);
  if (vmat.ok()) {
    snap.variational = std::move(vmat).value();
  } else {
    DD_LOG(Warning) << "variational materialization failed: "
                    << vmat.status().ToString();
  }
  if (cancelled()) return Status::FailedPrecondition("materialization cancelled");

  // Optional strawman (tiny graphs only).
  if (options.materialize_strawman) {
    auto sm = StrawmanMaterialization::Materialize(graph);
    if (sm.ok()) {
      snap.strawman = std::move(sm).value();
      snap.stats.strawman_built = true;
    }
  }

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
