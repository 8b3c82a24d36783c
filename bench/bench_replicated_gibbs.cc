// Replica-count sweep for the NUMA-style replicated Gibbs sampler: sweep
// throughput and marginal quality vs. the shared-world Hogwild sampler on
// the synthetic pairwise workload. Two axes:
//   (1) fixed one-thread-per-replica scaling (each added replica is an
//       independent private-world chain — the per-socket model), and
//   (2) a fixed total thread budget split across replica counts (how much
//       of the budget to spend on replication vs. intra-replica Hogwild).
// Meaningful speedups need a multi-core host; on a single-core container
// the replica workers serialize and the interesting column is the marginal
// error, which should stay flat across replica counts.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "factor/compiled_graph.h"
#include "inference/gibbs.h"
#include "inference/replicated_gibbs.h"
#include "util/timer.h"

namespace deepdive::bench {
namespace {

using inference::GibbsOptions;
using inference::MarginalResult;
using inference::ReplicatedGibbsSampler;

double MeanAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::abs(a[i] - b[i]);
  return a.empty() ? 0.0 : sum / static_cast<double>(a.size());
}

void Run() {
  const size_t kVars = 20000;
  const size_t kBurn = 20;
  const size_t kSamples = 60;
  const factor::CompiledGraph g =
      factor::CompiledGraph::Compile(PairwiseGraph(kVars, 1.0, /*seed=*/7));

  GibbsOptions options;
  options.burn_in_sweeps = kBurn;
  options.sample_sweeps = kSamples;
  options.seed = 11;
  constexpr size_t kSyncEvery = 20;

  // Sequential reference for the quality column.
  ReplicatedGibbsSampler reference(&g);
  const MarginalResult ref = reference.EstimateMarginals(options);

  const double total_sweeps = static_cast<double>(kBurn + kSamples);

  PrintHeader("replica scaling (1 thread per replica)");
  std::printf("%-10s %-10s %-12s %-14s %-10s\n", "replicas", "threads",
              "seconds", "sweeps/s", "mad");
  for (size_t replicas : {1u, 2u, 4u, 8u}) {
    ReplicatedGibbsSampler sampler(
        &g, {.num_threads = replicas, .num_replicas = replicas, .sync_every_sweeps = kSyncEvery});
    Timer timer;
    const MarginalResult result = sampler.EstimateMarginals(options);
    const double secs = timer.Seconds();
    // Every replica runs the full schedule, so useful chain throughput is
    // replicas * schedule / wall time.
    std::printf("%-10zu %-10zu %-12.3f %-14.1f %-10.4f\n", replicas, replicas,
                secs, static_cast<double>(replicas) * total_sweeps / secs,
                MeanAbsDiff(result.marginals, ref.marginals));
  }

  PrintHeader("fixed budget of 8 threads, split across replicas");
  std::printf("%-10s %-14s %-12s %-14s %-10s\n", "replicas", "thr/replica",
              "seconds", "sweeps/s", "mad");
  for (size_t replicas : {1u, 2u, 4u, 8u}) {
    ReplicatedGibbsSampler sampler(
        &g, {.num_threads = 8, .num_replicas = replicas, .sync_every_sweeps = kSyncEvery});
    Timer timer;
    const MarginalResult result = sampler.EstimateMarginals(options);
    const double secs = timer.Seconds();
    std::printf("%-10zu %-14zu %-12.3f %-14.1f %-10.4f\n", replicas,
                sampler.threads_per_replica(), secs,
                static_cast<double>(replicas) * total_sweeps / secs,
                MeanAbsDiff(result.marginals, ref.marginals));
  }
}

}  // namespace
}  // namespace deepdive::bench

int main() {
  deepdive::bench::Run();
  return 0;
}
