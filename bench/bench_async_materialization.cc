// Update latency with and without background rematerialization (the paper's
// Section 3.3 "materialize during idle time" story). A drifting update
// stream drains the sample store; the blocking configuration pays the full
// rebuild inline on the update that triggers it, while the async
// configuration schedules the rebuild on the background worker and keeps
// serving from the previous snapshot — per-update latency stays flat.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "incremental/engine.h"
#include "util/logging.h"
#include "util/timer.h"
#include "util/thread_role.h"

namespace deepdive::bench {
namespace {

using factor::FactorGraph;
using factor::GraphDelta;
using factor::VarId;
using incremental::EngineOptions;
using incremental::IncrementalEngine;
using incremental::MaterializationOptions;

constexpr size_t kVars = 400;
constexpr size_t kUpdates = 24;
constexpr size_t kStoreSamples = 600;

MaterializationOptions BenchMaterialization() {
  MaterializationOptions mopts;
  mopts.num_samples = kStoreSamples;
  mopts.gibbs_burn_in = 150;
  mopts.variational.num_samples = 150;
  mopts.variational.fit_epochs = 80;
  return mopts;
}

EngineOptions BenchEngine() {
  EngineOptions eopts;
  eopts.mh_target_steps = 120;
  eopts.gibbs.burn_in_sweeps = 20;
  eopts.gibbs.sample_sweeps = 200;
  eopts.rerun_gibbs.burn_in_sweeps = 50;
  eopts.rerun_gibbs.sample_sweeps = 400;
  return eopts;
}

GraphDelta DriftUpdate(FactorGraph* g, size_t u) {
  // New learnable feature factors: the sampling path serves them, acceptance
  // decays with drift, and the store drains a bit on every update.
  GraphDelta delta;
  Rng rng(1000 + u);
  for (int i = 0; i < 4; ++i) {
    const auto head = static_cast<VarId>(rng.UniformInt(kVars));
    auto body = static_cast<VarId>(rng.UniformInt(kVars));
    if (body == head) body = (body + 1) % kVars;
    delta.new_groups.push_back(g->AddSimpleFactor(
        head, {{body, false}},
        g->AddWeight(rng.Uniform(-0.6, 0.6), /*learnable=*/true)));
  }
  return delta;
}

struct RunResult {
  std::vector<double> update_ms;
  size_t remats = 0;
};

/// Drives the update stream. `async` toggles the tentpole: when false, an
/// exhausted store forces a blocking Materialize on the next update (the
/// historical behavior); when true, the engine's remat trigger rebuilds in
/// the background while updates keep flowing.
RunResult RunStream(bool async) REQUIRES(serving_thread) {
  FactorGraph g = PairwiseGraph(kVars, 0.8, 7);
  IncrementalEngine engine(&g);
  MaterializationOptions mopts = BenchMaterialization();
  mopts.async = async;
  mopts.remat_on_exhaustion = async;
  DD_CHECK_OK(engine.Materialize(mopts));

  RunResult result;
  const uint64_t start_generation = engine.snapshot()->generation;
  for (size_t u = 0; u < kUpdates; ++u) {
    const GraphDelta delta = DriftUpdate(&g, u);
    Timer timer;
    if (!async && engine.snapshot()->store.remaining() == 0) {
      // Blocking remat: the caller eats the whole rebuild latency.
      DD_CHECK_OK(engine.Materialize(mopts));
      ++result.remats;
    }
    auto outcome = engine.ApplyDelta(delta, BenchEngine());
    DD_CHECK_OK(outcome.status());
    result.update_ms.push_back(timer.Seconds() * 1e3);
  }
  DD_CHECK_OK(engine.WaitForMaterialization());
  if (async) {
    result.remats = engine.snapshot()->generation - start_generation;
  }
  return result;
}

void Summarize(const char* label, const RunResult& result) {
  std::vector<double> sorted = result.update_ms;
  std::sort(sorted.begin(), sorted.end());
  double total = 0.0;
  for (double ms : sorted) total += ms;
  std::printf("%-22s avg %8.2f ms   p50 %8.2f ms   max %8.2f ms   remats %zu\n",
              label, total / static_cast<double>(sorted.size()),
              sorted[sorted.size() / 2], sorted.back(), result.remats);
}

void Run() REQUIRES(serving_thread) {
  PrintHeader("Update latency: blocking vs background rematerialization");
  std::printf("%zu-variable graph, %zu drifting updates, %zu-sample store\n\n",
              kVars, kUpdates, kStoreSamples);
  const RunResult blocking = RunStream(/*async=*/false);
  const RunResult background = RunStream(/*async=*/true);
  Summarize("blocking remat", blocking);
  Summarize("background remat", background);
  std::printf(
      "\nmax-latency ratio (blocking / background): %.1fx\n",
      *std::max_element(blocking.update_ms.begin(), blocking.update_ms.end()) /
          *std::max_element(background.update_ms.begin(),
                            background.update_ms.end()));
}

}  // namespace
}  // namespace deepdive::bench

int main() {
  // Trusted root: the bench main thread is the serving thread.
  deepdive::serving_thread.AssertHeld();
  deepdive::bench::Run();
  return 0;
}
