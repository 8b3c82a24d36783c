// Figure 15 (Appendix B.2): number of samples the sampling materialization
// collects within a fixed wall-clock budget, per KBC system. The paper used
// an 8-hour overnight budget on a 48-core machine; this reproduction scales
// the budget to ~2 seconds per system on one core — the comparison target is
// the relative ordering (smaller/sparser graphs materialize more samples).
#include <cstdio>

#include "bench_common.h"
#include "incremental/engine.h"
#include "kbc/pipeline.h"
#include "util/thread_role.h"

namespace deepdive::bench {
namespace {

void Run() REQUIRES(serving_thread) {
  PrintHeader("Figure 15: samples materialized within a fixed budget");
  constexpr double kBudgetSeconds = 2.0;
  std::printf("(budget = %.1f s per system)\n", kBudgetSeconds);
  std::printf("%-14s | %10s %10s | %12s\n", "System", "#vars", "#factors",
              "#samples");
  for (const auto& profile : kbc::AllProfiles()) {
    kbc::SystemProfile scaled = profile;
    scaled.num_documents = std::min<size_t>(profile.num_documents, 250);
    kbc::PipelineOptions options;
    options.config = core::FastTestConfig();
    options.config.mode = core::ExecutionMode::kRerun;  // engine made below
    options.seed = 23;
    auto pipeline = kbc::KbcPipeline::Build(scaled, options);
    if (!pipeline.ok() || !(*pipeline)->Initialize().ok()) {
      std::printf("%-14s | build failed\n", profile.name.c_str());
      continue;
    }
    for (const std::string& rule : kbc::KbcPipeline::UpdateSequence()) {
      (void)(*pipeline)->ApplyUpdate(rule);
    }
    auto& dd = (*pipeline)->deepdive();
    incremental::IncrementalEngine engine(dd.mutable_graph());
    incremental::MaterializationOptions mopts;
    mopts.num_samples = 1000000000;  // budget-bound
    mopts.time_budget_seconds = kBudgetSeconds;
    mopts.gibbs_burn_in = 5;
    mopts.variational.num_samples = 10;  // keep the bench about sampling
    mopts.variational.fit_epochs = 5;
    if (!engine.Materialize(mopts).ok()) continue;
    std::printf("%-14s | %10zu %10zu | %12zu\n", profile.name.c_str(),
                dd.ground().graph.NumVariables(), dd.ground().graph.NumActiveClauses(),
                engine.snapshot()->stats.samples_collected);
  }
}

}  // namespace
}  // namespace deepdive::bench

int main() {
  // Trusted root: the bench main thread is the serving thread.
  deepdive::serving_thread.AssertHeld();
  deepdive::bench::Run();
  return 0;
}
