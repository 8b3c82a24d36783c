// Figure 6: quality (F1) and number of factors of the News system under
// different regularization parameters λ for the variational approach.
// λ is applied at materialization time; the six updates then run through
// the incremental engine, whose supervision steps execute on the λ-sparsified
// approximate graph. Expected shape: #factors decreases monotonically in λ;
// quality is flat over a "safe region" of small λ, then drops once the
// approximation loses the correlations that propagate evidence (here: the
// entity-level fact layer, measured by fact-level F1).
#include <cstdio>

#include "bench_common.h"
#include "kbc/pipeline.h"
#include "util/thread_role.h"

namespace deepdive::bench {
namespace {

void Run() REQUIRES(serving_thread) {
  PrintHeader("Figure 6: News quality and #factors vs lambda");
  std::printf("%10s | %12s | %10s %10s\n", "lambda", "approx edges", "mention F1",
              "fact F1");
  for (double lambda : {0.001, 0.01, 0.1, 1.0, 10.0}) {
    kbc::SystemProfile profile = kbc::ProfileFor(kbc::SystemKind::kNews);
    profile.num_documents = 200;
    kbc::PipelineOptions options;
    options.config = core::FastTestConfig();
    options.config.mode = core::ExecutionMode::kIncremental;
    options.config.materialization.variational.lambda = lambda;
    options.seed = 5;

    auto pipeline = kbc::KbcPipeline::Build(profile, options);
    if (!pipeline.ok() || !(*pipeline)->Initialize().ok()) {
      std::printf("build failed\n");
      return;
    }
    bool ok = true;
    for (const std::string& rule : kbc::KbcPipeline::UpdateSequence()) {
      ok = ok && (*pipeline)->ApplyUpdate(rule).ok();
    }
    if (!ok) {
      std::printf("%10g | update failed\n", lambda);
      continue;
    }
    std::printf("%10g | %12zu | %10.3f %10.3f\n", lambda,
                (*pipeline)->deepdive().Query()->materialization.variational_edges,
                (*pipeline)->EvaluateMentions(0.5).f1,
                (*pipeline)->EvaluateFacts(0.5).f1);
  }
  std::printf("\nThe λ search protocol (Section 3.2.3) starts small and grows λ\n"
              "tenfold until the marginal KL to the original exceeds a threshold;\n"
              "see incremental::SearchLambda (exercised in variational_test).\n");
}

}  // namespace
}  // namespace deepdive::bench

int main() {
  // Trusted root: the bench main thread is the serving thread.
  deepdive::serving_thread.AssertHeld();
  deepdive::bench::Run();
  return 0;
}
