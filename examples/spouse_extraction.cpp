// End-to-end KBC run on a synthetic news corpus (the Figure 1 pipeline):
// corpus -> candidate generation -> feature extraction -> distant
// supervision -> grounding -> learning -> inference -> calibrated KB, with
// precision/recall/F1 and a calibration table at the end.
//
// Build & run:  ./build/examples/spouse_extraction
#include <cstdio>

#include "kbc/pipeline.h"
#include "util/thread_role.h"

int main() {
  // Trusted root: the example runs single-threaded on the serving thread.
  deepdive::serving_thread.AssertHeld();
  using namespace deepdive;

  kbc::SystemProfile profile = kbc::ProfileFor(kbc::SystemKind::kNews);
  profile.num_documents = 200;

  kbc::PipelineOptions options;
  options.config = core::FastTestConfig();
  options.config.mode = core::ExecutionMode::kIncremental;
  options.semantics = dsl::Semantics::kRatio;
  options.seed = 2026;

  auto pipeline = kbc::KbcPipeline::Build(profile, options);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
    return 1;
  }
  if (auto s = (*pipeline)->Initialize(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("corpus: %zu sentences, %zu gold pairs (%zu in the distant KB)\n",
              (*pipeline)->corpus().sentences.size(),
              (*pipeline)->corpus().true_pairs.size(),
              (*pipeline)->corpus().known_pairs.size());

  // Develop the system through the six updates of Figure 8.
  for (const std::string& rule : kbc::KbcPipeline::UpdateSequence()) {
    auto report = (*pipeline)->ApplyUpdate(rule);
    if (!report.ok()) {
      std::fprintf(stderr, "update %s: %s\n", rule.c_str(),
                   report.status().ToString().c_str());
      return 1;
    }
    const auto pr = (*pipeline)->EvaluateMentions(0.5);
    std::printf(
        "after %-4s  strategy=%-11s  ground=%.3fs learn=%.3fs infer=%.3fs  "
        "P=%.2f R=%.2f F1=%.2f\n",
        rule.c_str(), incremental::StrategyName(report->strategy),
        report->grounding_seconds, report->learning_seconds,
        report->inference_seconds, pr.precision, pr.recall, pr.f1);
  }

  // Fact-level output.
  const auto facts = (*pipeline)->EvaluateFacts(0.9);
  std::printf("\nfact level at p>0.9: precision=%.2f recall=%.2f f1=%.2f\n",
              facts.precision, facts.recall, facts.f1);

  // Calibration: probabilities should track empirical accuracy (Section 1).
  std::vector<double> probs;
  std::vector<bool> truth;
  const auto& corpus = (*pipeline)->corpus();
  const auto view = (*pipeline)->deepdive().Query();
  for (const auto& [tuple, p] : *view->Relation("HasSpouse")) {
    const int64_t sent = tuple[0].AsInt() / kbc::kMentionStride;
    if (sent < 0 || static_cast<size_t>(sent) >= corpus.sentences.size()) continue;
    probs.push_back(p);
    truth.push_back(corpus.sentences[static_cast<size_t>(sent)].expresses_relation);
  }
  std::printf("\ncalibration (bucket, count, mean p, empirical accuracy):\n");
  for (const auto& bucket : kbc::CalibrationCurve(probs, truth, 5)) {
    if (bucket.count == 0) continue;
    std::printf("  [%.1f, %.1f)  %5zu  %.2f  %.2f\n", bucket.lo, bucket.hi,
                bucket.count, bucket.mean_probability, bucket.empirical_accuracy);
  }

  // Error analysis (Section 2.2): what would the developer fix next?
  const auto errors = (*pipeline)->AnalyzeErrors(0.5, 3);
  std::printf("\nerror analysis: %zu/%zu correct at p>=0.5\n", errors.total_correct,
              errors.total_predictions);
  std::printf("top confident false positives:\n");
  for (const auto& e : errors.false_positives) {
    std::printf("  p=%.2f  %s  features: ", e.marginal,
                TupleToString(e.mention_pair).c_str());
    for (const auto& f : e.features) std::printf("%s ", f.c_str());
    std::printf("\n");
  }
  std::printf("strongest features (weight, precision, fires):\n");
  size_t shown = 0;
  for (const auto& s : errors.feature_stats) {
    if (++shown > 5) break;
    std::printf("  %+0.2f  %.2f  %4zu  %s\n", s.weight, s.precision,
                s.on_true + s.on_false, s.feature.c_str());
  }
  return 0;
}
