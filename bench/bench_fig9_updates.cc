// Figure 9: end-to-end efficiency of incremental inference and learning.
// For each of the five KBC systems and each rule update (Figure 8's
// templates A1, FE1, FE2, I1, S1, S2), the statistical-inference+learning
// time of Rerun vs Incremental and the speedup. Expected shape: A1 has the
// largest speedup (100% MH acceptance, no learning), FE/S/I rules speed up
// less; Incremental never loses.
// Emits BENCH_fig9_updates.json (or --out PATH) with each update's strategy,
// timings, swept variables answered exactly and by sampling, and agreement
// with Rerun. Exits non-zero when a variational update samples more than
// half of the variables it sweeps, or when more than 30% of News' marginals
// differ from Rerun's by over 0.05.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "kbc/snapshots.h"
#include "util/thread_role.h"

namespace deepdive::bench {
namespace {

constexpr double kMaxNewsFractionDiffering = 0.30;

bool Run(std::vector<kbc::SnapshotComparison>* results) REQUIRES(serving_thread) {
  PrintHeader("Figure 9: Rerun vs Incremental, inference+learning seconds per update");
  std::printf("%-5s", "Rule");
  for (const auto& profile : kbc::AllProfiles()) {
    std::printf(" | %-24s", profile.name.c_str());
  }
  std::printf("\n%-5s", "");
  for (size_t i = 0; i < 5; ++i) std::printf(" | %8s %8s %6s", "Rerun", "Inc.", "x");
  std::printf("\n");

  for (const auto& profile : kbc::AllProfiles()) {
    kbc::SystemProfile scaled = profile;
    scaled.num_documents = std::min<size_t>(profile.num_documents, 250);
    kbc::PipelineOptions options;
    options.config = core::FastTestConfig();
    options.seed = 11;
    auto result = kbc::RunSnapshotComparison(scaled, options);
    if (!result.ok()) {
      std::printf("snapshot comparison failed for %s: %s\n", profile.name.c_str(),
                  result.status().ToString().c_str());
      return false;
    }
    results->push_back(std::move(result).value());
  }

  const auto sequence = kbc::KbcPipeline::UpdateSequence();
  for (size_t r = 0; r < sequence.size(); ++r) {
    std::printf("%-5s", sequence[r].c_str());
    for (const auto& result : *results) {
      const kbc::SnapshotRow& row = result.rows[r];
      std::printf(" | %8.3f %8.3f %5.1fx", row.rerun_seconds, row.incremental_seconds,
                  row.speedup);
    }
    std::printf("\n");
  }

  std::printf("\nStrategy chosen by the optimizer (News column):\n");
  const auto& news = (*results)[1];
  for (const auto& row : news.rows) {
    std::printf("  %-4s -> %-12s acceptance=%.3f exact=%zu sampled=%zu of %zu affected\n",
                row.rule.c_str(), incremental::StrategyName(row.strategy),
                row.acceptance_rate, row.exact_vars, row.sampled_vars, row.affected_vars);
  }
  std::printf("\nMarginal agreement (Section 4.2, News): ");
  std::printf("high-conf agreement=%.3f, frac |dp|>0.05=%.3f\n",
              news.rows.back().high_confidence_agreement,
              news.rows.back().fraction_differing_05);
  std::printf("One-time materialization cost (News): %.3f s\n",
              news.materialization_seconds);
  return true;
}

int Main(int argc, char** argv) REQUIRES(serving_thread) {
  std::string out_path = "BENCH_fig9_updates.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return 2;
    }
  }

  std::vector<kbc::SnapshotComparison> results;
  if (!Run(&results)) return 1;

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  const auto profiles = kbc::AllProfiles();
  std::fprintf(out, "{\n  \"bench\": \"fig9_updates\",\n  \"systems\": [\n");
  for (size_t s = 0; s < results.size(); ++s) {
    std::fprintf(out, "    {\"name\": \"%s\", \"updates\": [\n", profiles[s].name.c_str());
    const auto& rows = results[s].rows;
    for (size_t r = 0; r < rows.size(); ++r) {
      const kbc::SnapshotRow& row = rows[r];
      std::fprintf(out,
                   "      {\"rule\": \"%s\", \"strategy\": \"%s\", \"rerun_s\": %.6f, "
                   "\"incremental_s\": %.6f, \"speedup\": %.2f, \"affected_vars\": %zu, "
                   "\"exact_vars\": %zu, \"sampled_vars\": %zu, "
                   "\"high_conf_agreement\": %.3f, \"frac_dp_over_05\": %.3f}%s\n",
                   row.rule.c_str(), incremental::StrategyName(row.strategy),
                   row.rerun_seconds, row.incremental_seconds, row.speedup,
                   row.affected_vars, row.exact_vars, row.sampled_vars,
                   row.high_confidence_agreement, row.fraction_differing_05,
                   r + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "    ]}%s\n", s + 1 < results.size() ? "," : "");
  }
  const kbc::SnapshotRow& news_last = results[1].rows.back();
  std::fprintf(out,
               "  ],\n  \"news_high_conf_agreement\": %.3f,\n"
               "  \"news_frac_dp_over_05\": %.3f\n}\n",
               news_last.high_confidence_agreement, news_last.fraction_differing_05);
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());

  int status = 0;
  for (size_t s = 0; s < results.size(); ++s) {
    for (const kbc::SnapshotRow& row : results[s].rows) {
      const size_t swept = row.exact_vars + row.sampled_vars;
      if (2 * row.sampled_vars > swept) {
        std::fprintf(stderr,
                     "SAMPLING VIOLATION: %s %s sampled %zu of %zu swept variables\n",
                     profiles[s].name.c_str(), row.rule.c_str(), row.sampled_vars, swept);
        status = 1;
      }
    }
  }
  if (news_last.fraction_differing_05 > kMaxNewsFractionDiffering) {
    std::fprintf(stderr,
                 "AGREEMENT VIOLATION: %.3f of News' marginals differ from Rerun's by "
                 "over 0.05 (limit %.2f)\n",
                 news_last.fraction_differing_05, kMaxNewsFractionDiffering);
    status = 1;
  }
  return status;
}

}  // namespace
}  // namespace deepdive::bench

int main(int argc, char** argv) {
  // Trusted root: the bench main thread is the serving thread.
  deepdive::serving_thread.AssertHeld();
  return deepdive::bench::Main(argc, argv);
}
