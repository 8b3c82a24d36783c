// Figure 11: lesion study of the materialization tradeoff space on News.
// Configurations: the full optimizer, sampling disabled, variational
// disabled, and NoWorkloadInfo (always try sampling first, fall back when
// samples run out — no per-update classification). Expected shape: each
// lesion is slower than the full system on some rule class; NoWorkloadInfo
// trails the optimizer.
// Emits BENCH_fig11_lesion.json (or --out PATH) with each update's strategy
// and learning-plus-inference seconds per configuration. Exits non-zero
// unless the full optimizer serves FE1 and FE2 by sampling and I1, S1 and S2
// variationally, NoSampling serves no write by sampling and NoVariational
// none variationally; A1, the analysis-only write, is exempt.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "kbc/pipeline.h"
#include "util/thread_role.h"

namespace deepdive::bench {
namespace {

using incremental::Strategy;

struct Config {
  const char* name;
  bool sampling_enabled;
  bool variational_enabled;
  bool force_sampling_first;  // NoWorkloadInfo
};

struct Row {
  std::string rule;
  bool ok = false;
  Strategy strategy = Strategy::kRerun;
  double seconds = 0.0;
};

struct ConfigResult {
  const Config* config;
  bool built = false;
  std::vector<Row> rows = {};
};

/// Empty when `row` keeps the gate: a failed update breaks it; otherwise a
/// disabled strategy serves nothing, and the full optimizer follows Section
/// 3.3, sampling for the feature rules and the variational approach for the
/// inference and supervision rules. A1 is exempt.
std::string GateViolation(const Config& config, const Row& row) {
  if (!row.ok) return "update failed";
  if (row.rule == "A1") return "";
  if (!config.sampling_enabled && row.strategy == Strategy::kSampling) {
    return "sampling is disabled";
  }
  if (!config.variational_enabled && row.strategy == Strategy::kVariational) {
    return "variational is disabled";
  }
  if (config.sampling_enabled && config.variational_enabled && !config.force_sampling_first) {
    const bool feature_rule = row.rule == "FE1" || row.rule == "FE2";
    const Strategy expected = feature_rule ? Strategy::kSampling : Strategy::kVariational;
    if (row.strategy != expected) {
      return std::string("the optimizer picks ") + incremental::StrategyName(expected);
    }
  }
  return "";
}

std::vector<ConfigResult> Run(const std::vector<Config>& configs) REQUIRES(serving_thread) {
  PrintHeader("Figure 11: lesion study on News (inference seconds per rule)");
  kbc::SystemProfile profile = kbc::ProfileFor(kbc::SystemKind::kNews);
  profile.num_documents = 200;

  std::printf("%-15s", "Config");
  for (const std::string& rule : kbc::KbcPipeline::UpdateSequence()) {
    std::printf(" %9s", rule.c_str());
  }
  std::printf(" %10s\n", "total");

  std::vector<ConfigResult> results;
  for (const Config& config : configs) {
    ConfigResult& result = results.emplace_back(ConfigResult{&config});
    kbc::PipelineOptions options;
    options.config = core::FastTestConfig();
    options.config.mode = core::ExecutionMode::kIncremental;
    options.config.engine.optimizer.sampling_enabled = config.sampling_enabled;
    options.config.engine.optimizer.variational_enabled = config.variational_enabled;
    if (config.force_sampling_first) {
      options.config.engine.forced_strategy = Strategy::kSampling;
    }
    options.seed = 15;

    auto pipeline = kbc::KbcPipeline::Build(profile, options);
    if (!pipeline.ok() || !(*pipeline)->Initialize().ok()) {
      std::printf("%-15s build failed\n", config.name);
      continue;
    }
    result.built = true;
    std::printf("%-15s", config.name);
    double total = 0.0;
    for (const std::string& rule : kbc::KbcPipeline::UpdateSequence()) {
      Row& row = result.rows.emplace_back(Row{rule});
      auto report = (*pipeline)->ApplyUpdate(rule);
      if (!report.ok()) {
        std::printf(" %9s", "fail");
        continue;
      }
      row.ok = true;
      row.strategy = report->strategy;
      row.seconds = report->learning_seconds + report->inference_seconds;
      total += row.seconds;
      std::printf(" %9.3f", row.seconds);
    }
    std::printf(" %10.3f\n", total);
  }

  std::printf("\nStrategy per update:\n");
  for (const ConfigResult& result : results) {
    std::printf("%-15s", result.config->name);
    for (const Row& row : result.rows) {
      std::printf(" %s=%s", row.rule.c_str(),
                  row.ok ? incremental::StrategyName(row.strategy) : "fail");
    }
    std::printf("\n");
  }
  return results;
}

int Main(int argc, char** argv) REQUIRES(serving_thread) {
  std::string out_path = "BENCH_fig11_lesion.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return 2;
    }
  }

  const std::vector<Config> configs = {
      {"Full", true, true, false},
      {"NoSampling", false, true, false},
      {"NoVariational", true, false, false},
      {"NoWorkloadInfo", true, true, true},
  };
  const std::vector<ConfigResult> results = Run(configs);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"fig11_lesion\",\n  \"configs\": [\n");
  for (size_t c = 0; c < results.size(); ++c) {
    const ConfigResult& result = results[c];
    std::fprintf(out, "    {\"name\": \"%s\", \"built\": %s, \"updates\": [\n",
                 result.config->name, result.built ? "true" : "false");
    for (size_t r = 0; r < result.rows.size(); ++r) {
      const Row& row = result.rows[r];
      std::fprintf(out, "      {\"rule\": \"%s\", \"strategy\": \"%s\", \"seconds\": %.6f}%s\n",
                   row.rule.c_str(), row.ok ? incremental::StrategyName(row.strategy) : "fail",
                   row.seconds, r + 1 < result.rows.size() ? "," : "");
    }
    std::fprintf(out, "    ]}%s\n", c + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());

  int status = 0;
  for (const ConfigResult& result : results) {
    if (!result.built) {
      std::fprintf(stderr, "LESION VIOLATION: %s did not build\n", result.config->name);
      status = 1;
    }
    for (const Row& row : result.rows) {
      const std::string violation = GateViolation(*result.config, row);
      if (violation.empty()) continue;
      std::fprintf(stderr, "LESION VIOLATION: %s %s reports %s, but %s\n", result.config->name,
                   row.rule.c_str(), row.ok ? incremental::StrategyName(row.strategy) : "fail",
                   violation.c_str());
      status = 1;
    }
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
