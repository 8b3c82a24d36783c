#ifndef DEEPDIVE_KBC_SNAPSHOTS_H_
#define DEEPDIVE_KBC_SNAPSHOTS_H_

#include <string>
#include <vector>

#include "incremental/optimizer.h"
#include "kbc/pipeline.h"

namespace deepdive::kbc {

/// One row of the Figure 9 table: a rule update executed by both systems.
struct SnapshotRow {
  std::string rule;
  double rerun_seconds = 0.0;
  double incremental_seconds = 0.0;
  double speedup = 0.0;
  double rerun_f1 = 0.0;
  double incremental_f1 = 0.0;
  incremental::Strategy strategy = incremental::Strategy::kSampling;
  double acceptance_rate = -1.0;
  /// The incremental update's affected variables, and of those it swept
  /// variationally, the ones enumerated exactly and the ones sampled.
  size_t affected_vars = 0;
  size_t exact_vars = 0;
  size_t sampled_vars = 0;
  /// Cumulative wall clock after this update (Figure 10(a) x-axis).
  double rerun_cumulative = 0.0;
  double incremental_cumulative = 0.0;
  /// Marginal agreement between the two executions (Section 4.2).
  double high_confidence_agreement = 1.0;
  double fraction_differing_05 = 0.0;
};

struct SnapshotComparison {
  std::vector<SnapshotRow> rows;
  double rerun_total_seconds = 0.0;
  double incremental_total_seconds = 0.0;
  double materialization_seconds = 0.0;
};

/// Runs the six-update development loop (Figure 8) twice — Rerun vs
/// Incremental — on the same corpus, and collects the per-update timings,
/// qualities and agreement statistics of Section 4.2. Drives both pipelines'
/// update loops, so it runs on the serving thread.
StatusOr<SnapshotComparison> RunSnapshotComparison(const SystemProfile& profile,
                                                   const PipelineOptions& base_options)
    REQUIRES(serving_thread);

}  // namespace deepdive::kbc

#endif  // DEEPDIVE_KBC_SNAPSHOTS_H_
