#include "kbc/snapshots.h"

#include "core/config.h"
#include "util/logging.h"

namespace deepdive::kbc {

StatusOr<SnapshotComparison> RunSnapshotComparison(const SystemProfile& profile,
                                                   const PipelineOptions& base_options) {
  SnapshotComparison result;

  PipelineOptions rerun_options = base_options;
  rerun_options.config.mode = core::ExecutionMode::kRerun;
  PipelineOptions inc_options = base_options;
  inc_options.config.mode = core::ExecutionMode::kIncremental;

  DD_ASSIGN_OR_RETURN(std::unique_ptr<KbcPipeline> rerun,
                      KbcPipeline::Build(profile, rerun_options));
  DD_ASSIGN_OR_RETURN(std::unique_ptr<KbcPipeline> inc,
                      KbcPipeline::Build(profile, inc_options));
  DD_RETURN_IF_ERROR(rerun->Initialize());
  DD_RETURN_IF_ERROR(inc->Initialize());
  result.materialization_seconds =
      inc->deepdive().Query()->materialization.seconds;

  double rerun_cum = 0.0, inc_cum = 0.0;
  for (const std::string& rule : KbcPipeline::UpdateSequence()) {
    SnapshotRow row;
    row.rule = rule;

    DD_ASSIGN_OR_RETURN(incremental::UpdateReport rr, rerun->ApplyUpdate(rule));
    DD_ASSIGN_OR_RETURN(incremental::UpdateReport ir, inc->ApplyUpdate(rule));

    // The paper's Figure 9 reports statistical inference + learning time.
    row.rerun_seconds = rr.learning_seconds + rr.inference_seconds;
    row.incremental_seconds = ir.learning_seconds + ir.inference_seconds;
    row.speedup = row.incremental_seconds > 0
                      ? row.rerun_seconds / row.incremental_seconds
                      : 0.0;
    row.strategy = ir.strategy;
    row.acceptance_rate = ir.acceptance_rate;
    row.affected_vars = ir.affected_vars;
    row.exact_vars = ir.exact_vars;
    row.sampled_vars = ir.sampled_vars;

    rerun_cum += rr.TotalSeconds();
    inc_cum += ir.TotalSeconds();
    row.rerun_cumulative = rerun_cum;
    row.incremental_cumulative = inc_cum;

    row.rerun_f1 = rerun->EvaluateMentions(0.5).f1;
    row.incremental_f1 = inc->EvaluateMentions(0.5).f1;

    const std::vector<double> pm = rerun->QueryMarginals();
    const std::vector<double> qm = inc->QueryMarginals();
    if (pm.size() == qm.size() && !pm.empty()) {
      row.high_confidence_agreement = HighConfidenceAgreement(pm, qm, 0.9);
      row.fraction_differing_05 = FractionDiffering(pm, qm, 0.05);
    }
    result.rows.push_back(row);
  }
  result.rerun_total_seconds = rerun_cum;
  result.incremental_total_seconds = inc_cum;
  return result;
}

}  // namespace deepdive::kbc
