#include "mining/miner.h"

#include <utility>

#include "dsl/ast.h"
#include "inference/learner.h"

namespace deepdive::mining {

RuleMiner::RuleMiner(core::DeepDive* dd, MinerOptions options)
    : dd_(dd), options_(std::move(options)) {
  stats_.BindSchema(dd_->program());
  stats_.Rebuild(*dd_->db());
  dd_->SetRelationDeltaListener([this](const engine::RelationDeltas& deltas) {
    // Trusted root: DeepDive invokes the listener from inside ApplyUpdate,
    // which REQUIRES(serving_thread); the lambda boundary just hides the
    // capability from the analysis.
    serving_thread.AssertHeld();
    stats_.Observe(deltas);
  });
}

RuleMiner::~RuleMiner() { dd_->SetRelationDeltaListener(nullptr); }

StatusOr<MineReport> RuleMiner::Mine(size_t max_promotions) {
  MineReport report;
  std::vector<Candidate> candidates =
      GenerateCandidates(stats_, options_.candidates);
  report.candidates_considered = candidates.size();

  for (Candidate& candidate : candidates) {
    if (report.promoted.size() >= max_promotions) break;
    if (report.candidates_trialed >= options_.max_trials) break;
    if (promoted_.count(candidate.pattern) > 0) continue;
    auto rejected_it = rejected_.find(candidate.pattern);
    if (rejected_it != rejected_.end() &&
        candidate.support <= rejected_it->second) {
      continue;  // nothing new since the last rejection
    }

    const std::string label = "mined_" + std::to_string(next_label_id_++);
    candidate.rule.label = label;
    // Single code path with hand-written rules: the candidate travels as
    // canonical rule text through the same parse/validate/AddRule pipeline.
    const std::string source = dsl::FactorRuleToString(candidate.rule);

    // Deterministic score: evidence pseudo-log-likelihood loss before/after.
    // The candidate carries a fixed weight and the trial skips learning, so
    // the only model change is the rule itself — and a rejection's
    // RetractRule restores the pre-trial state exactly from the journal.
    inference::Learner learner(dd_->mutable_graph());
    const double loss_before = learner.EvidenceLoss();
    StatusOr<incremental::UpdateReport> added =
        dd_->AddRule(source, /*learn=*/false);
    if (!added.ok()) {
      rejected_[candidate.pattern] = candidate.support;
      continue;
    }
    ++report.candidates_trialed;
    const double loss_after = learner.EvidenceLoss();

    Trial trial;
    trial.label = label;
    trial.pattern = candidate.pattern;
    trial.support = candidate.support;
    trial.confidence = candidate.confidence;
    trial.gain = loss_before - loss_after;
    trial.acceptance = added->acceptance_rate;
    trial.promoted = trial.gain >= options_.min_likelihood_gain;

    if (trial.promoted) {
      promoted_[candidate.pattern] = label;
      report.promoted.push_back(label);
    } else {
      StatusOr<incremental::UpdateReport> retracted = dd_->RetractRule(label);
      if (!retracted.ok()) return retracted.status();
      rejected_[candidate.pattern] = candidate.support;
    }
    report.trials.push_back(std::move(trial));
  }

  report.program_version_after = dd_->program_version();
  return report;
}

}  // namespace deepdive::mining
