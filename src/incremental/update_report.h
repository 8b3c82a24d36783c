#ifndef DEEPDIVE_INCREMENTAL_UPDATE_REPORT_H_
#define DEEPDIVE_INCREMENTAL_UPDATE_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "incremental/optimizer.h"

namespace deepdive::incremental {

/// Timing/diagnostics for one update. Lives in the incremental module (below
/// core) so the ResultView layer (incremental/result_view.h) can embed a
/// copy of the publishing update's report without reaching up the layering.
struct UpdateReport {
  std::string label;
  double grounding_seconds = 0.0;   // view maintenance + factor grounding
  double learning_seconds = 0.0;
  double inference_seconds = 0.0;
  double TotalSeconds() const {
    return grounding_seconds + learning_seconds + inference_seconds;
  }
  Strategy strategy = Strategy::kRerun;
  double acceptance_rate = -1.0;
  size_t affected_vars = 0;
  /// Of the affected variables a variational update swept, those answered
  /// exactly by enumeration and those sampled by the Gibbs chain (in-process
  /// only; see UpdateOutcome).
  size_t exact_vars = 0;
  size_t sampled_vars = 0;
  /// Groundings emitted while applying this update. For a first-class rule
  /// addition this equals the new rule's match count — the witness that the
  /// add evaluated only that rule, not the whole program.
  uint64_t grounding_work = 0;
  /// Table rows and delta entries the rule-body joins of view maintenance
  /// and grounding enumerated for this update: the witness that the update's
  /// grounding cost follows the change, not the database size.
  uint64_t grounding_rows_visited = 0;
  size_t graph_variables = 0;
  size_t graph_factors = 0;  // active clauses
  /// Epoch of the ResultView this update published (DeepDive::Query()).
  /// Strictly increasing across the update history; 0 = not yet published.
  uint64_t epoch = 0;
};

}  // namespace deepdive::incremental

#endif  // DEEPDIVE_INCREMENTAL_UPDATE_REPORT_H_
