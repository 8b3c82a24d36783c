#ifndef DEEPDIVE_INCREMENTAL_MH_SAMPLER_H_
#define DEEPDIVE_INCREMENTAL_MH_SAMPLER_H_

#include <vector>

#include "factor/factor_graph.h"
#include "factor/graph_delta.h"
#include "incremental/sample_store.h"
#include "util/random.h"
#include "util/status.h"

namespace deepdive::incremental {

struct MHOptions {
  /// Stop after this many chain steps (or when the store runs dry).
  size_t target_steps = 1000;
  /// If nonzero, additionally stop once this many proposals were *accepted*
  /// — the paper's cost model (SI effective samples cost SI/ρ proposals,
  /// Figure 5's sampling column).
  size_t target_accepted = 0;
  uint64_t seed = 11;
  /// If set, marginals are accumulated only for these variables (the
  /// decomposition optimization: untouched components keep materialized
  /// marginals, so the chain need not track them). Entries must be unique
  /// (the engine passes component expansions, which are). All untracked
  /// variables — evidence included — report exactly 0: the caller keeps its
  /// own values for everything outside the tracked set. The chain is
  /// sequential, and so is its accumulation: leaving a state adds the steps
  /// spent in it to an integer count per tracked variable the state sets.
  const std::vector<factor::VarId>* track_vars = nullptr;
};

struct MHResult {
  std::vector<double> marginals;
  size_t proposals = 0;
  size_t accepted = 0;
  double acceptance_rate = 0.0;
  /// True if the store ran out before target_steps proposals were made —
  /// the optimizer's "out of samples -> variational" trigger.
  bool exhausted = false;
};

/// The sampling approach's inference phase (Section 3.2.2): an independent
/// Metropolis-Hastings chain whose proposal distribution is the materialized
/// Pr(0) (realized by replaying stored samples). Because proposal and target
/// differ only by the delta, the acceptance test
///     a = min(1, exp(r(I') - r(I))),   r = log Pr(Δ)/Pr(0)
/// touches only ΔV/ΔF — no factor of the original graph is fetched. Each
/// Run compiles r once (factor::DeltaRatio), so a proposal costs the labels
/// the delta sets plus its nonzero-coefficient terms; an update that only
/// adds groups on weights still at 0 costs the labels alone.
///
/// Variables minted after Pr(0) have no stored coordinate. Each proposal is
/// extended onto them by one sequential Gibbs sweep in id order, starting
/// from false, so the extension's own proposal probability
///     log q = Σ log Pr(drawn value | values at its draw)
/// is known (new evidence variables take their labels and add 0), and the
/// test becomes a = min(1, exp((r(I') - log q(I')) - (r(I) - log q(I)))).
/// Only a single sweep from a fixed start has such a closed-form q.
class IndependentMH {
 public:
  IndependentMH(const factor::FactorGraph* graph, const factor::GraphDelta* delta);

  /// Consumes proposals from `store` (advancing its cursor). Marginals are
  /// averaged over the chain. Variables beyond the stored sample width are
  /// extended by one Gibbs sweep (see above).
  StatusOr<MHResult> Run(SampleStore* store, const MHOptions& options);

 private:
  const factor::FactorGraph* graph_;
  const factor::GraphDelta* delta_;
};

}  // namespace deepdive::incremental

#endif  // DEEPDIVE_INCREMENTAL_MH_SAMPLER_H_
