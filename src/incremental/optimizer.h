#ifndef DEEPDIVE_INCREMENTAL_OPTIMIZER_H_
#define DEEPDIVE_INCREMENTAL_OPTIMIZER_H_

namespace deepdive::incremental {

enum class Strategy {
  kSampling,
  kVariational,
  kRerun,      // full Gibbs from scratch (the baseline executor)
};

const char* StrategyName(Strategy strategy);

/// Flags for the lesion studies of Section 4.3 (Figure 11). The rule-based
/// optimizer of Section 3.3 that reads them is IncrementalEngine's per-write
/// classifier (see IncrementalEngine::ExecuteUpdate): it assigns each
/// component the cumulative delta touches to sampling, variational or rerun.
struct OptimizerConfig {
  bool sampling_enabled = true;
  bool variational_enabled = true;
};

}  // namespace deepdive::incremental

#endif  // DEEPDIVE_INCREMENTAL_OPTIMIZER_H_
