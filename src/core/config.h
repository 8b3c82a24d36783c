#ifndef DEEPDIVE_CORE_CONFIG_H_
#define DEEPDIVE_CORE_CONFIG_H_

#include <cstdint>

#include "incremental/engine.h"
#include "inference/gibbs.h"
#include "inference/learner.h"
#include "inference/parallelism.h"

namespace deepdive::core {

/// Execution mode: Incremental is the full system; Rerun re-grounds,
/// re-learns (cold) and re-infers from scratch on every update — the
/// baseline of Section 4.2.
enum class ExecutionMode { kIncremental, kRerun };

const char* ExecutionModeName(ExecutionMode mode);

struct DeepDiveConfig {
  ExecutionMode mode = ExecutionMode::kIncremental;

  /// Workers and model replicas of every stage: grounding (its thread count;
  /// bit-identical output at any), learning, initial inference,
  /// materialization and the engine's updates. The option structs below
  /// carry only each stage's schedule.
  inference::Parallelism parallelism;

  inference::GibbsOptions gibbs;
  inference::LearnerOptions learner;
  incremental::MaterializationOptions materialization;
  incremental::EngineOptions engine;

  /// Incremental updates use warmstart SGD with fewer epochs (Appendix B.3).
  size_t incremental_learning_epochs = 15;

  uint64_t seed = 42;
};

/// Scales the default option set down for small test graphs (fast CI runs).
DeepDiveConfig FastTestConfig();

}  // namespace deepdive::core

#endif  // DEEPDIVE_CORE_CONFIG_H_
