#ifndef DEEPDIVE_INFERENCE_PARALLELISM_H_
#define DEEPDIVE_INFERENCE_PARALLELISM_H_

#include <cstddef>

namespace deepdive::inference {

/// How many workers and model replicas one KB's stages use. Grounding,
/// learning, initial inference, materialization and the engine's updates all
/// run in one process on one machine's cores, so this is one decision per
/// KB: DeepDive hands the same value to every stage, and each stage's own
/// options carry only its schedule (burn-in, sweeps, seed, epochs).
struct Parallelism {
  /// Worker threads: 1 = sequential, 0 = one per hardware thread. With
  /// num_replicas > 1 this is the total budget, split across replicas.
  size_t num_threads = 1;
  /// Model replicas (ReplicatedGibbsSampler): each owns a private world and
  /// runs its own chain; estimates are averaged across replicas. 1 = one
  /// shared world. Deterministic at one thread per replica.
  size_t num_replicas = 1;
  /// With num_replicas > 1: replicas average their estimates and re-seed
  /// from the consensus every this many sweeps; 0 = only the final merge.
  size_t sync_every_sweeps = 50;
};

}  // namespace deepdive::inference

#endif  // DEEPDIVE_INFERENCE_PARALLELISM_H_
