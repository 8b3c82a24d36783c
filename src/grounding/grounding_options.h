#ifndef DEEPDIVE_GROUNDING_GROUNDING_OPTIONS_H_
#define DEEPDIVE_GROUNDING_GROUNDING_OPTIONS_H_

#include <cstddef>

namespace deepdive::grounding {

/// Execution knobs for the sharded grounding pipeline. The grounder
/// partitions each full rule evaluation's driver-atom scan into contiguous
/// row ranges, evaluates and emits per-shard on the thread pool, and merges
/// the shard deltas deterministically — output is bit-identical to the
/// sequential grounder at any thread count. Delta evaluation is sequential.
struct GroundingOptions {
  /// Worker threads for rule evaluation + factor emission.
  /// 1 = sequential (default); 0 = hardware concurrency.
  size_t num_threads = 1;

  /// Full evaluations whose driver domain (the driver table's row slots) is
  /// smaller than this stay sequential: on small tables, shard bookkeeping
  /// costs more than the evaluation itself.
  size_t min_shard_rows = 2048;
};

}  // namespace deepdive::grounding

#endif  // DEEPDIVE_GROUNDING_GROUNDING_OPTIONS_H_
