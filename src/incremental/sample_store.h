#ifndef DEEPDIVE_INCREMENTAL_SAMPLE_STORE_H_
#define DEEPDIVE_INCREMENTAL_SAMPLE_STORE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/bitvector.h"
#include "util/status.h"

namespace deepdive::incremental {

/// MCDB-style tuple-bundle storage (Section 3.2.2): worlds drawn from the
/// materialized distribution Pr(0), one bit per variable per sample. The
/// inference phase consumes samples as Metropolis-Hastings proposals through
/// a cursor; when the cursor reaches the end the store is exhausted and the
/// optimizer falls back to the variational approach.
class SampleStore {
 public:
  SampleStore() = default;

  void Add(BitVector sample);

  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  /// Aliases the store. A store inside an installed MaterializationSnapshot
  /// is consumed by the serving thread only (proposal draws pop it); during
  /// a background build, only the builder thread touches it.
  const BitVector& sample(size_t i) const { return samples_[i]; }

  /// Number of variables per sample (0 if empty).
  size_t num_vars() const { return samples_.empty() ? 0 : samples_[0].size(); }

  /// Storage footprint (the "<5% of the factor graph" accounting).
  size_t ByteSize() const;

  /// Next unconsumed sample, or nullptr when exhausted.
  const BitVector* NextProposal();

  size_t remaining() const { return samples_.size() - cursor_; }
  bool exhausted() const { return cursor_ >= samples_.size(); }

  void ResetCursor() { cursor_ = 0; }
  void Clear();

  /// Persists the store (bit-packed) so an overnight materialization can be
  /// reused by later sessions. The cursor is not persisted (a loaded store
  /// starts fresh). When `expected_width` is nonzero, Load rejects a store
  /// whose sample width differs — a store materialized for one graph must
  /// not be replayed as MH proposals against a differently-shaped one. Load
  /// also rejects, before allocating, a header whose sample count and width
  /// do not match the bytes that follow it, and any zero-width samples,
  /// which Save refuses to write (InvalidArgument).
  Status Save(const std::string& path) const;
  static StatusOr<SampleStore> Load(const std::string& path,
                                    size_t expected_width = 0);

 private:
  std::vector<BitVector> samples_;
  size_t cursor_ = 0;
};

}  // namespace deepdive::incremental

#endif  // DEEPDIVE_INCREMENTAL_SAMPLE_STORE_H_
