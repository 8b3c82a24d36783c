#ifndef DEEPDIVE_UTIL_BITVECTOR_H_
#define DEEPDIVE_UTIL_BITVECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace deepdive {

/// Fixed-size packed bit vector. One bit per Boolean random variable; the
/// sampling materialization stores worlds as rows of these "tuple bundles"
/// (MCDB-style), so a 100-sample materialization costs n*100 bits.
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(size_t n, bool value = false);

  size_t size() const { return size_; }

  bool Get(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Branch-free: sampled bits are unpredictable.
  void Set(size_t i, bool value) {
    const uint64_t mask = uint64_t{1} << (i & 63);
    words_[i >> 6] = (words_[i >> 6] & ~mask) | (-static_cast<uint64_t>(value) & mask);
  }

  /// Resizes, preserving existing bits; new bits are `value`.
  void Resize(size_t n, bool value = false);

  /// Number of set bits.
  size_t PopCount() const;

  /// Number of positions where this and `other` differ. Sizes must match.
  size_t HammingDistance(const BitVector& other) const;

  /// The packed storage: bit i is bit i % 64 of word i / 64, and the bits
  /// past size() are 0.
  size_t num_words() const { return words_.size(); }
  uint64_t word(size_t w) const { return words_[w]; }

  bool operator==(const BitVector& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

  /// Storage footprint in bytes (for the materialization-space accounting
  /// reported in the paper's Section 3.2.2).
  size_t ByteSize() const { return words_.size() * sizeof(uint64_t); }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace deepdive

#endif  // DEEPDIVE_UTIL_BITVECTOR_H_
