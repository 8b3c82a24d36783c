#ifndef DEEPDIVE_UTIL_RANDOM_H_
#define DEEPDIVE_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace deepdive {

/// Fast deterministic PRNG (xoshiro256**). All stochastic components
/// (Gibbs, MH, corpus generation) take an explicit Rng so experiments are
/// reproducible and tests can pin seeds.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value. Next/Uniform()/Bernoulli are defined below,
  /// inline, because every Gibbs conditional draws through them.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via Box-Muller.
  double Gaussian();

  /// Gaussian with the given mean / stddev.
  double Gaussian(double mean, double stddev);

  /// True with probability p.
  bool Bernoulli(double p);

  /// Samples an index proportionally to the (non-negative) weights.
  /// Requires at least one strictly positive weight.
  size_t Categorical(const std::vector<double>& weights);

  /// In-place Fisher-Yates shuffle of [0, n) stored in `perm`.
  void Shuffle(std::vector<uint32_t>* perm);

  /// Derives a decorrelated seed for stream `stream` of a base seed
  /// (splitmix64 finalizer). Parallel samplers give worker t the stream-t
  /// seed so Hogwild chains never share RNG state.
  static uint64_t MixSeed(uint64_t seed, uint64_t stream);

  /// Two-level keying: a decorrelated seed for (stream, substream) of a base
  /// seed. Parallel samplers key their worker streams by (seed, replica,
  /// worker) through this, so two samplers sharing a base seed but running
  /// as different replicas/chains never produce correlated streams — which a
  /// flat worker index alone cannot guarantee.
  static uint64_t MixSeed(uint64_t seed, uint64_t stream, uint64_t substream) {
    return MixSeed(MixSeed(seed, stream), substream);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

inline uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

inline double Rng::Uniform() {
  // 53 high-quality bits -> [0,1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

inline bool Rng::Bernoulli(double p) { return Uniform() < p; }

}  // namespace deepdive

#endif  // DEEPDIVE_UTIL_RANDOM_H_
