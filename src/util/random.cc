#include "util/random.h"

#include <cmath>

#include "util/logging.h"

namespace deepdive {

namespace {
// splitmix64: expands a single seed into the xoshiro state.
uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  DD_CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - n) % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

double Rng::Gaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u, v, s;
  do {
    u = Uniform(-1.0, 1.0);
    v = Uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double mul = std::sqrt(-2.0 * std::log(s) / s);
  spare_gaussian_ = v * mul;
  has_spare_gaussian_ = true;
  return u * mul;
}

double Rng::Gaussian(double mean, double stddev) { return mean + stddev * Gaussian(); }

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    DD_CHECK_GE(w, 0.0);
    total += w;
  }
  DD_CHECK_GT(total, 0.0);
  double r = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) return i;
  }
  return weights.size() - 1;
}

uint64_t Rng::MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  return SplitMix64(&x);
}

void Rng::Shuffle(std::vector<uint32_t>* perm) {
  for (size_t i = perm->size(); i > 1; --i) {
    size_t j = UniformInt(i);
    std::swap((*perm)[i - 1], (*perm)[j]);
  }
}

}  // namespace deepdive
