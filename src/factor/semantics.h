#ifndef DEEPDIVE_FACTOR_SEMANTICS_H_
#define DEEPDIVE_FACTOR_SEMANTICS_H_

#include <array>
#include <cmath>
#include <cstdint>

#include "util/logging.h"

namespace deepdive::factor {

/// The grounding-count transformation g(n) of Equation 1 / Figure 4.
/// DeepDive's departure from vanilla MLN semantics: the weight of a rule in a
/// possible world is w * sign(head) * g(#satisfied groundings), and the choice
/// of g changes both quality (Section 2.4, Example 2.5) and Gibbs mixing time
/// (Appendix A: Logical/Ratio mix in O(n log n); Linear can take 2^Ω(n)).
enum class Semantics : uint8_t {
  kLinear = 0,   // g(n) = n
  kRatio = 1,    // g(n) = log(1 + n)
  kLogical = 2,  // g(n) = 1{n > 0}
};

const char* SemanticsName(Semantics semantics);

namespace internal {

/// kRatio counts below this bound are served from RatioTable().
inline constexpr int64_t kRatioTableSize = 256;

/// log1p(n) for n in [0, kRatioTableSize), each entry from a run-time libm
/// std::log1p call (defined out of line so the compiler cannot evaluate it
/// as a constant expression).
std::array<double, kRatioTableSize> MakeRatioTable();

/// The table, built on first use: a function-local static cannot be read
/// before it is filled, whichever static initializer calls GCount first.
inline const std::array<double, kRatioTableSize>& RatioTable() {
  static const std::array<double, kRatioTableSize> table = MakeRatioTable();
  return table;
}

}  // namespace internal

/// Evaluates g(n). n must be >= 0. Inline because every Gibbs conditional,
/// learner gradient and MH density ratio calls it once per group.
inline double GCount(Semantics semantics, int64_t n) {
  DD_CHECK_GE(n, 0);
  switch (semantics) {
    case Semantics::kLinear:
      return static_cast<double>(n);
    case Semantics::kRatio:
      return n < internal::kRatioTableSize
                 ? internal::RatioTable()[static_cast<size_t>(n)]
                 : std::log1p(static_cast<double>(n));
    case Semantics::kLogical:
      return n > 0 ? 1.0 : 0.0;
  }
  return 0.0;
}

}  // namespace deepdive::factor

#endif  // DEEPDIVE_FACTOR_SEMANTICS_H_
