#include "factor/semantics.h"

namespace deepdive::factor {

const char* SemanticsName(Semantics semantics) {
  switch (semantics) {
    case Semantics::kLinear:
      return "linear";
    case Semantics::kRatio:
      return "ratio";
    case Semantics::kLogical:
      return "logical";
  }
  return "?";
}

namespace internal {

std::array<double, kRatioTableSize> MakeRatioTable() {
  std::array<double, kRatioTableSize> table{};
  for (int64_t n = 0; n < kRatioTableSize; ++n) {
    // volatile keeps every call at run time. A compile-time fold is
    // correctly rounded and differs from glibc's log1p in the last bit for
    // some n (2, 13, 47, ...), which would shift every ratio-semantics result.
    volatile double x = static_cast<double>(n);
    table[static_cast<size_t>(n)] = std::log1p(x);
  }
  return table;
}

}  // namespace internal

}  // namespace deepdive::factor
