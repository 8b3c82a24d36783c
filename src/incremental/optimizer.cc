#include "incremental/optimizer.h"

namespace deepdive::incremental {

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kSampling:
      return "sampling";
    case Strategy::kVariational:
      return "variational";
    case Strategy::kRerun:
      return "rerun";
  }
  return "?";
}

}  // namespace deepdive::incremental
