// Negative fixture for the determinism checker: its --self-test runs the
// checker on this file alone and requires exactly the finding at line 14 —
// proving the gate still bites. Not compiled; excluded from the normal
// full-tree scan (the gate scans src/ only).
#include <unordered_map>

namespace deepdive::grounding {

struct IncrementalGrounder {
  std::unordered_map<int, double> pending_;

  // Seed-scoped entry point: emission order leaks hash-table layout.
  void GroundAll() {
    for (const auto& [var, weight] : pending_) {
      Emit(var, weight);
    }
    Rng rng(seed_ + worker_);  // hand-rolled stream derivation
  }

  void Emit(int, double);
  unsigned long seed_ = 0;
  unsigned long worker_ = 0;
};

}  // namespace deepdive::grounding
