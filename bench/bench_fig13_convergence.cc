// Figure 13 (Appendix A): Gibbs convergence of the voting program under the
// three semantics as |U| + |D| grows. Expected shape: Logical and Ratio
// converge in near-linear sweeps (O(n log n) total variable updates);
// Linear degrades dramatically (exponential worst case, Theorem A.8/A.9).
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "factor/compiled_graph.h"
#include "inference/gibbs.h"
#include "inference/world.h"

namespace deepdive::bench {
namespace {

using factor::FactorGraph;
using factor::Semantics;
using factor::VarId;

FactorGraph VariableVotingGraph(size_t up, size_t down, Semantics semantics) {
  FactorGraph g;
  const VarId q = g.AddVariable();
  const VarId first_up = g.AddVariables(up);
  const VarId first_down = g.AddVariables(down);
  const auto w_up = g.AddWeight(1.0, false, "up");
  const auto w_down = g.AddWeight(-1.0, false, "down");
  const auto g_up = g.AddGroup(0, q, w_up, semantics);
  for (size_t i = 0; i < up; ++i) {
    g.AddClause(g_up, {{static_cast<VarId>(first_up + i), false}});
  }
  const auto g_down = g.AddGroup(1, q, w_down, semantics);
  for (size_t i = 0; i < down; ++i) {
    g.AddClause(g_down, {{static_cast<VarId>(first_down + i), false}});
  }
  return g;
}

/// Sweeps until q's running marginal is within 3% of 0.5 (the symmetric
/// exact answer), from an adversarial all-false start. Returns sweeps (cap
/// = not converged).
size_t SweepsToConverge(const factor::CompiledGraph& g, size_t cap, uint64_t seed) {
  inference::GibbsSampler sampler(&g);
  inference::World world(&g);
  Rng rng(seed);
  world.InitValues(&rng, /*random_init=*/false);
  size_t q_true = 0;
  for (size_t sweep = 1; sweep <= cap; ++sweep) {
    sampler.Sweep(&world, &rng);
    q_true += world.value(0) ? 1 : 0;
    const double est = static_cast<double>(q_true) / static_cast<double>(sweep);
    if (sweep >= 30 && std::abs(est - 0.5) < 0.03) return sweep;
  }
  return cap;
}

void Run() {
  PrintHeader("Figure 13: sweeps to converge, voting program, |U| = |D|");
  const size_t kCap = 20000;
  std::printf("%8s | %10s %10s %10s   (cap = %zu)\n", "|U|+|D|", "logical", "ratio",
              "linear", kCap);
  for (size_t total : {10u, 30u, 100u, 300u, 1000u}) {
    const size_t half = total / 2;
    size_t results[3];
    const Semantics order[3] = {Semantics::kLogical, Semantics::kRatio,
                                Semantics::kLinear};
    for (int s = 0; s < 3; ++s) {
      size_t sum = 0;
      for (uint64_t seed : {1001u, 1002u, 1003u}) {
        const factor::CompiledGraph g = factor::CompiledGraph::Compile(
            VariableVotingGraph(half, half, order[s]));
        sum += SweepsToConverge(g, kCap, seed);
      }
      results[s] = sum / 3;
    }
    std::printf("%8zu | %10zu %10zu %10zu\n", total, results[0], results[1],
                results[2]);
  }
}

}  // namespace
}  // namespace deepdive::bench

int main() {
  deepdive::bench::Run();
  return 0;
}
