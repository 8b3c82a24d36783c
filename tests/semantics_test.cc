// Tests for the voting example of Section 2.4 (Example 2.5) and the
// convergence claims of Appendix A: the three semantics assign very
// different probabilities to the same vote counts, and Gibbs mixes much
// faster under Logical/Ratio than Linear.
#include <gtest/gtest.h>

#include <cmath>

#include "factor/compiled_graph.h"
#include "factor/factor_graph.h"
#include "inference/exact.h"
#include "inference/gibbs.h"
#include "util/random.h"

namespace deepdive::inference {
namespace {

using factor::FactorGraph;
using factor::GroupId;
using factor::Semantics;
using factor::VarId;
using factor::WeightId;

/// Builds the voting program: q() :- Up(x) weight 1, q() :- Down(x) weight
/// -1, with |up| up-votes and |down| down-votes as deterministic facts
/// (empty clauses — each grounding counts toward n).
FactorGraph VotingGraph(size_t up, size_t down, Semantics semantics) {
  FactorGraph g;
  const VarId q = g.AddVariable();
  const WeightId w_up = g.AddWeight(1.0, false, "up");
  const WeightId w_down = g.AddWeight(-1.0, false, "down");
  const GroupId g_up = g.AddGroup(0, q, w_up, semantics);
  for (size_t i = 0; i < up; ++i) g.AddClause(g_up, {});
  const GroupId g_down = g.AddGroup(1, q, w_down, semantics);
  for (size_t i = 0; i < down; ++i) g.AddClause(g_down, {});
  return g;
}

double ExactVoteProbability(size_t up, size_t down, Semantics semantics) {
  FactorGraph g = VotingGraph(up, down, semantics);
  auto exact = ExactInference(g);
  EXPECT_TRUE(exact.ok());
  return exact->marginals[0];
}

TEST(VotingSemanticsTest, Example25LargeNearTieVotes) {
  // |Up| = 10^6, |Down| = 10^6 - 100 (Example 2.5). Closed form:
  // P(q) = e^W / (e^-W + e^W), W = g(|Up|) - g(|Down|).
  auto prob = [](double w_diff) { return 1.0 / (1.0 + std::exp(-2.0 * w_diff)); };

  // Linear: W = 100, probability astronomically close to 1 (rounds to
  // exactly 1.0 in double precision).
  EXPECT_GE(prob(100.0), 1.0 - 1e-12);

  // Ratio: W = log(1+10^6) - log(1+10^6-100) ~ 1e-4, probability ~ 0.5.
  const double ratio_w = std::log1p(1e6) - std::log1p(1e6 - 100);
  EXPECT_NEAR(prob(ratio_w), 0.5, 1e-4);

  // Logical: W = 1 - 1 = 0, probability exactly 0.5.
  EXPECT_DOUBLE_EQ(prob(0.0), 0.5);
}

TEST(VotingSemanticsTest, ExactEnumerationMatchesClosedForm) {
  // Small instance checked through the actual factor-graph machinery.
  for (Semantics s : {Semantics::kLinear, Semantics::kRatio, Semantics::kLogical}) {
    const double w_diff = factor::GCount(s, 8) - factor::GCount(s, 5);
    const double expected = 1.0 / (1.0 + std::exp(-2.0 * w_diff));
    EXPECT_NEAR(ExactVoteProbability(8, 5, s), expected, 1e-9)
        << SemanticsName(s);
  }
}

TEST(VotingSemanticsTest, LogicalIgnoresVoteStrength) {
  EXPECT_NEAR(ExactVoteProbability(100, 1, Semantics::kLogical), 0.5, 1e-9);
  EXPECT_GT(ExactVoteProbability(100, 1, Semantics::kRatio), 0.9);
  EXPECT_GT(ExactVoteProbability(100, 1, Semantics::kLinear), 1.0 - 1e-12);
}

/// Voting graph where the up/down votes are themselves query variables
/// (the Appendix A / Figure 13 setting).
FactorGraph VariableVotingGraph(size_t up, size_t down, Semantics semantics) {
  FactorGraph g;
  const VarId q = g.AddVariable();
  const VarId first_up = g.AddVariables(up);
  const VarId first_down = g.AddVariables(down);
  const WeightId w_up = g.AddWeight(1.0, false, "up");
  const WeightId w_down = g.AddWeight(-1.0, false, "down");
  const GroupId g_up = g.AddGroup(0, q, w_up, semantics);
  for (size_t i = 0; i < up; ++i) {
    g.AddClause(g_up, {{static_cast<VarId>(first_up + i), false}});
  }
  const GroupId g_down = g.AddGroup(1, q, w_down, semantics);
  for (size_t i = 0; i < down; ++i) {
    g.AddClause(g_down, {{static_cast<VarId>(first_down + i), false}});
  }
  return g;
}

/// Sweeps until q's running marginal is within `tol` of 0.5 (the symmetric
/// instance's exact answer), returning the sweep count (capped).
size_t SweepsToConverge(const FactorGraph& g, double tol, size_t cap, uint64_t seed) {
  const factor::CompiledGraph compiled = factor::CompiledGraph::Compile(g);
  GibbsSampler sampler(&compiled);
  World world(&compiled);
  Rng rng(seed);
  world.InitValues(&rng, /*random_init=*/false);  // adversarial all-false start
  size_t q_true = 0;
  for (size_t sweep = 1; sweep <= cap; ++sweep) {
    sampler.Sweep(&world, &rng);
    q_true += world.value(0) ? 1 : 0;
    const double est = static_cast<double>(q_true) / static_cast<double>(sweep);
    if (sweep >= 20 && std::abs(est - 0.5) < tol) return sweep;
  }
  return cap;
}

TEST(VotingConvergenceTest, LogicalAndRatioConvergeFasterThanLinear) {
  // |U| = |D| = 40, all non-evidence: the exact marginal of q is 0.5 by
  // symmetry. Linear semantics bimodalizes the chain (Theorem A.9-style
  // behavior); Logical/Ratio mix quickly.
  const size_t cap = 4000;
  size_t linear_total = 0, logical_total = 0, ratio_total = 0;
  for (uint64_t seed : {101u, 102u, 103u}) {
    FactorGraph lin = VariableVotingGraph(40, 40, Semantics::kLinear);
    FactorGraph log = VariableVotingGraph(40, 40, Semantics::kLogical);
    FactorGraph rat = VariableVotingGraph(40, 40, Semantics::kRatio);
    linear_total += SweepsToConverge(lin, 0.05, cap, seed);
    logical_total += SweepsToConverge(log, 0.05, cap, seed);
    ratio_total += SweepsToConverge(rat, 0.05, cap, seed);
  }
  EXPECT_LT(logical_total, linear_total);
  EXPECT_LT(ratio_total, linear_total);
}

}  // namespace
}  // namespace deepdive::inference
