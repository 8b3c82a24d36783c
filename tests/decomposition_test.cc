#include <gtest/gtest.h>

#include <algorithm>

#include "factor/factor_graph.h"
#include "util/random.h"
#include "incremental/decomposition.h"

namespace deepdive::incremental {
namespace {

using factor::FactorGraph;
using factor::VarId;
using factor::WeightId;

/// v0-v1-v2-v3-v4 chain (pairwise factors).
FactorGraph Chain(size_t n) {
  FactorGraph g;
  g.AddVariables(n);
  const WeightId w = g.AddWeight(1.0, false);
  for (size_t i = 0; i + 1 < n; ++i) {
    g.AddSimpleFactor(static_cast<VarId>(i), {{static_cast<VarId>(i + 1), false}}, w);
  }
  return g;
}

TEST(ConnectedComponentsTest, SingleChain) {
  FactorGraph g = Chain(5);
  auto comps = ConnectedComponents(g);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].size(), 5u);
}

TEST(ConnectedComponentsTest, DisconnectedPieces) {
  FactorGraph g;
  g.AddVariables(6);
  const WeightId w = g.AddWeight(1.0, false);
  g.AddSimpleFactor(0, {{1, false}}, w);
  g.AddSimpleFactor(3, {{4, false}}, w);
  auto comps = ConnectedComponents(g);
  // {0,1}, {2}, {3,4}, {5}.
  EXPECT_EQ(comps.size(), 4u);
}

// The component walk over FactorGraph::Neighbors: ConnectedComponents must
// reproduce its partition, component numbering and member order exactly.
std::vector<std::vector<VarId>> NeighborsComponents(const FactorGraph& g) {
  std::vector<int> component(g.NumVariables(), -1);
  int num_components = 0;
  for (VarId start = 0; start < g.NumVariables(); ++start) {
    if (component[start] >= 0) continue;
    const int c = num_components++;
    component[start] = c;
    std::vector<VarId> stack = {start};
    while (!stack.empty()) {
      const VarId v = stack.back();
      stack.pop_back();
      for (VarId u : g.Neighbors(v)) {
        if (component[u] >= 0) continue;
        component[u] = c;
        stack.push_back(u);
      }
    }
  }
  std::vector<std::vector<VarId>> out(num_components);
  for (VarId v = 0; v < g.NumVariables(); ++v) out[component[v]].push_back(v);
  return out;
}

// Random sparse graphs with deactivated groups and clauses. A body ref into an
// inactive clause of an active group joins its variable to the group in one
// direction only, so the partition depends on the walk's rules, not just on
// the active edges.
TEST(ConnectedComponentsTest, MatchesNeighborsWalkWithRetractions) {
  size_t multi_component_graphs = 0;
  size_t asymmetric_graphs = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    FactorGraph g;
    const size_t n = 8 + rng.UniformInt(40);
    g.AddVariables(n);
    const WeightId w = g.AddWeight(1.0, false);
    const size_t groups = rng.UniformInt(n);
    for (size_t i = 0; i < groups; ++i) {
      const VarId head = static_cast<VarId>(rng.UniformInt(n));
      const factor::GroupId grp =
          g.AddGroup(static_cast<uint32_t>(i), head, w, factor::Semantics::kLinear);
      const size_t clauses = rng.UniformInt(3);
      for (size_t c = 0; c < clauses; ++c) {
        std::vector<factor::Literal> lits;
        const size_t n_lits = 1 + rng.UniformInt(2);
        for (size_t l = 0; l < n_lits; ++l) {
          const VarId v = static_cast<VarId>(rng.UniformInt(n));
          if (v != head) lits.push_back({v, rng.Bernoulli(0.3)});
        }
        const factor::ClauseId cid = g.AddClause(grp, lits);
        if (rng.Bernoulli(0.3)) g.DeactivateClause(cid);
      }
      if (rng.Bernoulli(0.2)) g.DeactivateGroup(grp);
    }
    const auto expected = NeighborsComponents(g);
    EXPECT_EQ(ConnectedComponents(g), expected) << "seed " << seed;
    multi_component_graphs += expected.size() > 1 ? 1 : 0;
    bool asymmetric = false;
    for (VarId v = 0; v < n && !asymmetric; ++v) {
      for (VarId u : g.Neighbors(v)) {
        const std::vector<VarId> back = g.Neighbors(u);
        asymmetric |= !std::binary_search(back.begin(), back.end(), v);
      }
    }
    asymmetric_graphs += asymmetric ? 1 : 0;
  }
  EXPECT_GT(multi_component_graphs, 30u);
  EXPECT_GT(asymmetric_graphs, 10u);
}

TEST(DecompositionTest, ActiveVariableCutsChain) {
  // Chain 0-1-2-3-4 with 2 active: components {0,1} and {3,4}, both with
  // boundary {2}; the merge rule (|A_j ∪ A_k| == max) combines them.
  FactorGraph g = Chain(5);
  std::vector<bool> active(5, false);
  active[2] = true;
  auto groups = DecomposeWithInactive(g, active);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].inactive.size(), 4u);
  EXPECT_EQ(groups[0].active, (std::vector<VarId>{2}));
}

TEST(DecompositionTest, DisjointBoundariesStaySeparate) {
  // Two chains with different active boundaries must not merge:
  // 0-1-2 (active 2) and 3-4-5 (active 5) -> boundaries {2} and {5}.
  FactorGraph g;
  g.AddVariables(6);
  const WeightId w = g.AddWeight(1.0, false);
  g.AddSimpleFactor(0, {{1, false}}, w);
  g.AddSimpleFactor(1, {{2, false}}, w);
  g.AddSimpleFactor(3, {{4, false}}, w);
  g.AddSimpleFactor(4, {{5, false}}, w);
  std::vector<bool> active(6, false);
  active[2] = true;
  active[5] = true;
  auto groups = DecomposeWithInactive(g, active);
  ASSERT_EQ(groups.size(), 2u);
}

TEST(DecompositionTest, NestedBoundariesMerge) {
  // Star: active hub 0 touches inactive 1, 2, 3 -> three singleton
  // components all with boundary {0}; they merge into one group.
  FactorGraph g;
  g.AddVariables(4);
  const WeightId w = g.AddWeight(1.0, false);
  for (VarId v = 1; v <= 3; ++v) g.AddSimpleFactor(v, {{0, false}}, w);
  std::vector<bool> active(4, false);
  active[0] = true;
  auto groups = DecomposeWithInactive(g, active);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].inactive.size(), 3u);
  EXPECT_EQ(groups[0].active, (std::vector<VarId>{0}));
}

TEST(DecompositionTest, AllActiveYieldsNoGroups) {
  FactorGraph g = Chain(4);
  std::vector<bool> active(4, true);
  EXPECT_TRUE(DecomposeWithInactive(g, active).empty());
}

TEST(DecompositionTest, NoActiveYieldsComponents) {
  FactorGraph g;
  g.AddVariables(4);
  const WeightId w = g.AddWeight(1.0, false);
  g.AddSimpleFactor(0, {{1, false}}, w);
  g.AddSimpleFactor(2, {{3, false}}, w);
  std::vector<bool> active(4, false);
  auto groups = DecomposeWithInactive(g, active);
  ASSERT_EQ(groups.size(), 2u);
  for (const auto& grp : groups) EXPECT_TRUE(grp.active.empty());
}

// Property: Algorithm 2's guarantee — conditioned on its active boundary,
// each group's inactive variables are independent of all other inactive
// variables. Structurally: no factor connects inactive variables of two
// different groups.
class DecompositionProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecompositionProperty, GroupsAreConditionallyIndependent) {
  Rng rng(GetParam());
  FactorGraph g;
  const size_t n = 12 + rng.UniformInt(12);
  g.AddVariables(n);
  const WeightId w = g.AddWeight(1.0, false);
  const size_t factors = n + rng.UniformInt(n);
  for (size_t i = 0; i < factors; ++i) {
    const VarId a = static_cast<VarId>(rng.UniformInt(n));
    const VarId b = static_cast<VarId>(rng.UniformInt(n));
    if (a != b) g.AddSimpleFactor(a, {{b, false}}, w);
  }
  std::vector<bool> active(n, false);
  for (VarId v = 0; v < n; ++v) active[v] = rng.Bernoulli(0.3);

  const auto groups = DecomposeWithInactive(g, active);

  // Map inactive var -> group index.
  std::vector<int> group_of(n, -1);
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    for (VarId v : groups[gi].inactive) {
      ASSERT_FALSE(active[v]);
      ASSERT_EQ(group_of[v], -1) << "groups must partition inactive vars";
      group_of[v] = static_cast<int>(gi);
    }
  }
  for (VarId v = 0; v < n; ++v) {
    if (!active[v]) ASSERT_NE(group_of[v], -1) << "inactive var " << v << " unassigned";
  }

  // No edge connects inactive vars of two different groups, and every
  // active neighbor of a group's inactive vars is in its boundary.
  for (VarId v = 0; v < n; ++v) {
    if (active[v]) continue;
    for (VarId u : g.Neighbors(v)) {
      if (active[u]) {
        const auto& boundary = groups[group_of[v]].active;
        EXPECT_TRUE(std::find(boundary.begin(), boundary.end(), u) != boundary.end())
            << "active neighbor " << u << " missing from boundary of group "
            << group_of[v];
      } else {
        EXPECT_EQ(group_of[v], group_of[u])
            << "inactive vars " << v << " and " << u
            << " share a factor but live in different groups";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecompositionProperty,
                         ::testing::Values(31, 32, 33, 34, 35, 36, 37, 38, 39, 40));

TEST(DecompositionTest, GroupsPartitionInactiveVariables) {
  FactorGraph g = Chain(9);
  std::vector<bool> active(9, false);
  active[3] = true;
  active[6] = true;
  auto groups = DecomposeWithInactive(g, active);
  std::vector<bool> seen(9, false);
  size_t total = 0;
  for (const auto& grp : groups) {
    for (VarId v : grp.inactive) {
      EXPECT_FALSE(seen[v]);
      EXPECT_FALSE(active[v]);
      seen[v] = true;
      ++total;
    }
  }
  EXPECT_EQ(total, 7u);
}

}  // namespace
}  // namespace deepdive::incremental
