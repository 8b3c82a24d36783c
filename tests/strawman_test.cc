#include <gtest/gtest.h>

#include "factor/factor_graph.h"
#include "incremental/strawman.h"
#include "inference/exact.h"
#include "util/random.h"

namespace deepdive::incremental {
namespace {

using factor::FactorGraph;
using factor::GraphDelta;
using factor::Semantics;
using factor::VarId;
using factor::WeightId;

FactorGraph SmallGraph(uint64_t seed, size_t num_vars) {
  FactorGraph g;
  Rng rng(seed);
  g.AddVariables(num_vars);
  for (size_t i = 0; i + 1 < num_vars; ++i) {
    const WeightId w = g.AddWeight(rng.Uniform(-0.8, 0.8), false);
    g.AddSimpleFactor(static_cast<VarId>(i),
                      {{static_cast<VarId>(i + 1), false}}, w);
  }
  for (size_t i = 0; i < num_vars; ++i) {
    g.AddSimpleFactor(static_cast<VarId>(i), {}, g.AddWeight(rng.Uniform(-0.5, 0.5), false));
  }
  return g;
}

TEST(StrawmanTest, OriginalMarginalsMatchExact) {
  FactorGraph g = SmallGraph(3, 8);
  auto strawman = StrawmanMaterialization::Materialize(g);
  ASSERT_TRUE(strawman.ok()) << strawman.status().ToString();
  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_NEAR(strawman->OriginalMarginals()[v], exact->marginals[v], 1e-9);
  }
  EXPECT_EQ(strawman->NumWorlds(), 1u << 8);
}

TEST(StrawmanTest, RefusesLargeGraphs) {
  FactorGraph g;
  g.AddVariables(30);
  auto strawman = StrawmanMaterialization::Materialize(g, 22);
  ASSERT_FALSE(strawman.ok());
  EXPECT_EQ(strawman.status().code(), StatusCode::kOutOfRange);
}

TEST(StrawmanTest, EvidenceReducesWorldCount) {
  FactorGraph g = SmallGraph(5, 8);
  g.SetEvidence(0, true);
  g.SetEvidence(1, false);
  auto strawman = StrawmanMaterialization::Materialize(g);
  ASSERT_TRUE(strawman.ok());
  EXPECT_EQ(strawman->NumWorlds(), 1u << 6);
  EXPECT_DOUBLE_EQ(strawman->OriginalMarginals()[0], 1.0);
  EXPECT_DOUBLE_EQ(strawman->OriginalMarginals()[1], 0.0);
}

TEST(StrawmanTest, IncrementalUpdateMatchesExact) {
  FactorGraph g = SmallGraph(7, 9);
  auto strawman = StrawmanMaterialization::Materialize(g);
  ASSERT_TRUE(strawman.ok());

  // Update: a new factor and a weight change.
  GraphDelta delta;
  const WeightId w_new = g.AddWeight(0.9, false);
  delta.new_groups.push_back(g.AddSimpleFactor(2, {{5, false}}, w_new));
  delta.weight_changes.push_back({0, g.WeightValue(0), g.WeightValue(0) + 0.4});
  g.SetWeightValue(0, g.WeightValue(0) + 0.4);

  auto updated = strawman->InferUpdated(g, delta);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_NEAR((*updated)[v], exact->marginals[v], 1e-9) << "var " << v;
  }
}

TEST(StrawmanTest, IncrementalEvidenceUpdateMatchesExact) {
  FactorGraph g = SmallGraph(11, 8);
  auto strawman = StrawmanMaterialization::Materialize(g);
  ASSERT_TRUE(strawman.ok());

  GraphDelta delta;
  delta.evidence_changes.push_back({3, std::nullopt, true});
  g.SetEvidence(3, true);

  auto updated = strawman->InferUpdated(g, delta);
  ASSERT_TRUE(updated.ok());
  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_NEAR((*updated)[v], exact->marginals[v], 1e-9) << "var " << v;
  }
}

// Exact after each of three changes on moved learnable weights, merged into
// one cumulative delta: a tied weight gains a group and learning moves it,
// a group on a second weight is removed as that weight moves, and a group
// on the second weight trades clauses as it moves again.
TEST(StrawmanTest, LearnedWeightMovesMatchExact) {
  FactorGraph g = SmallGraph(19, 8);
  const WeightId tied = g.AddWeight(0.5, /*learnable=*/true);
  g.AddSimpleFactor(0, {}, tied);
  const WeightId shared = g.AddWeight(1.0, /*learnable=*/true);
  const factor::GroupId removed = g.AddSimpleFactor(3, {{4, false}}, shared);
  const factor::GroupId modified = g.AddGroup(0, 6, shared, Semantics::kRatio);
  g.AddClause(modified, {{7, false}});
  const factor::ClauseId dropped = g.AddClause(modified, {{5, true}});
  auto strawman = StrawmanMaterialization::Materialize(g);
  ASSERT_TRUE(strawman.ok());

  GraphDelta cumulative;
  const auto merge_and_check = [&](const GraphDelta& update) {
    cumulative.Merge(update);
    auto updated = strawman->InferUpdated(g, cumulative);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    auto exact = inference::ExactInference(g);
    ASSERT_TRUE(exact.ok());
    for (VarId v = 0; v < g.NumVariables(); ++v) {
      EXPECT_NEAR((*updated)[v], exact->marginals[v], 1e-9) << "var " << v;
    }
  };
  const auto move = [&](WeightId w, double value, GraphDelta* update) {
    update->weight_changes.push_back({w, g.WeightValue(w), value});
    g.SetWeightValue(w, value);
  };

  GraphDelta learned;
  learned.new_groups.push_back(g.AddSimpleFactor(2, {}, tied));
  move(tied, 2.0, &learned);
  merge_and_check(learned);

  GraphDelta removal;
  g.DeactivateGroup(removed);
  removal.removed_groups.push_back(removed);
  move(shared, 3.0, &removal);
  merge_and_check(removal);

  GraphDelta modification;
  const factor::ClauseId added = g.AddClause(modified, {{1, false}});
  g.DeactivateClause(dropped);
  modification.modified_groups.push_back({modified, {added}, {dropped}});
  move(shared, -1.5, &modification);
  merge_and_check(modification);
}

TEST(StrawmanTest, RejectsNewVariables) {
  FactorGraph g = SmallGraph(13, 6);
  auto strawman = StrawmanMaterialization::Materialize(g);
  ASSERT_TRUE(strawman.ok());
  GraphDelta delta;
  delta.new_variables.push_back(g.AddVariable());
  auto updated = strawman->InferUpdated(g, delta);
  EXPECT_FALSE(updated.ok());
}

TEST(StrawmanTest, ByteSizeIsExponential) {
  FactorGraph small = SmallGraph(17, 4);
  FactorGraph big = SmallGraph(17, 10);
  auto s = StrawmanMaterialization::Materialize(small);
  auto b = StrawmanMaterialization::Materialize(big);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(s->ByteSize(), (1u << 4) * sizeof(double));
  EXPECT_EQ(b->ByteSize(), (1u << 10) * sizeof(double));
}

}  // namespace
}  // namespace deepdive::incremental
