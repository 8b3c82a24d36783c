#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <optional>
#include <vector>

#include "factor/compiled_graph.h"
#include "factor/factor_graph.h"
#include "factor/graph_delta.h"
#include "factor/graph_io.h"
#include "factor/semantics.h"
#include "util/random.h"

namespace deepdive::factor {
namespace {

TEST(SemanticsTest, GCountValues) {
  EXPECT_DOUBLE_EQ(GCount(Semantics::kLinear, 0), 0.0);
  EXPECT_DOUBLE_EQ(GCount(Semantics::kLinear, 5), 5.0);
  EXPECT_DOUBLE_EQ(GCount(Semantics::kRatio, 0), 0.0);
  EXPECT_NEAR(GCount(Semantics::kRatio, 1), std::log(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(GCount(Semantics::kLogical, 0), 0.0);
  EXPECT_DOUBLE_EQ(GCount(Semantics::kLogical, 1), 1.0);
  EXPECT_DOUBLE_EQ(GCount(Semantics::kLogical, 100), 1.0);
}

// GCount serves small kRatio counts from a table; every entry, on both sides
// of the table bound, must be bitwise the libm value the sampler used before.
TEST(SemanticsTest, RatioCountIsBitwiseLog1p) {
  for (int64_t n = 0; n < 1024; ++n) {
    volatile double x = static_cast<double>(n);  // a run-time libm call
    const double expected = std::log1p(x);
    EXPECT_EQ(std::bit_cast<uint64_t>(GCount(Semantics::kRatio, n)),
              std::bit_cast<uint64_t>(expected))
        << "n = " << n;
  }
}

TEST(SemanticsTest, Names) {
  EXPECT_STREQ(SemanticsName(Semantics::kLinear), "linear");
  EXPECT_STREQ(SemanticsName(Semantics::kRatio), "ratio");
  EXPECT_STREQ(SemanticsName(Semantics::kLogical), "logical");
}

TEST(FactorGraphTest, AddVariablesAndEvidence) {
  FactorGraph g;
  const VarId a = g.AddVariable();
  const VarId b = g.AddVariables(3);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(g.NumVariables(), 4u);
  EXPECT_FALSE(g.IsEvidence(0));
  g.SetEvidence(0, true);
  EXPECT_TRUE(g.IsEvidence(0));
  EXPECT_EQ(g.EvidenceValue(0), std::optional<bool>(true));
  g.SetEvidence(0, std::nullopt);
  EXPECT_FALSE(g.IsEvidence(0));
}

TEST(FactorGraphTest, TiedWeightsDeduplicate) {
  FactorGraph g;
  const WeightId w1 = g.GetOrCreateTiedWeight("FE1/and_his_wife");
  const WeightId w2 = g.GetOrCreateTiedWeight("FE1/and_his_wife");
  const WeightId w3 = g.GetOrCreateTiedWeight("FE1/other");
  EXPECT_EQ(w1, w2);
  EXPECT_NE(w1, w3);
  EXPECT_TRUE(g.weight(w1).learnable);
  EXPECT_EQ(g.weight(w1).description, "FE1/and_his_wife");
}

TEST(FactorGraphTest, GroupsAndClauses) {
  FactorGraph g;
  const VarId h = g.AddVariable();
  const VarId b1 = g.AddVariable();
  const VarId b2 = g.AddVariable();
  const WeightId w = g.AddWeight(1.0, false, "test");
  const GroupId grp = g.AddGroup(7, h, w, Semantics::kRatio);
  g.AddClause(grp, {{b1, false}});
  g.AddClause(grp, {{b1, false}, {b2, true}});
  EXPECT_EQ(g.NumGroups(), 1u);
  EXPECT_EQ(g.NumClauses(), 2u);
  EXPECT_EQ(g.NumActiveClauses(), 2u);
  EXPECT_EQ(g.group(grp).rule_id, 7u);
  EXPECT_EQ(g.HeadGroups(h).size(), 1u);
  EXPECT_EQ(g.BodyRefs(b1).size(), 2u);
  EXPECT_EQ(g.BodyRefs(b2).size(), 1u);
  EXPECT_TRUE(g.BodyRefs(b2)[0].negated);
  EXPECT_EQ(g.GroupsForWeight(w).size(), 1u);
}

TEST(FactorGraphTest, SatisfiedClausesAndLogWeight) {
  FactorGraph g;
  const VarId h = g.AddVariable();
  const VarId b = g.AddVariable();
  const WeightId w = g.AddWeight(2.0, false);
  const GroupId grp = g.AddGroup(0, h, w, Semantics::kLinear);
  g.AddClause(grp, {{b, false}});
  g.AddClause(grp, {});  // always satisfied

  std::vector<bool> values = {true, false};
  auto value_of = [&](VarId v) { return values[v]; };
  EXPECT_EQ(g.SatisfiedClauses(grp, value_of), 1);
  EXPECT_DOUBLE_EQ(g.GroupLogWeight(grp, value_of), 2.0 * 1.0 * 1.0);

  values[1] = true;
  EXPECT_EQ(g.SatisfiedClauses(grp, value_of), 2);
  values[0] = false;
  EXPECT_DOUBLE_EQ(g.GroupLogWeight(grp, value_of), 2.0 * -1.0 * 2.0);
  EXPECT_DOUBLE_EQ(g.TotalLogWeight(value_of), -4.0);
}

TEST(FactorGraphTest, DeactivationRemovesContribution) {
  FactorGraph g;
  const VarId h = g.AddVariable();
  const WeightId w = g.AddWeight(3.0, false);
  const GroupId grp = g.AddSimpleFactor(h, {}, w);
  auto value_of = [](VarId) { return true; };
  EXPECT_DOUBLE_EQ(g.TotalLogWeight(value_of), 3.0);
  g.DeactivateGroup(grp);
  EXPECT_DOUBLE_EQ(g.TotalLogWeight(value_of), 0.0);
  EXPECT_EQ(g.NumActiveClauses(), 0u);
}

TEST(FactorGraphTest, ClauseDeactivation) {
  FactorGraph g;
  const VarId h = g.AddVariable();
  const WeightId w = g.AddWeight(1.0, false);
  const GroupId grp = g.AddGroup(0, h, w, Semantics::kLinear);
  g.AddClause(grp, {});
  const ClauseId c2 = g.AddClause(grp, {});
  auto value_of = [](VarId) { return true; };
  EXPECT_EQ(g.SatisfiedClauses(grp, value_of), 2);
  g.DeactivateClause(c2);
  EXPECT_EQ(g.SatisfiedClauses(grp, value_of), 1);
  EXPECT_EQ(g.NumActiveClauses(), 1u);
}

TEST(FactorGraphTest, FindActiveClause) {
  FactorGraph g;
  const VarId h = g.AddVariable();
  const VarId b = g.AddVariable();
  const WeightId w = g.AddWeight(1.0, false);
  const GroupId grp = g.AddGroup(0, h, w, Semantics::kLinear);
  const ClauseId c = g.AddClause(grp, {{b, false}});
  EXPECT_EQ(g.FindActiveClause(grp, {{b, false}}), c);
  EXPECT_EQ(g.FindActiveClause(grp, {{b, true}}), kNoClause);
  g.DeactivateClause(c);
  EXPECT_EQ(g.FindActiveClause(grp, {{b, false}}), kNoClause);
}

TEST(FactorGraphTest, FindActiveClauseDuplicatesAndGroups) {
  // The hash-indexed lookup must keep returning the *earliest* active clause
  // among duplicates, and never match a clause from another group.
  FactorGraph g;
  const VarId h1 = g.AddVariable();
  const VarId h2 = g.AddVariable();
  const VarId b = g.AddVariable();
  const WeightId w = g.AddWeight(1.0, false);
  const GroupId g1 = g.AddGroup(0, h1, w, Semantics::kLinear);
  const GroupId g2 = g.AddGroup(0, h2, w, Semantics::kLinear);
  const ClauseId c1 = g.AddClause(g1, {{b, false}});
  const ClauseId c2 = g.AddClause(g1, {{b, false}});
  const ClauseId other = g.AddClause(g2, {{b, false}});
  EXPECT_EQ(g.FindActiveClause(g1, {{b, false}}), c1);
  g.DeactivateClause(c1);
  EXPECT_EQ(g.FindActiveClause(g1, {{b, false}}), c2);
  g.DeactivateClause(c2);
  EXPECT_EQ(g.FindActiveClause(g1, {{b, false}}), kNoClause);
  EXPECT_EQ(g.FindActiveClause(g2, {{b, false}}), other);
}

TEST(FactorGraphTest, AddClausesBulk) {
  FactorGraph g;
  const VarId h = g.AddVariable();
  const VarId b1 = g.AddVariable();
  const VarId b2 = g.AddVariable();
  const WeightId w = g.AddWeight(1.0, false);
  const GroupId grp = g.AddGroup(0, h, w, Semantics::kLinear);
  g.ReserveClauses(3);
  const ClauseId first = g.AddClauses(grp, {{{b1, false}}, {{b2, true}}, {}});
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(g.NumClauses(), 3u);
  EXPECT_EQ(g.clause(first).literals.size(), 1u);
  EXPECT_EQ(g.clause(first + 1).literals[0].var, b2);
  EXPECT_TRUE(g.clause(first + 2).literals.empty());
  EXPECT_EQ(g.FindActiveClause(grp, {{b2, true}}), first + 1);
  EXPECT_EQ(g.AddClauses(grp, {}), kNoClause);
}

TEST(FactorGraphTest, Neighbors) {
  FactorGraph g;
  const VarId a = g.AddVariable();
  const VarId b = g.AddVariable();
  const VarId c = g.AddVariable();
  const WeightId w = g.AddWeight(1.0, false);
  g.AddSimpleFactor(a, {{b, false}}, w);
  g.AddSimpleFactor(b, {{c, false}}, w);
  EXPECT_EQ(g.Neighbors(a), (std::vector<VarId>{b}));
  EXPECT_EQ(g.Neighbors(b), (std::vector<VarId>{a, c}));
  EXPECT_EQ(g.Neighbors(c), (std::vector<VarId>{b}));
}

TEST(GraphDeltaTest, EmptyAndClassification) {
  GraphDelta delta;
  EXPECT_TRUE(delta.empty());
  EXPECT_FALSE(delta.structure_changed());
  delta.weight_changes.push_back({0, 0.0, 1.0});
  EXPECT_FALSE(delta.structure_changed());
  EXPECT_FALSE(delta.empty());
  delta.new_groups.push_back(0);
  EXPECT_TRUE(delta.structure_changed());
  GraphDelta other;
  other.evidence_changes.push_back({1, std::nullopt, true});
  delta.Merge(other);
  EXPECT_TRUE(delta.evidence_changed());
}

// Retracting many groups against a long cumulative delta: every cancelled
// addition leaves new_groups, the survivors keep their order, and removals
// of groups the window never added are recorded in order.
TEST(GraphDeltaTest, MergeCancelsLargeRemovalSetPreservingOrder) {
  constexpr GroupId kN = 10000;
  GraphDelta delta;
  for (GroupId i = 0; i < kN; ++i) delta.new_groups.push_back((i * 7919) % kN);
  GraphDelta retract;
  std::vector<GroupId> cancelled(kN, 0);
  for (GroupId i = 0; i < kN; i += 5) {
    const GroupId g = (i * 104729) % kN;
    retract.removed_groups.push_back(g);
    cancelled[g] = 1;
    retract.removed_groups.push_back(kN + i);  // never added in the window
  }
  std::vector<GroupId> expected_new;
  for (GroupId g : delta.new_groups) {
    if (cancelled[g] == 0) expected_new.push_back(g);
  }
  std::vector<GroupId> expected_removed;
  for (GroupId i = 0; i < kN; i += 5) expected_removed.push_back(kN + i);

  delta.Merge(retract);
  EXPECT_EQ(delta.new_groups, expected_new);
  EXPECT_EQ(delta.removed_groups, expected_removed);
}

// A world with variable v set to values[v].
BitVector World(std::initializer_list<bool> values) {
  BitVector world(values.size());
  size_t v = 0;
  for (const bool value : values) world.Set(v++, value);
  return world;
}

TEST(GraphDeltaTest, DeltaLogDensityRatioNewGroup) {
  FactorGraph g;
  const VarId a = g.AddVariable();
  const WeightId w = g.AddWeight(1.5, false);
  const GroupId grp = g.AddSimpleFactor(a, {}, w);
  GraphDelta delta;
  delta.new_groups.push_back(grp);
  EXPECT_DOUBLE_EQ(DeltaRatio(g, delta)(World({true})), 1.5);
  EXPECT_DOUBLE_EQ(DeltaRatio(g, delta)(World({false})), -1.5);
  // The weight moved 0.5 -> 1.5 since Pr(0): the new group is still scored
  // once, at the current value.
  delta.weight_changes.push_back({w, 0.5, 1.5});
  EXPECT_DOUBLE_EQ(DeltaRatio(g, delta)(World({true})), 1.5);
  EXPECT_DOUBLE_EQ(DeltaRatio(g, delta)(World({false})), -1.5);
}

TEST(GraphDeltaTest, DeltaLogDensityRatioEvidenceConflict) {
  FactorGraph g;
  const VarId a = g.AddVariable();
  g.SetEvidence(a, true);
  GraphDelta delta;
  delta.evidence_changes.push_back({a, std::nullopt, true});
  const DeltaRatio ratio(g, delta);
  EXPECT_TRUE(std::isinf(ratio(World({false}))));
  EXPECT_DOUBLE_EQ(ratio(World({true})), 0.0);
}

TEST(GraphDeltaTest, DeltaLogDensityRatioModifiedGroup) {
  FactorGraph g;
  const VarId h = g.AddVariable();
  const VarId b = g.AddVariable();
  const WeightId w = g.AddWeight(2.0, false);
  const GroupId grp = g.AddGroup(0, h, w, Semantics::kLinear);
  const ClauseId c_old = g.AddClause(grp, {});
  // Update: clause {b} added, empty clause removed.
  const ClauseId c_new = g.AddClause(grp, {{b, false}});
  g.DeactivateClause(c_old);
  GraphDelta delta;
  delta.modified_groups.push_back({grp, {c_new}, {c_old}});

  // World: h=true, b=false. New n = 0, old n = 1. Ratio = 2*(0 - 1) = -2.
  EXPECT_DOUBLE_EQ(DeltaRatio(g, delta)(World({true, false})), -2.0);

  // World: h=true, b=true. New n = 1, old n = 1. Ratio = 0.
  EXPECT_DOUBLE_EQ(DeltaRatio(g, delta)(World({true, true})), 0.0);

  // The weight moved 1.0 -> 2.0 since Pr(0), so Pr(0)'s term takes 1.0:
  // h=true, b=true gives 2*1 - 1*1, and h=true, b=false gives 2*0 - 1*1.
  delta.weight_changes.push_back({w, 1.0, 2.0});
  const DeltaRatio moved(g, delta);
  EXPECT_DOUBLE_EQ(moved(World({true, true})), 1.0);
  EXPECT_DOUBLE_EQ(moved(World({true, false})), -1.0);
}

TEST(GraphDeltaTest, DeltaLogDensityRatioWeightChange) {
  FactorGraph g;
  const VarId a = g.AddVariable();
  const WeightId w = g.AddWeight(2.0, true);
  g.AddSimpleFactor(a, {}, w);
  GraphDelta delta;
  delta.weight_changes.push_back({w, 0.5, 2.0});
  EXPECT_DOUBLE_EQ(DeltaRatio(g, delta)(World({true})), 1.5);
  // A removed group on the moved weight leaves Pr(0) at Pr(0)'s value:
  // 1.5 - 0.5.
  const GroupId removed = g.AddSimpleFactor(g.AddVariable(), {}, w);
  g.DeactivateGroup(removed);
  delta.removed_groups.push_back(removed);
  EXPECT_DOUBLE_EQ(DeltaRatio(g, delta)(World({true, true})), 1.0);
}

// Every contribution whose coefficient is exactly 0 (groups added, removed
// or modified on a weight at 0, as new tied weights are) is left out, and
// the ratio stays +0, never -0, whatever the world.
TEST(GraphDeltaTest, ZeroCoefficientContributionsCompileToNoTerm) {
  FactorGraph g;
  const VarId a = g.AddVariable();
  const VarId b = g.AddVariable();
  const WeightId zero = g.GetOrCreateTiedWeight("FE/zero");
  const GroupId modified = g.AddSimpleFactor(b, {}, zero);
  const GroupId removed = g.AddSimpleFactor(a, {}, zero);
  g.DeactivateGroup(removed);
  GraphDelta delta;
  delta.new_groups.push_back(g.AddSimpleFactor(a, {{b, true}}, zero));
  delta.removed_groups.push_back(removed);
  delta.modified_groups.push_back({modified, {g.AddClause(modified, {{a, false}})}, {}});
  const DeltaRatio ratio(g, delta);
  EXPECT_EQ(ratio.num_terms(), 0u);
  for (const bool va : {false, true}) {
    for (const bool vb : {false, true}) {
      const double r = ratio(World({va, vb}));
      EXPECT_EQ(r, 0.0);
      EXPECT_FALSE(std::signbit(r));
    }
  }
  // A nonzero weight brings back exactly the new group's term.
  delta.new_groups.push_back(g.AddSimpleFactor(b, {}, g.AddWeight(0.5, false)));
  const DeltaRatio one(g, delta);
  EXPECT_EQ(one.num_terms(), 1u);
  EXPECT_DOUBLE_EQ(one(World({false, true})), 0.5);
}

TEST(GraphDeltaTest, MergeKeepsOneEntryPerChangedWeight) {
  GraphDelta delta;
  GraphDelta first;
  first.weight_changes = {{7, 0.0, 1.0}, {2, 0.5, 0.6}};
  delta.Merge(first);
  EXPECT_EQ(delta.weight_changes,
            (std::vector<GraphDelta::WeightChange>{{2, 0.5, 0.6}, {7, 0.0, 1.0}}));
  // Any id order, an id repeated in the order of its changes; weight 2
  // moves back to its Pr(0) value and leaves no entry.
  GraphDelta second;
  second.weight_changes = {{7, 1.0, 2.0}, {4, 1.0, 1.5}, {2, 0.6, 0.5}, {4, 1.5, 3.0}};
  delta.Merge(second);
  EXPECT_EQ(delta.weight_changes,
            (std::vector<GraphDelta::WeightChange>{{4, 1.0, 3.0}, {7, 0.0, 2.0}}));
}

TEST(GraphDeltaTest, LabelAddedThenRemovedConstrainsNothing) {
  FactorGraph g;
  const VarId a = g.AddVariable();
  g.AddSimpleFactor(a, {}, g.AddWeight(0.7, false));
  GraphDelta delta;
  GraphDelta labelled;
  labelled.evidence_changes.push_back({a, std::nullopt, true});
  delta.Merge(labelled);
  GraphDelta cleared;
  cleared.evidence_changes.push_back({a, true, std::nullopt});
  delta.Merge(cleared);
  EXPECT_TRUE(delta.evidence_changes.empty());
  const DeltaRatio ratio(g, delta);
  EXPECT_DOUBLE_EQ(ratio(World({true})), 0.0);
  EXPECT_DOUBLE_EQ(ratio(World({false})), 0.0);
}

TEST(GraphDeltaTest, LabelFlippedTwiceConstrainsOnlyItsFinalValue) {
  FactorGraph g;
  const VarId a = g.AddVariable();
  GraphDelta delta;
  GraphDelta labelled;
  labelled.evidence_changes.push_back({a, std::nullopt, true});
  delta.Merge(labelled);
  // Both flips in one update: the later one wins.
  GraphDelta flips;
  flips.evidence_changes.push_back({a, true, false});
  flips.evidence_changes.push_back({a, false, true});
  delta.Merge(flips);
  ASSERT_EQ(delta.evidence_changes.size(), 1u);
  EXPECT_EQ(delta.evidence_changes[0],
            (GraphDelta::EvidenceChange{a, std::nullopt, true}));
  const DeltaRatio ratio(g, delta);
  EXPECT_DOUBLE_EQ(ratio(World({true})), 0.0);
  EXPECT_TRUE(std::isinf(ratio(World({false}))));
}

// Property, over random small graphs and op sequences merged update by
// update: for any two worlds of Pr(0)'s support that satisfy the final
// labels, the net ratio differs by what TotalLogWeight under the updated
// graph minus under a kept copy of Pr(0) says, and every other such world
// gets -infinity. The ops add groups on old and new learnable weights, move
// weights (some back to their Pr(0) values), remove groups, add and remove
// clauses, set, flip and clear labels, retract groups added by an earlier
// update, and set weights to exactly 0, whose terms add nothing. The entries
// stay one per changed weight and variable, sorted, holding the Pr(0) and
// current values, and dropping the weights Pr(0) did not have (as the
// engine does) changes no ratio. A hash over every ratio the test computes,
// recorded with the ratio walked through a value_of callback, pins them bit
// for bit; TotalLogWeight stays the independent reference.
TEST(GraphDeltaTest, NetRatioMatchesTotalLogWeightOnRandomOps) {
  constexpr Semantics kSemantics[] = {Semantics::kLinear, Semantics::kRatio,
                                      Semantics::kLogical};
  std::vector<double> ratios;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    FactorGraph g;
    const size_t n = 3 + rng.UniformInt(4);
    g.AddVariables(n);
    const auto random_var = [&] { return static_cast<VarId>(rng.UniformInt(n)); };
    const auto add_clause = [&](GroupId grp) {
      std::vector<Literal> literals;
      for (uint64_t k = rng.UniformInt(3); k > 0; --k) {
        const VarId v = random_var();
        if (v != g.group(grp).head) literals.push_back({v, rng.Bernoulli(0.3)});
      }
      return g.AddClause(grp, std::move(literals));
    };
    std::vector<WeightId> weights;
    const auto add_group = [&](WeightId w) {
      const GroupId grp = g.AddGroup(0, random_var(), w, kSemantics[rng.UniformInt(3)]);
      for (uint64_t c = 1 + rng.UniformInt(2); c > 0; --c) add_clause(grp);
      return grp;
    };
    for (int i = 0; i < 3; ++i) weights.push_back(g.AddWeight(rng.Uniform(-1.0, 1.0), true));
    for (int i = 0; i < 4; ++i) add_group(weights[rng.UniformInt(weights.size())]);
    if (rng.Bernoulli(0.5)) g.SetEvidence(random_var(), rng.Bernoulli(0.5));
    const FactorGraph pr0 = g;

    const auto random_active_group = [&]() -> std::optional<GroupId> {
      std::vector<GroupId> active;
      for (GroupId grp = 0; grp < g.NumGroups(); ++grp) {
        if (g.group(grp).active) active.push_back(grp);
      }
      if (active.empty()) return std::nullopt;
      return active[rng.UniformInt(active.size())];
    };
    GraphDelta cumulative;
    std::optional<GroupId> to_retract;
    for (int update = 0; update < 5; ++update) {
      GraphDelta merged_update;
      for (uint64_t op = 1 + rng.UniformInt(3); op > 0; --op) {
        GraphDelta d;
        switch (rng.UniformInt(9)) {
          case 0:
            d.new_groups.push_back(add_group(weights[rng.UniformInt(weights.size())]));
            break;
          case 1:
            weights.push_back(g.AddWeight(rng.Uniform(-1.0, 1.0), true));
            d.new_groups.push_back(add_group(weights.back()));
            break;
          case 2: {
            const WeightId w = weights[rng.UniformInt(weights.size())];
            const double old_value = g.WeightValue(w);
            const double new_value = w < pr0.NumWeights() && rng.Bernoulli(0.25)
                                         ? pr0.WeightValue(w)
                                         : rng.Uniform(-2.0, 2.0);
            g.SetWeightValue(w, new_value);
            d.weight_changes.push_back({w, old_value, new_value});
            break;
          }
          case 3:
            if (const auto grp = random_active_group()) {
              g.DeactivateGroup(*grp);
              d.removed_groups.push_back(*grp);
            }
            break;
          case 4:
            if (const auto grp = random_active_group()) {
              d.modified_groups.push_back({*grp, {add_clause(*grp)}, {}});
            }
            break;
          case 5:
            if (const auto grp = random_active_group()) {
              for (ClauseId cid : g.group(*grp).clauses) {
                if (!g.clause(cid).active) continue;
                g.DeactivateClause(cid);
                d.modified_groups.push_back({*grp, {}, {cid}});
                break;
              }
            }
            break;
          case 6: {
            const VarId v = random_var();
            const std::optional<bool> old_value = g.EvidenceValue(v);
            // Set or flip, or clear a label the draw would repeat.
            std::optional<bool> new_value = rng.Bernoulli(0.5);
            if (new_value == old_value) new_value = std::nullopt;
            g.SetEvidence(v, new_value);
            d.evidence_changes.push_back({v, old_value, new_value});
            break;
          }
          case 7:
            if (to_retract.has_value() && g.group(*to_retract).active) {
              g.DeactivateGroup(*to_retract);
              d.removed_groups.push_back(*to_retract);
              to_retract.reset();
            } else {
              to_retract = add_group(weights[rng.UniformInt(weights.size())]);
              d.new_groups.push_back(*to_retract);
            }
            break;
          case 8: {
            const WeightId w = weights[rng.UniformInt(weights.size())];
            d.weight_changes.push_back({w, g.WeightValue(w), 0.0});
            g.SetWeightValue(w, 0.0);
            break;
          }
        }
        merged_update.Merge(d);
      }
      cumulative.Merge(merged_update);
    }

    size_t moved = 0;
    for (WeightId w = 0; w < g.NumWeights(); ++w) {
      if (w < pr0.NumWeights() && g.WeightValue(w) != pr0.WeightValue(w)) ++moved;
    }
    size_t pr0_entries = 0;
    for (size_t i = 0; i < cumulative.weight_changes.size(); ++i) {
      const GraphDelta::WeightChange& c = cumulative.weight_changes[i];
      if (i > 0) {
        ASSERT_LT(cumulative.weight_changes[i - 1].weight, c.weight);
      }
      EXPECT_NE(c.old_value, c.new_value);
      EXPECT_EQ(c.new_value, g.WeightValue(c.weight));
      if (c.weight < pr0.NumWeights()) {
        EXPECT_EQ(c.old_value, pr0.WeightValue(c.weight));
        ++pr0_entries;
      }
    }
    EXPECT_EQ(pr0_entries, moved) << "seed " << seed;
    size_t relabelled = 0;
    for (VarId v = 0; v < n; ++v) {
      if (g.EvidenceValue(v) != pr0.EvidenceValue(v)) ++relabelled;
    }
    EXPECT_EQ(cumulative.evidence_changes.size(), relabelled) << "seed " << seed;
    for (size_t i = 0; i < cumulative.evidence_changes.size(); ++i) {
      const GraphDelta::EvidenceChange& c = cumulative.evidence_changes[i];
      if (i > 0) {
        ASSERT_LT(cumulative.evidence_changes[i - 1].var, c.var);
      }
      EXPECT_EQ(c.old_value, pr0.EvidenceValue(c.var));
      EXPECT_EQ(c.new_value, g.EvidenceValue(c.var));
    }

    GraphDelta filtered = cumulative;
    std::erase_if(filtered.weight_changes, [&](const GraphDelta::WeightChange& c) {
      return c.weight >= pr0.NumWeights();
    });
    const DeltaRatio cumulative_ratio(g, cumulative);
    const DeltaRatio filtered_ratio(g, filtered);
    std::optional<double> offset0;
    for (uint32_t world = 0; world < (uint32_t{1} << n); ++world) {
      const auto value_of = [world](VarId v) { return ((world >> v) & 1) != 0; };
      BitVector bits(n);
      for (VarId v = 0; v < n; ++v) bits.Set(v, value_of(v));
      const auto satisfies = [&](const FactorGraph& graph) {
        for (VarId v = 0; v < n; ++v) {
          const std::optional<bool> ev = graph.EvidenceValue(v);
          if (ev.has_value() && *ev != value_of(v)) return false;
        }
        return true;
      };
      if (!satisfies(pr0)) continue;  // no stored sample is this world
      for (const DeltaRatio* delta_ratio : {&cumulative_ratio, &filtered_ratio}) {
        const double ratio = (*delta_ratio)(bits);
        ratios.push_back(ratio);
        if (!satisfies(g)) {
          EXPECT_EQ(ratio, -std::numeric_limits<double>::infinity())
              << "seed " << seed << " world " << world;
          continue;
        }
        const double offset =
            ratio - (g.TotalLogWeight(value_of) - pr0.TotalLogWeight(value_of));
        if (!offset0.has_value()) offset0 = offset;
        EXPECT_NEAR(offset, *offset0, 1e-9) << "seed " << seed << " world " << world;
      }
    }
  }
  EXPECT_EQ(ratios.size(), 12032u);
  EXPECT_EQ(Fnv1aHash(ratios.data(), ratios.size() * sizeof(double)),
            0x6640ba5dcccc5112ULL);
}

TEST(GraphIoTest, RoundTrip) {
  FactorGraph g;
  const VarId a = g.AddVariable();
  const VarId b = g.AddVariable();
  g.SetEvidence(b, false);
  const WeightId w1 = g.AddWeight(0.5, true, "w1");
  const WeightId w2 = g.GetOrCreateTiedWeight("FE1/x");
  const GroupId g1 = g.AddGroup(1, a, w1, Semantics::kRatio);
  g.AddClause(g1, {{b, true}});
  const GroupId g2 = g.AddGroup(2, b, w2, Semantics::kLogical);
  const ClauseId c = g.AddClause(g2, {{a, false}});
  g.DeactivateClause(c);
  g.DeactivateGroup(g2);

  const std::string path = ::testing::TempDir() + "/graph_roundtrip.bin";
  ASSERT_TRUE(SaveGraph(g, path).ok());
  auto loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // v2 snapshots compact retracted elements out, so the loaded graph matches
  // the compiled round-trip of the original (same distribution, inactive
  // clause/group dropped) rather than the original structure.
  EXPECT_TRUE(GraphsEqual(CompiledGraph::Compile(g).Decompile(), *loaded));
  EXPECT_EQ(loaded->NumVariables(), g.NumVariables());
  EXPECT_EQ(loaded->NumWeights(), g.NumWeights());
  EXPECT_EQ(loaded->NumGroups(), 1u);   // g2 retracted, g1 survives
  EXPECT_EQ(loaded->NumClauses(), 1u);  // c retracted, g1's clause survives
  std::remove(path.c_str());
}

TEST(GraphIoTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/garbage.bin";
  FILE* f = fopen(path.c_str(), "wb");
  fputs("not a graph", f);
  fclose(f);
  EXPECT_FALSE(LoadGraph(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadGraph("/nonexistent/path.bin").ok());
}

}  // namespace
}  // namespace deepdive::factor
