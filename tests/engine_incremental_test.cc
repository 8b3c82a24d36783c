#include <gtest/gtest.h>

#include "factor/compiled_graph.h"
#include "factor/factor_graph.h"
#include "incremental/engine.h"
#include "incremental/variational.h"
#include "inference/exact.h"
#include "util/random.h"
#include "util/thread_role.h"

namespace deepdive::incremental {
namespace {

using factor::FactorGraph;
using factor::GraphDelta;
using factor::VarId;
using factor::WeightId;

FactorGraph TwoComponentGraph(uint64_t seed, size_t chains = 2, size_t length = 4) {
  // Disconnected chains, two of 4 variables unless `chains` and `length` say
  // otherwise.
  FactorGraph g;
  Rng rng(seed);
  g.AddVariables(length * chains);
  for (VarId base = 0; base < length * chains; base += length) {
    for (VarId i = 0; i + 1 < length; ++i) {
      g.AddSimpleFactor(base + i, {{static_cast<VarId>(base + i + 1), false}},
                        g.AddWeight(rng.Uniform(-0.8, 0.8), false));
    }
  }
  for (VarId v = 0; v < length * chains; ++v) {
    g.AddSimpleFactor(v, {}, g.AddWeight(rng.Uniform(-0.3, 0.3), false));
  }
  return g;
}

FactorGraph LongChainGraph(uint64_t seed) {
  // One chain above the exact-draw cut-off, so its samples need the Gibbs
  // chain and its burn-in.
  return TwoComponentGraph(seed, 1, kMaxExactComponentVars + 4);
}

MaterializationOptions TestMaterialization() {
  MaterializationOptions options;
  options.num_samples = 8000;
  options.gibbs_thin = 2;
  options.gibbs_burn_in = 100;
  options.variational.num_samples = 300;
  options.variational.fit_epochs = 150;
  options.variational.lambda = 0.05;
  return options;
}

EngineOptions TestEngine() {
  EngineOptions options;
  options.mh_target_steps = 3000;
  options.gibbs.burn_in_sweeps = 100;
  options.gibbs.sample_sweeps = 1500;
  return options;
}

TEST(IncrementalEngineTest, MaterializeProducesStatsAndMarginals) {
  deepdive::serving_thread.AssertHeld();
  FactorGraph g = TwoComponentGraph(1);
  IncrementalEngine engine(&g);
  ASSERT_TRUE(engine.Materialize(TestMaterialization()).ok());
  const auto snapshot = engine.snapshot();
  EXPECT_EQ(snapshot->stats.samples_collected, 8000u);
  EXPECT_GT(snapshot->stats.sample_bytes, 0u);
  EXPECT_GT(snapshot->stats.seconds, 0.0);
  EXPECT_TRUE(snapshot->variational.has_value());

  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_NEAR(engine.marginals()[v], exact->marginals[v], 0.1);
  }
}

TEST(IncrementalEngineTest, EmptyDeltaUsesSamplingWithFullAcceptance) {
  deepdive::serving_thread.AssertHeld();
  FactorGraph g = TwoComponentGraph(2);
  IncrementalEngine engine(&g);
  ASSERT_TRUE(engine.Materialize(TestMaterialization()).ok());
  auto outcome = engine.ApplyDelta(GraphDelta{}, TestEngine());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->strategy, Strategy::kSampling);
  EXPECT_DOUBLE_EQ(outcome->acceptance_rate, 1.0);
  EXPECT_EQ(outcome->affected_vars, 0u);  // nothing touched
}

TEST(IncrementalEngineTest, StructuralDeltaMatchesExact) {
  deepdive::serving_thread.AssertHeld();
  FactorGraph g = TwoComponentGraph(3);
  IncrementalEngine engine(&g);
  ASSERT_TRUE(engine.Materialize(TestMaterialization()).ok());

  GraphDelta delta;
  delta.new_groups.push_back(
      g.AddSimpleFactor(1, {{2, false}}, g.AddWeight(0.9, /*learnable=*/true)));
  auto outcome = engine.ApplyDelta(delta, TestEngine());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->strategy, Strategy::kSampling);
  // Only the first component is affected.
  EXPECT_EQ(outcome->affected_vars, 4u);

  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_NEAR(outcome->marginals[v], exact->marginals[v], 0.12) << "var " << v;
  }
}

TEST(IncrementalEngineTest, EvidenceDeltaUsesVariational) {
  deepdive::serving_thread.AssertHeld();
  FactorGraph g = TwoComponentGraph(4);
  IncrementalEngine engine(&g);
  ASSERT_TRUE(engine.Materialize(TestMaterialization()).ok());

  GraphDelta delta;
  g.SetEvidence(0, true);
  delta.evidence_changes.push_back({0, std::nullopt, true});
  auto outcome = engine.ApplyDelta(delta, TestEngine());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->strategy, Strategy::kVariational);
  EXPECT_DOUBLE_EQ(outcome->marginals[0], 1.0);

  // Evidence on a strongly coupled chain must drag its neighbor in the
  // right direction relative to the exact answer.
  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  for (VarId v = 0; v < 4; ++v) {
    EXPECT_NEAR(outcome->marginals[v], exact->marginals[v], 0.2) << "var " << v;
  }
}

TEST(IncrementalEngineTest, FallsBackToVariationalWhenSamplesExhausted) {
  deepdive::serving_thread.AssertHeld();
  FactorGraph g = TwoComponentGraph(5);
  IncrementalEngine engine(&g);
  MaterializationOptions mopts = TestMaterialization();
  mopts.num_samples = 20;  // tiny store
  ASSERT_TRUE(engine.Materialize(mopts).ok());

  GraphDelta delta;
  // Large change: acceptance collapses, store drains immediately.
  for (VarId v = 0; v < 4; ++v) {
    delta.new_groups.push_back(g.AddSimpleFactor(v, {}, g.AddWeight(3.0, false)));
  }
  EngineOptions eopts = TestEngine();
  eopts.mh_target_steps = 2000;
  auto outcome = engine.ApplyDelta(delta, eopts);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->strategy, Strategy::kVariational);
}

TEST(IncrementalEngineTest, ForcedStrategyIsRespected) {
  deepdive::serving_thread.AssertHeld();
  FactorGraph g = TwoComponentGraph(6);
  IncrementalEngine engine(&g);
  ASSERT_TRUE(engine.Materialize(TestMaterialization()).ok());
  EngineOptions eopts = TestEngine();
  eopts.forced_strategy = Strategy::kRerun;
  auto outcome = engine.ApplyDelta(GraphDelta{}, eopts);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->strategy, Strategy::kRerun);
}

TEST(IncrementalEngineTest, SuccessiveDeltasAccumulate) {
  deepdive::serving_thread.AssertHeld();
  FactorGraph g = TwoComponentGraph(7);
  IncrementalEngine engine(&g);
  ASSERT_TRUE(engine.Materialize(TestMaterialization()).ok());

  GraphDelta d1;
  d1.new_groups.push_back(
      g.AddSimpleFactor(0, {}, g.AddWeight(0.5, /*learnable=*/true)));
  ASSERT_TRUE(engine.ApplyDelta(d1, TestEngine()).ok());
  GraphDelta d2;
  d2.new_groups.push_back(
      g.AddSimpleFactor(5, {}, g.AddWeight(-0.5, /*learnable=*/true)));
  auto outcome = engine.ApplyDelta(d2, TestEngine());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(engine.cumulative_delta().new_groups.size(), 2u);
  // Both components are now affected by the cumulative delta.
  EXPECT_EQ(outcome->affected_vars, 8u);

  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_NEAR(outcome->marginals[v], exact->marginals[v], 0.12) << "var " << v;
  }
}

TEST(IncrementalEngineTest, DecompositionDisabledTouchesEverything) {
  deepdive::serving_thread.AssertHeld();
  FactorGraph g = TwoComponentGraph(8);
  IncrementalEngine engine(&g);
  ASSERT_TRUE(engine.Materialize(TestMaterialization()).ok());
  GraphDelta delta;
  delta.new_groups.push_back(
      g.AddSimpleFactor(0, {}, g.AddWeight(0.3, /*learnable=*/true)));
  EngineOptions eopts = TestEngine();
  eopts.decomposition_enabled = false;
  auto outcome = engine.ApplyDelta(delta, eopts);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->affected_vars, 8u);
}

// Incremental learning reports one change per moved weight per update. The
// cumulative delta nets them into one entry per weight, from its Pr(0) value
// to its current one, and the affected set stays the weight's component.
TEST(IncrementalEngineTest, RepeatedWeightChangesKeepAffectedSet) {
  deepdive::serving_thread.AssertHeld();
  FactorGraph g = TwoComponentGraph(9);
  IncrementalEngine engine(&g);
  ASSERT_TRUE(engine.Materialize(TestMaterialization()).ok());
  const std::vector<double> materialized = engine.marginals();
  const WeightId w = g.group(0).weight;  // the 0-1 factor of the first chain
  for (size_t k = 1; k <= 30; ++k) {
    GraphDelta delta;
    const double old_value = g.WeightValue(w);
    g.SetWeightValue(w, old_value + 0.01);
    delta.weight_changes.push_back({w, old_value, g.WeightValue(w)});
    auto outcome = engine.ApplyDelta(delta, TestEngine());
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_EQ(engine.cumulative_delta().weight_changes.size(), 1u);
    EXPECT_EQ(outcome->affected_vars, 4u) << "update " << k;
    for (VarId v = 4; v < 8; ++v) {
      EXPECT_EQ(outcome->marginals[v], materialized[v]) << "update " << k << " var " << v;
    }
  }
}

// The cumulative delta keeps entries only for weights Pr(0) had. A weight
// created since is scored through its groups, which are all new.
TEST(IncrementalEngineTest, CumulativeDeltaDropsWeightsPr0DidNotHave) {
  deepdive::serving_thread.AssertHeld();
  FactorGraph g = TwoComponentGraph(13);
  IncrementalEngine engine(&g);
  ASSERT_TRUE(engine.Materialize(TestMaterialization()).ok());
  GraphDelta delta;
  const WeightId fresh = g.AddWeight(0.1, /*learnable=*/true);
  delta.new_groups.push_back(g.AddSimpleFactor(5, {{6, false}}, fresh));
  g.SetWeightValue(fresh, 0.6);
  delta.weight_changes.push_back({fresh, 0.1, 0.6});
  const WeightId moved = g.group(0).weight;
  const double pr0_value = g.WeightValue(moved);
  g.SetWeightValue(moved, pr0_value + 0.3);
  delta.weight_changes.push_back({moved, pr0_value, pr0_value + 0.3});

  auto outcome = engine.ApplyDelta(delta, TestEngine());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(engine.cumulative_delta().weight_changes,
            (std::vector<GraphDelta::WeightChange>{{moved, pr0_value, pr0_value + 0.3}}));
  EXPECT_EQ(outcome->affected_vars, 8u);
  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_NEAR(outcome->marginals[v], exact->marginals[v], 0.12) << "var " << v;
  }
}

TEST(IncrementalEngineTest, PerGroupStrategySplitsComponents) {
  deepdive::serving_thread.AssertHeld();
  // Component 1 gets new evidence (variational bucket); component 2 gets a
  // new feature factor (sampling bucket). Both sets of marginals must track
  // the exact posterior of the combined update.
  FactorGraph g = TwoComponentGraph(11);
  IncrementalEngine engine(&g);
  ASSERT_TRUE(engine.Materialize(TestMaterialization()).ok());

  GraphDelta delta;
  g.SetEvidence(1, true);
  delta.evidence_changes.push_back({1, std::nullopt, true});
  delta.new_groups.push_back(
      g.AddSimpleFactor(5, {{6, false}}, g.AddWeight(0.7, /*learnable=*/true)));

  auto outcome = engine.ApplyDelta(delta, TestEngine());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->variational_vars, 4u);  // the evidence component
  EXPECT_EQ(outcome->sampling_vars, 4u);     // the feature component
  EXPECT_DOUBLE_EQ(outcome->marginals[1], 1.0);
  // Pins each bucket's variable order and seed stream bit for bit.
  EXPECT_EQ(factor::Fnv1aHash(outcome->marginals.data(),
                              outcome->marginals.size() * sizeof(double)),
            0xf965627864378eb2ULL);

  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  for (VarId v = 4; v < 8; ++v) {
    // The sampling component's marginals track exactly.
    EXPECT_NEAR(outcome->marginals[v], exact->marginals[v], 0.12) << "var " << v;
  }
  for (VarId v = 0; v < 4; ++v) {
    // The variational component approximates.
    EXPECT_NEAR(outcome->marginals[v], exact->marginals[v], 0.2) << "var " << v;
  }
}

TEST(IncrementalEngineTest, PerGroupDisabledFallsBackToGlobalChoice) {
  deepdive::serving_thread.AssertHeld();
  FactorGraph g = TwoComponentGraph(12);
  IncrementalEngine engine(&g);
  ASSERT_TRUE(engine.Materialize(TestMaterialization()).ok());
  GraphDelta delta;
  g.SetEvidence(0, false);
  delta.evidence_changes.push_back({0, std::nullopt, false});
  // Without decomposition the update is classified once, as a whole.
  EngineOptions eopts = TestEngine();
  eopts.decomposition_enabled = false;
  auto outcome = engine.ApplyDelta(delta, eopts);
  ASSERT_TRUE(outcome.ok());
  // Global classification: evidence modified -> variational for everything.
  EXPECT_EQ(outcome->strategy, Strategy::kVariational);
  EXPECT_EQ(outcome->sampling_vars, 0u);
}

TEST(IncrementalEngineTest, TimeBudgetLimitsSampleCollection) {
  deepdive::serving_thread.AssertHeld();
  FactorGraph g = TwoComponentGraph(9);
  IncrementalEngine engine(&g);
  MaterializationOptions mopts = TestMaterialization();
  mopts.num_samples = 100000000;  // absurd target
  mopts.time_budget_seconds = 0.05;
  ASSERT_TRUE(engine.Materialize(mopts).ok());
  EXPECT_LT(engine.snapshot()->stats.samples_collected, 100000000u);
  EXPECT_GT(engine.snapshot()->stats.samples_collected, 0u);
}

TEST(IncrementalEngineTest, TimeBudgetEnforcedDuringBurnIn) {
  deepdive::serving_thread.AssertHeld();
  // Regression: the budget used to be checked only between sample callbacks,
  // so a long burn-in could blow it before the first sample landed. A
  // burn-in this size takes minutes unchecked — the budget must cut it off.
  FactorGraph g = LongChainGraph(10);
  IncrementalEngine engine(&g);
  MaterializationOptions mopts = TestMaterialization();
  mopts.gibbs_burn_in = 2000000000;
  mopts.num_samples = 10;
  mopts.time_budget_seconds = 0.05;
  ASSERT_TRUE(engine.Materialize(mopts).ok());
  EXPECT_EQ(engine.snapshot()->stats.samples_collected, 0u);
  EXPECT_LT(engine.snapshot()->stats.seconds, 5.0);
}

TEST(IncrementalEngineTest, TimeBudgetStopsExactDraws) {
  deepdive::serving_thread.AssertHeld();
  // Every component is drawn exactly (no chain, no burn-in); the budget is
  // polled between samples, and the enumerated marginals stay exact.
  FactorGraph g = TwoComponentGraph(10);
  IncrementalEngine engine(&g);
  MaterializationOptions mopts = TestMaterialization();
  mopts.num_samples = 1000000000;
  mopts.time_budget_seconds = 0.02;
  ASSERT_TRUE(engine.Materialize(mopts).ok());
  const auto snapshot = engine.snapshot();
  EXPECT_EQ(snapshot->stats.exact_vars, g.NumVariables());
  EXPECT_EQ(snapshot->stats.chain_vars, 0u);
  EXPECT_GT(snapshot->stats.samples_collected, 0u);
  EXPECT_LT(snapshot->stats.samples_collected, 1000000000u);
  EXPECT_LT(snapshot->stats.seconds, 5.0);
  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_NEAR(snapshot->materialized_marginals[v], exact->marginals[v], 1e-12);
  }
}

TEST(IncrementalEngineTest, ComponentCacheTracksNewVariables) {
  deepdive::serving_thread.AssertHeld();
  // The connected-components cache must be invalidated by structural deltas:
  // a variable added after a cached computation has to show up in the
  // affected set of the update that introduces it.
  FactorGraph g = TwoComponentGraph(13);
  IncrementalEngine engine(&g);
  ASSERT_TRUE(engine.Materialize(TestMaterialization()).ok());

  // Prime the cache with an evidence-only update (no structural change).
  GraphDelta d1;
  g.SetEvidence(4, true);
  d1.evidence_changes.push_back({4, std::nullopt, true});
  auto first = engine.ApplyDelta(d1, TestEngine());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->affected_vars, 4u);  // the second chain only

  // Structural update: a new variable attached to component one.
  GraphDelta d2;
  const VarId nv = g.AddVariable();
  d2.new_variables.push_back(nv);
  d2.new_groups.push_back(
      g.AddSimpleFactor(nv, {{0, false}}, g.AddWeight(1.2, /*learnable=*/true)));
  auto second = engine.ApplyDelta(d2, TestEngine());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // Cumulative: evidence component (4 vars) + component one with its new
  // variable (5 vars). A stale component cache would miss the new variable.
  EXPECT_EQ(second->affected_vars, 9u);

  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(second->marginals[nv], exact->marginals[nv], 0.15);
}

TEST(IncrementalEngineTest, ComponentCacheReuseKeepsBucketsIdentical) {
  deepdive::serving_thread.AssertHeld();
  // Successive per-group updates must land in the same strategy buckets
  // whether the components came from the cache (evidence-only follow-up) or
  // a fresh computation (structural follow-up).
  FactorGraph g = TwoComponentGraph(14);
  IncrementalEngine engine(&g);
  ASSERT_TRUE(engine.Materialize(TestMaterialization()).ok());

  GraphDelta d1;
  g.SetEvidence(1, true);
  d1.evidence_changes.push_back({1, std::nullopt, true});
  auto first = engine.ApplyDelta(d1, TestEngine());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->variational_vars, 4u);
  EXPECT_EQ(first->sampling_vars, 0u);

  // Cached components (no structural change since d1): same bucketing plus
  // the same component set.
  GraphDelta d2;
  g.SetEvidence(2, false);
  d2.evidence_changes.push_back({2, std::nullopt, false});
  auto second = engine.ApplyDelta(d2, TestEngine());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->variational_vars, 4u);
  EXPECT_EQ(second->sampling_vars, 0u);

  // Structural follow-up on the other component: fresh computation must
  // keep the evidence component variational and add the feature component
  // to the sampling bucket. A modest accepted-step target keeps the chain
  // inside the store despite the evidence changes rejecting many proposals.
  GraphDelta d3;
  d3.new_groups.push_back(
      g.AddSimpleFactor(5, {{6, false}}, g.AddWeight(0.7, true)));
  EngineOptions third_opts = TestEngine();
  third_opts.mh_target_steps = 800;
  auto third = engine.ApplyDelta(d3, third_opts);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->variational_vars, 4u);
  EXPECT_EQ(third->sampling_vars, 4u);

  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_NEAR(third->marginals[v], exact->marginals[v], 0.2) << "var " << v;
  }
}

// Three chains; the update sets evidence in the first and adds a factor to
// the second, so the third is not swept, plus a factor headed by the new
// evidence whose clause alone couples variables 3 and 4. Every swept
// component is under the cut-off, so each swept variable gets the exact
// marginal of the spliced image with the unswept variables at their warm
// values, at any thread count. The thread count also reaches the
// materialization's variational fit, whose Hogwild draws make the image
// itself vary from run to run above one thread; at one thread the image is
// fixed and the result does not depend on the seed.
TEST(IncrementalEngineTest, VariationalEnumeratesSmallComponentsExactly) {
  deepdive::serving_thread.AssertHeld();
  std::vector<double> first_marginals;
  for (size_t threads : {1u, 2u}) {
    for (uint64_t seed : {1u, 2u}) {
      FactorGraph g = TwoComponentGraph(21, /*chains=*/3);
      IncrementalEngine engine(&g, {.num_threads = threads});
      ASSERT_TRUE(engine.Materialize(TestMaterialization()).ok());
      const std::vector<double> warm = engine.marginals();
      GraphDelta delta;
      g.SetEvidence(0, true);
      delta.evidence_changes.push_back({0, std::nullopt, true});
      delta.new_groups.push_back(g.AddSimpleFactor(5, {{6, true}}, g.AddWeight(1.1, false)));
      delta.new_groups.push_back(
          g.AddSimpleFactor(0, {{3, false}, {4, false}}, g.AddWeight(0.9, false)));
      EngineOptions eopts = TestEngine();
      eopts.forced_strategy = Strategy::kVariational;
      eopts.gibbs.seed = seed;
      auto outcome = engine.ApplyDelta(delta, eopts);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      EXPECT_EQ(outcome->affected_vars, 8u);
      EXPECT_EQ(outcome->exact_vars, 7u);  // variable 0 is evidence now
      EXPECT_EQ(outcome->sampled_vars, 0u);

      FactorGraph reference = BuildVariationalInferenceImage(
          g, *engine.snapshot()->variational, engine.cumulative_delta()).Decompile();
      for (VarId v = 8; v < 12; ++v) reference.SetEvidence(v, warm[v] > 0.5);
      auto exact = inference::ExactInference(reference);
      ASSERT_TRUE(exact.ok());
      for (VarId v = 1; v < 8; ++v) {
        EXPECT_NEAR(outcome->marginals[v], exact->marginals[v], 1e-12) << "var " << v;
      }
      if (threads > 1) continue;
      if (first_marginals.empty()) first_marginals = outcome->marginals;
      EXPECT_EQ(outcome->marginals, first_marginals) << "seed " << seed;
    }
  }
}

// The default budget is 50 + 200 sweeps, so the cut-off 2^n <= 250 n
// enumerates a component of 11 variables and samples one of 12.
TEST(IncrementalEngineTest, VariationalCutOffEnumeratesElevenAndSamplesTwelve) {
  deepdive::serving_thread.AssertHeld();
  FactorGraph g;
  g.AddVariables(23);
  Rng rng(31);
  for (VarId v = 0; v < 23; ++v) {
    g.AddSimpleFactor(v, {}, g.AddWeight(rng.Uniform(-0.3, 0.3), false));
  }
  IncrementalEngine engine(&g);
  ASSERT_TRUE(engine.Materialize(TestMaterialization()).ok());
  // Priors alone give the approximation no pairwise edge; the update chains
  // variables 0-10 and 11-22.
  GraphDelta delta;
  for (VarId v = 0; v + 1 < 23; ++v) {
    if (v == 10) continue;
    delta.new_groups.push_back(g.AddSimpleFactor(
        v, {{static_cast<VarId>(v + 1), false}}, g.AddWeight(rng.Uniform(-0.8, 0.8), false)));
  }
  EngineOptions eopts;
  eopts.forced_strategy = Strategy::kVariational;
  auto outcome = engine.ApplyDelta(delta, eopts);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->affected_vars, 23u);
  EXPECT_EQ(outcome->exact_vars, 11u);
  EXPECT_EQ(outcome->sampled_vars, 12u);
}

// ---------------------------------------------------------------------------
// The rule-based optimizer of Section 3.3 is ExecuteUpdate's classifier. Each
// row below is one write on TwoComponentGraph through ApplyDelta and the
// strategy the write must report. Every row registers as its own test,
// OptimizerTest.<name>, so a failure names its row.

enum class Write {
  kNone,            // an empty delta
  kWeight,          // a weight moves
  kFeature,         // a new group on a learnable weight
  kLabel,           // a label changes
  kRule,            // a new group on a fixed weight
  kStrongFeatures,  // a strong learnable prior on each variable of a chain
  kStrongRules,     // the same on fixed weights
};

struct ClassifierCase {
  const char* name;
  Write write;
  Strategy expected;
  bool materialize = true;  // false: the write comes before any snapshot
  size_t num_samples = 8000;
  OptimizerConfig optimizer = {};
  std::optional<Strategy> forced = {};
};

constexpr OptimizerConfig kSamplingOff{.sampling_enabled = false};
constexpr OptimizerConfig kVariationalOff{.variational_enabled = false};
constexpr OptimizerConfig kBothOff{.sampling_enabled = false, .variational_enabled = false};

const ClassifierCase kClassifierCases[] = {
    {.name = "Rule1StructureUnchangedPicksSampling",
     .write = Write::kWeight,
     .expected = Strategy::kSampling},
    {.name = "Rule3NewFeaturesPicksSampling",
     .write = Write::kFeature,
     .expected = Strategy::kSampling},
    {.name = "Rule2EvidencePicksVariational",
     .write = Write::kLabel,
     .expected = Strategy::kVariational},
    {.name = "FixedWeightStructuralChangeGoesVariational",
     .write = Write::kRule,
     .expected = Strategy::kVariational},
    // A 20-sample store runs dry: the variational path answers (rule 4).
    {.name = "Rule4OutOfSamplesPicksVariational",
     .write = Write::kStrongFeatures,
     .expected = Strategy::kVariational,
     .num_samples = 20},
    {.name = "LesionSamplingDisabled",
     .write = Write::kFeature,
     .expected = Strategy::kVariational,
     .optimizer = kSamplingOff},
    {.name = "LesionVariationalDisabled",
     .write = Write::kLabel,
     .expected = Strategy::kSampling,
     .optimizer = kVariationalOff},
    // ... and with no variational path, a rerun answers a dry store.
    {.name = "LesionVariationalDisabledRerunsWhenSamplesRunOut",
     .write = Write::kStrongRules,
     .expected = Strategy::kRerun,
     .num_samples = 20,
     .optimizer = kVariationalOff},
    {.name = "BothDisabledFallsBackToRerun",
     .write = Write::kFeature,
     .expected = Strategy::kRerun,
     .optimizer = kBothOff},
    {.name = "NoSnapshotReruns",
     .write = Write::kFeature,
     .expected = Strategy::kRerun,
     .materialize = false},
    {.name = "ForcedRerunOnEmptyDeltaReruns",
     .write = Write::kNone,
     .expected = Strategy::kRerun,
     .forced = Strategy::kRerun},
    {.name = "ForcedVariationalWithoutFitReruns",
     .write = Write::kFeature,
     .expected = Strategy::kRerun,
     .materialize = false,
     .forced = Strategy::kVariational},
};

class ClassifierCaseTest : public testing::Test {
 public:
  explicit ClassifierCaseTest(const ClassifierCase& c) : case_(c) {}

  void TestBody() override {
    deepdive::serving_thread.AssertHeld();
    FactorGraph g = TwoComponentGraph(3);
    IncrementalEngine engine(&g);
    if (case_.materialize) {
      MaterializationOptions mopts = TestMaterialization();
      mopts.num_samples = case_.num_samples;
      ASSERT_TRUE(engine.Materialize(mopts).ok());
    }
    GraphDelta delta;
    switch (case_.write) {
      case Write::kNone:
        break;
      case Write::kWeight: {
        const WeightId w = g.group(0).weight;
        const double old_value = g.WeightValue(w);
        g.SetWeightValue(w, old_value + 0.3);
        delta.weight_changes.push_back({w, old_value, old_value + 0.3});
        break;
      }
      case Write::kFeature:
      case Write::kRule:
        delta.new_groups.push_back(g.AddSimpleFactor(
            1, {{2, false}}, g.AddWeight(0.9, case_.write == Write::kFeature)));
        break;
      case Write::kLabel:
        g.SetEvidence(0, true);
        delta.evidence_changes.push_back({0, std::nullopt, true});
        break;
      case Write::kStrongFeatures:
      case Write::kStrongRules:
        for (VarId v = 0; v < 4; ++v) {
          delta.new_groups.push_back(g.AddSimpleFactor(
              v, {}, g.AddWeight(3.0, case_.write == Write::kStrongFeatures)));
        }
        break;
    }
    EngineOptions eopts = TestEngine();
    eopts.optimizer = case_.optimizer;
    eopts.forced_strategy = case_.forced;
    auto outcome = engine.ApplyDelta(delta, eopts);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->strategy, case_.expected)
        << "reported " << StrategyName(outcome->strategy);
  }

 private:
  const ClassifierCase case_;
};

[[maybe_unused]] const bool kClassifierCasesRegistered = [] {
  for (const ClassifierCase& c : kClassifierCases) {
    testing::RegisterTest("OptimizerTest", c.name, nullptr, nullptr, __FILE__, __LINE__,
                          [c]() -> testing::Test* { return new ClassifierCaseTest(c); });
  }
  return true;
}();

TEST(OptimizerTest, StrategyNames) {
  EXPECT_STREQ(StrategyName(Strategy::kSampling), "sampling");
  EXPECT_STREQ(StrategyName(Strategy::kVariational), "variational");
  EXPECT_STREQ(StrategyName(Strategy::kRerun), "rerun");
}

}  // namespace
}  // namespace deepdive::incremental
