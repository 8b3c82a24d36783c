// First-class rule deltas (online program evolution): AddRule grounds only
// the new rule (proportional-work witness), RetractRule restores the pre-add
// state bit-for-bit from the rule journal at any thread count, program
// identity (version/count/fingerprint) is published into result views, and a
// materialization build scheduled before a rule delta is discarded instead of
// resurrecting retracted factors, then rebuilt at the current program.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/deepdive.h"
#include "factor/factor_graph.h"
#include "incremental/engine.h"
#include "util/random.h"
#include "util/thread_role.h"

namespace deepdive::core {
namespace {

constexpr char kProgram[] = R"(
  relation Person(s: int, m: int).
  relation Feature(m1: int, m2: int, f: string).
  query relation HasSpouse(m1: int, m2: int).
  evidence HasSpouseEv(m1: int, m2: int, l: bool) for HasSpouse.
  rule CAND: HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2), m1 != m2.
  factor PRIOR: HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2), m1 != m2
    weight = -0.5 semantics = logical.
)";

constexpr char kFeatureRule[] = R"(
  factor FE1: HasSpouse(m1, m2) :- Feature(m1, m2, f) weight = 0.8.
)";

std::vector<Tuple> PersonRows() {
  return {{Value(1), Value(10)}, {Value(1), Value(11)},
          {Value(2), Value(20)}, {Value(2), Value(21)}};
}

std::unique_ptr<DeepDive> Make(DeepDiveConfig config,
                               const std::vector<Tuple>& labels = {})
    REQUIRES(serving_thread) {
  auto dd = DeepDive::Create(kProgram, config);
  EXPECT_TRUE(dd.ok()) << dd.status().ToString();
  EXPECT_TRUE(dd.value()->LoadRows("Person", PersonRows()).ok());
  EXPECT_TRUE(dd.value()->LoadRows("HasSpouseEv", labels).ok());
  EXPECT_TRUE(dd.value()
                  ->LoadRows("Feature", {{Value(10), Value(11), Value("wife")},
                                         {Value(20), Value(21), Value("met")}})
                  .ok());
  EXPECT_TRUE(dd.value()->Initialize().ok());
  return std::move(dd).value();
}

TEST(RuleDeltaTest, AddRuleGroundsOnlyTheNewRule) {
  deepdive::serving_thread.AssertHeld();
  auto dd = Make(FastTestConfig());
  const uint64_t emitted_before = dd->grounder()->groundings_emitted();

  auto report = dd->AddRule(kFeatureRule);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Two Feature rows match the rule; the whole program has 4 CAND pairs and
  // a prior over each, so proportional work == 2 proves no re-ground.
  EXPECT_EQ(report->grounding_work, 2u);
  EXPECT_EQ(dd->grounder()->groundings_emitted() - emitted_before, 2u);
  EXPECT_EQ(report->label, "add_rule:FE1");
  EXPECT_GT(report->epoch, 0u);
}

TEST(RuleDeltaTest, AddRuleValidatesItsFragment) {
  deepdive::serving_thread.AssertHeld();
  auto dd = Make(FastTestConfig());
  // Deductive rules change view contents: rejected.
  EXPECT_EQ(dd->AddRule("rule D: HasSpouse(a, b) :- Feature(a, b, f).")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Unlabeled factor rules cannot be retracted: rejected.
  EXPECT_EQ(
      dd->AddRule("factor HasSpouse(a, b) :- Feature(a, b, f) weight = 1.")
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  // Duplicate label: rejected.
  EXPECT_EQ(
      dd->AddRule("factor PRIOR: HasSpouse(a, b) :- Feature(a, b, f) "
                  "weight = 1.")
          .status()
          .code(),
      StatusCode::kAlreadyExists);
  // New relations must go through ApplyUpdate.
  EXPECT_EQ(dd->AddRule("relation Fresh(a: int).\n"
                        "factor F: HasSpouse(a, b) :- Feature(a, b, f) "
                        "weight = 1.")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(RuleDeltaTest, ProgramIdentityIsPublishedIntoViews) {
  deepdive::serving_thread.AssertHeld();
  auto dd = Make(FastTestConfig());
  const uint64_t version0 = dd->program_version();
  const uint64_t rules0 = dd->NumRules();
  const uint64_t fingerprint0 = dd->RulesFingerprint();
  EXPECT_EQ(rules0, 2u);  // CAND + PRIOR
  EXPECT_EQ(dd->Query()->rules_fingerprint, fingerprint0);

  ASSERT_TRUE(dd->AddRule(kFeatureRule).ok());
  EXPECT_EQ(dd->program_version(), version0 + 1);
  EXPECT_EQ(dd->NumRules(), rules0 + 1);
  EXPECT_NE(dd->RulesFingerprint(), fingerprint0);
  EXPECT_EQ(dd->Query()->program_version, version0 + 1);
  EXPECT_EQ(dd->Query()->rule_count, rules0 + 1);

  ASSERT_TRUE(dd->RetractRule("FE1").ok());
  EXPECT_EQ(dd->program_version(), version0 + 2);
  EXPECT_EQ(dd->NumRules(), rules0);
  // The fingerprint hashes canonical rule text in declaration order, so the
  // add/retract round trip lands back on the original program identity.
  EXPECT_EQ(dd->RulesFingerprint(), fingerprint0);
  EXPECT_EQ(dd->Query()->rules_fingerprint, fingerprint0);
}

/// Property: AddRule -> RetractRule restores marginals, weights and active
/// structure bit-for-bit to the never-added state, at every inference thread
/// count. The pre-add state IS the never-added state (AddRule is the only
/// intervening operation), so the comparison holds even where multi-threaded
/// sampling is not run-to-run deterministic.
TEST(RuleDeltaTest, AddRetractRoundTripsBitIdentical) {
  deepdive::serving_thread.AssertHeld();
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DeepDiveConfig config = FastTestConfig();
    config.parallelism.num_threads = threads;
    auto dd = Make(config);

    const std::vector<double> marginals_before = dd->Query()->marginals;
    const size_t clauses_before = dd->ground().graph.NumActiveClauses();
    const size_t weights_before = dd->ground().graph.NumWeights();
    std::vector<double> weight_values_before(weights_before);
    for (size_t w = 0; w < weights_before; ++w) {
      weight_values_before[w] = dd->ground().graph.WeightValue(w);
    }
    const uint64_t fingerprint_before = dd->RulesFingerprint();

    ASSERT_TRUE(dd->AddRule(kFeatureRule).ok());
    auto retract = dd->RetractRule("FE1");
    ASSERT_TRUE(retract.ok()) << retract.status().ToString();
    // Journal restore: full acceptance, no re-inference.
    EXPECT_DOUBLE_EQ(retract->acceptance_rate, 1.0);

    EXPECT_EQ(dd->ground().graph.NumActiveClauses(), clauses_before);
    EXPECT_EQ(dd->RulesFingerprint(), fingerprint_before);
    const std::vector<double> after = dd->Query()->marginals;
    ASSERT_GE(after.size(), marginals_before.size());
    for (size_t v = 0; v < marginals_before.size(); ++v) {
      EXPECT_EQ(marginals_before[v], after[v]) << "var " << v;
    }
    // Pre-existing weights revert exactly.
    for (size_t w = 0; w < weights_before; ++w) {
      EXPECT_EQ(dd->ground().graph.WeightValue(w), weight_values_before[w])
          << "weight " << w;
    }
  }
}

// Labels make AddRule learn. The rules tie their weights by feature, so they
// are learnable: once FW is in, adding FR moves FW's weights too.
std::vector<Tuple> LabelRows() {
  return {{Value(10), Value(11), Value(true)},
          {Value(20), Value(21), Value(false)}};
}
constexpr char kLearnedRule[] = R"(
  factor FW: HasSpouse(m1, m2) :- Feature(m1, m2, f) weight = w(f).
)";
constexpr char kReversedRule[] = R"(
  factor FR: HasSpouse(m1, m2) :- Feature(m2, m1, f) weight = w(f).
)";

/// Regression: an exact restore returns the engine's cumulative delta to its
/// contents before the matching AddRule. It used to keep the weight changes
/// the add's learning merged, so the next MH-served update weighed changes
/// that no longer existed. The cumulative delta holds only weights Pr(0) had,
/// so FW is materialized, and an update moves its weights before FR is
/// added; FR's learning moves them again, and the retraction's reverts must
/// bring each entry back.
TEST(RuleDeltaTest, ExactRestoreRewindsCumulativeDelta) {
  deepdive::serving_thread.AssertHeld();
  auto dd = Make(FastTestConfig(), LabelRows());
  ASSERT_TRUE(dd->AddRule(kLearnedRule).ok());
  incremental::IncrementalEngine* engine = dd->incremental_engine();
  ASSERT_TRUE(engine->Materialize(FastTestConfig().materialization).ok());
  UpdateSpec feature;
  feature.label = "feature";
  feature.inserts["Feature"] = {{Value(11), Value(10), Value("wife")}};
  ASSERT_TRUE(dd->ApplyUpdate(feature).ok());
  const factor::GraphDelta before = engine->cumulative_delta();
  ASSERT_FALSE(before.weight_changes.empty());

  ASSERT_TRUE(dd->AddRule(kReversedRule).ok());
  ASSERT_NE(engine->cumulative_delta().weight_changes, before.weight_changes);
  auto retract = dd->RetractRule("FR");
  ASSERT_TRUE(retract.ok()) << retract.status().ToString();
  ASSERT_DOUBLE_EQ(retract->acceptance_rate, 1.0);  // the journal restore

  const factor::GraphDelta& after = engine->cumulative_delta();
  EXPECT_EQ(after.weight_changes.size(), before.weight_changes.size());
  EXPECT_TRUE(after == before);
}

/// A snapshot installed between the add and the retraction makes the add's
/// learned weights Pr(0) values, so the retraction's delta must carry their
/// reverts, and the cumulative delta holds each, from learned value to
/// original.
TEST(RuleDeltaTest, ExactRestoreAfterInstallLogsWeightReverts) {
  deepdive::serving_thread.AssertHeld();
  auto dd = Make(FastTestConfig(), LabelRows());
  ASSERT_TRUE(dd->AddRule(kLearnedRule).ok());
  const factor::FactorGraph& graph = dd->ground().graph;
  std::vector<double> weights_before(graph.NumWeights());
  for (size_t w = 0; w < weights_before.size(); ++w) {
    weights_before[w] = graph.WeightValue(w);
  }
  ASSERT_TRUE(dd->AddRule(kReversedRule).ok());
  incremental::IncrementalEngine* engine = dd->incremental_engine();
  ASSERT_TRUE(engine->Materialize(FastTestConfig().materialization).ok());
  ASSERT_TRUE(engine->cumulative_delta().empty());

  auto retract = dd->RetractRule("FR");
  ASSERT_TRUE(retract.ok()) << retract.status().ToString();
  ASSERT_DOUBLE_EQ(retract->acceptance_rate, 1.0);
  const factor::GraphDelta& delta = engine->cumulative_delta();
  EXPECT_FALSE(delta.removed_groups.empty());
  ASSERT_FALSE(delta.weight_changes.empty());
  for (const factor::GraphDelta::WeightChange& change : delta.weight_changes) {
    ASSERT_LT(change.weight, weights_before.size());
    EXPECT_EQ(change.new_value, weights_before[change.weight]);
    EXPECT_NE(change.old_value, change.new_value);
    EXPECT_EQ(graph.WeightValue(change.weight), weights_before[change.weight]);
  }
}

std::vector<double> WeightValues(const factor::FactorGraph& graph) {
  std::vector<double> values(graph.NumWeights());
  for (size_t w = 0; w < values.size(); ++w) values[w] = graph.WeightValue(w);
  return values;
}

/// The rule journal lives in the apply step, so an add and the removal right
/// after it restore exactly whichever verb carries each: AddRule or an
/// ApplyUpdate whose only change is the rule, then RetractRule or an
/// ApplyUpdate whose only change removes its label. With an update in
/// between, the removal re-infers.
TEST(RuleDeltaTest, AddThenRemoveRestoresExactlyWhicheverVerbCarriesThem) {
  deepdive::serving_thread.AssertHeld();
  UpdateSpec add;
  add.label = "add FW";
  add.add_rules = kLearnedRule;
  UpdateSpec remove;
  remove.label = "remove FW";
  remove.remove_rule_labels = {"FW"};
  for (const bool add_by_update : {false, true}) {
    for (const bool remove_by_update : {false, true}) {
      SCOPED_TRACE(std::string(add_by_update ? "ApplyUpdate" : "AddRule") + " then " +
                   (remove_by_update ? "ApplyUpdate" : "RetractRule"));
      auto dd = Make(FastTestConfig(), LabelRows());
      const std::vector<double> marginals_before = dd->Query()->marginals;
      const std::vector<double> weights_before = WeightValues(dd->ground().graph);

      auto added = add_by_update ? dd->ApplyUpdate(add) : dd->AddRule(kLearnedRule);
      ASSERT_TRUE(added.ok()) << added.status().ToString();
      ASSERT_NE(dd->Query()->marginals, marginals_before);
      auto removed = remove_by_update ? dd->ApplyUpdate(remove) : dd->RetractRule("FW");
      ASSERT_TRUE(removed.ok()) << removed.status().ToString();
      EXPECT_DOUBLE_EQ(removed->acceptance_rate, 1.0);
      EXPECT_EQ(removed->affected_vars, 0u);
      EXPECT_EQ(dd->Query()->marginals, marginals_before);
      const std::vector<double> weights_after = WeightValues(dd->ground().graph);
      ASSERT_GE(weights_after.size(), weights_before.size());
      for (size_t w = 0; w < weights_before.size(); ++w) {
        EXPECT_EQ(weights_after[w], weights_before[w]) << "weight " << w;
      }

      // An update between the add and the removal makes the journal stale.
      ASSERT_TRUE((add_by_update ? dd->ApplyUpdate(add) : dd->AddRule(kLearnedRule)).ok());
      UpdateSpec person;
      person.label = "person";
      person.inserts["Person"] = {{Value(3), Value(30)}, {Value(3), Value(31)}};
      ASSERT_TRUE(dd->ApplyUpdate(person).ok());
      auto reinferred = remove_by_update ? dd->ApplyUpdate(remove) : dd->RetractRule("FW");
      ASSERT_TRUE(reinferred.ok()) << reinferred.status().ToString();
      EXPECT_GT(reinferred->affected_vars, 0u);
    }
  }
}

/// The journal keeps the last update's ticket only. After adding FW and then
/// FR, removing FR restores exactly; FW's ticket went with FR's add, so
/// removing FW afterwards re-infers. The snapshot installed after FW's add
/// makes FW's groups Pr(0) groups, so its removal leaves a delta to answer.
TEST(RuleDeltaTest, NestedAddsRestoreOnlyTheNewestRule) {
  deepdive::serving_thread.AssertHeld();
  auto dd = Make(FastTestConfig(), LabelRows());
  ASSERT_TRUE(dd->AddRule(kLearnedRule).ok());
  ASSERT_TRUE(
      dd->incremental_engine()->Materialize(FastTestConfig().materialization).ok());
  const std::vector<double> marginals_before = dd->Query()->marginals;
  const std::vector<double> weights_before = WeightValues(dd->ground().graph);

  ASSERT_TRUE(dd->AddRule(kReversedRule).ok());
  ASSERT_NE(WeightValues(dd->ground().graph), weights_before);
  auto remove_fr = dd->RetractRule("FR");
  ASSERT_TRUE(remove_fr.ok()) << remove_fr.status().ToString();
  EXPECT_DOUBLE_EQ(remove_fr->acceptance_rate, 1.0);
  EXPECT_EQ(remove_fr->affected_vars, 0u);
  EXPECT_EQ(dd->Query()->marginals, marginals_before);
  const std::vector<double> weights_after = WeightValues(dd->ground().graph);
  ASSERT_GE(weights_after.size(), weights_before.size());
  for (size_t w = 0; w < weights_before.size(); ++w) {
    EXPECT_EQ(weights_after[w], weights_before[w]) << "weight " << w;
  }

  auto remove_fw = dd->RetractRule("FW");
  ASSERT_TRUE(remove_fw.ok()) << remove_fw.status().ToString();
  EXPECT_GT(remove_fw->affected_vars, 0u);
}

TEST(RuleDeltaTest, RerunModeRoutesRuleDeltasThroughFullPipeline) {
  deepdive::serving_thread.AssertHeld();
  DeepDiveConfig config = FastTestConfig();
  config.mode = ExecutionMode::kRerun;
  auto dd = Make(config);
  auto report = dd->AddRule(kFeatureRule);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->strategy, incremental::Strategy::kRerun);
  ASSERT_TRUE(dd->RetractRule("FE1").ok());
  EXPECT_EQ(dd->NumRules(), 2u);
}

// ---------------------------------------------------------------------------
// Stale-snapshot regression: a materialization build scheduled before a rule
// delta must NOT install afterwards — installing it would resurrect the
// retracted rule's factors in the serving snapshot.

factor::FactorGraph ChainGraph(uint64_t seed) {
  factor::FactorGraph g;
  Rng rng(seed);
  g.AddVariables(6);
  for (factor::VarId v = 0; v < 5; ++v) {
    g.AddSimpleFactor(v, {{static_cast<factor::VarId>(v + 1), false}},
                      g.AddWeight(rng.Uniform(-0.8, 0.8), false));
  }
  for (factor::VarId v = 0; v < 6; ++v) {
    g.AddSimpleFactor(v, {}, g.AddWeight(rng.Uniform(-0.3, 0.3), false));
  }
  return g;
}

incremental::MaterializationOptions TestMaterialization() {
  incremental::MaterializationOptions options;
  options.num_samples = 1500;
  options.gibbs_thin = 2;
  options.gibbs_burn_in = 50;
  options.variational.num_samples = 200;
  options.variational.fit_epochs = 80;
  options.variational.lambda = 0.05;
  options.remat_on_exhaustion = false;
  return options;
}

TEST(RuleDeltaTest, RematInFlightAcrossRetractionIsDiscarded) {
  deepdive::serving_thread.AssertHeld();
  factor::FactorGraph g = ChainGraph(7);
  incremental::IncrementalEngine engine(&g);
  ASSERT_TRUE(engine.Materialize(TestMaterialization()).ok());
  ASSERT_EQ(engine.snapshot()->generation, 1u);

  // Add a rule's worth of structure, then schedule an async rebuild that
  // stalls before publishing — a snapshot of the graph WITH the rule.
  factor::GraphDelta add;
  add.new_groups.push_back(g.AddSimpleFactor(
      0, {{factor::VarId{3}, false}}, g.AddWeight(1.5, false)));
  incremental::EngineOptions eopts;
  engine.RuleSetChanged();
  ASSERT_TRUE(engine.ApplyDelta(add, eopts).ok());
  const uint64_t version_with_rule = engine.rule_set_version();

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  incremental::MaterializationOptions mopts = TestMaterialization();
  mopts.async = true;
  mopts.on_before_publish = [released] { released.wait(); };
  ASSERT_TRUE(engine.MaterializeAsync(mopts).ok());
  ASSERT_TRUE(engine.MaterializationInFlight());

  // Retract the rule while the build is in flight: the pending snapshot was
  // built against the now-superseded rule set.
  factor::GraphDelta retract;
  retract.removed_groups = add.new_groups;
  g.DeactivateGroup(add.new_groups.front());
  engine.RuleSetChanged();
  ASSERT_TRUE(engine.ApplyDelta(retract, eopts).ok());
  EXPECT_GT(engine.rule_set_version(), version_with_rule);

  release.set_value();
  ASSERT_TRUE(engine.WaitForMaterialization().ok());
  // The stale build must be discarded, not installed: generation unchanged,
  // and the serving snapshot still reflects the retracted graph (an install
  // would also trip the engine's rule_set_version consistency check).
  EXPECT_EQ(engine.snapshot()->generation, 1u);
  EXPECT_FALSE(engine.MaterializationInFlight());
}

// Any update that removes a rule is a rule change, whichever verb carries
// it: a build scheduled before it must not install either.
TEST(RuleDeltaTest, UpdateRemovingARuleDiscardsTheBuildInFlight) {
  deepdive::serving_thread.AssertHeld();
  auto dd = Make(FastTestConfig());
  ASSERT_TRUE(dd->AddRule(kFeatureRule).ok());
  incremental::IncrementalEngine* engine = dd->incremental_engine();
  ASSERT_EQ(engine->snapshot()->generation, 1u);

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  incremental::MaterializationOptions mopts = FastTestConfig().materialization;
  mopts.async = true;
  mopts.on_before_publish = [released] { released.wait(); };
  ASSERT_TRUE(engine->MaterializeAsync(mopts).ok());
  const uint64_t version = engine->rule_set_version();

  UpdateSpec remove;
  remove.label = "remove";
  remove.remove_rule_labels = {"FE1"};
  ASSERT_TRUE(dd->ApplyUpdate(remove).ok());
  EXPECT_EQ(engine->rule_set_version(), version + 1);

  release.set_value();
  ASSERT_TRUE(engine->WaitForMaterialization().ok());
  EXPECT_EQ(engine->snapshot()->generation, 1u);
}

// An async tenant whose initial build a rule change made stale rebuilds at
// the current program on its next update, instead of serving every later
// update from the empty generation-0 snapshot by rerun.
TEST(RuleDeltaTest, DiscardedInitialBuildIsRebuilt) {
  deepdive::serving_thread.AssertHeld();
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  DeepDiveConfig config = FastTestConfig();
  config.materialization.async = true;
  config.materialization.on_before_publish = [released] { released.wait(); };
  auto dd = Make(config);
  incremental::IncrementalEngine* engine = dd->incremental_engine();
  ASSERT_TRUE(engine->MaterializationInFlight());

  ASSERT_TRUE(dd->AddRule(kFeatureRule).ok());
  release.set_value();
  ASSERT_TRUE(engine->WaitForMaterialization().ok());
  EXPECT_EQ(engine->snapshot()->generation, 0u);
  EXPECT_FALSE(engine->MaterializationInFlight());

  UpdateSpec grow;
  grow.label = "grow";
  grow.inserts["Person"] = {{Value(3), Value(30)}, {Value(3), Value(31)}};
  ASSERT_TRUE(dd->ApplyUpdate(grow).ok());
  EXPECT_TRUE(engine->MaterializationInFlight());
  ASSERT_TRUE(engine->WaitForMaterialization().ok());
  EXPECT_EQ(engine->snapshot()->generation, 1u);
  EXPECT_EQ(engine->snapshot()->rule_set_version, engine->rule_set_version());

  UpdateSpec more;
  more.label = "more";
  more.inserts["Person"] = {{Value(4), Value(40)}, {Value(4), Value(41)}};
  auto report = dd->ApplyUpdate(more);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->strategy, incremental::Strategy::kRerun);
}

}  // namespace
}  // namespace deepdive::core
