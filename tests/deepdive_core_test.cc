#include <gtest/gtest.h>

#include "core/deepdive.h"
#include "factor/compiled_graph.h"
#include "kbc/metrics.h"
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

std::vector<Tuple> PersonRows() {
  return {{Value(1), Value(10)}, {Value(1), Value(11)},
          {Value(2), Value(20)}, {Value(2), Value(21)}};
}

std::unique_ptr<DeepDive> Make(ExecutionMode mode) REQUIRES(serving_thread) {
  DeepDiveConfig config = FastTestConfig();
  config.mode = mode;
  auto dd = DeepDive::Create(kProgram, config);
  EXPECT_TRUE(dd.ok()) << dd.status().ToString();
  EXPECT_TRUE(dd.value()->LoadRows("Person", PersonRows()).ok());
  EXPECT_TRUE(dd.value()->Initialize().ok());
  return std::move(dd).value();
}

TEST(DeepDiveTest, CreateRejectsBadProgram) {
  deepdive::serving_thread.AssertHeld();
  EXPECT_FALSE(DeepDive::Create("relation R(", FastTestConfig()).ok());
}

TEST(DeepDiveTest, InitializeGroundsCandidates) {
  deepdive::serving_thread.AssertHeld();
  auto dd = Make(ExecutionMode::kIncremental);
  // 2 sentences x 2 ordered pairs each.
  EXPECT_EQ(dd->ground().graph.NumVariables(), 4u);
  const auto view = dd->Query();
  ASSERT_NE(view->Relation("HasSpouse"), nullptr);
  EXPECT_EQ(view->Relation("HasSpouse")->size(), 4u);
  // The negative prior pushes marginals below 0.5.
  for (const auto& [tuple, p] : *view->Relation("HasSpouse")) {
    EXPECT_LT(p, 0.5) << TupleToString(tuple);
  }
}

TEST(DeepDiveTest, AnalysisUpdateUsesSamplingWithFullAcceptance) {
  deepdive::serving_thread.AssertHeld();
  auto dd = Make(ExecutionMode::kIncremental);
  UpdateSpec spec;
  spec.label = "A1";
  spec.analysis_only = true;
  auto report = dd->ApplyUpdate(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->strategy, incremental::Strategy::kSampling);
  EXPECT_DOUBLE_EQ(report->acceptance_rate, 1.0);
}

TEST(DeepDiveTest, DataUpdateCreatesVariables) {
  deepdive::serving_thread.AssertHeld();
  auto dd = Make(ExecutionMode::kIncremental);
  UpdateSpec spec;
  spec.label = "data";
  spec.inserts["Person"] = {{Value(3), Value(30)}, {Value(3), Value(31)}};
  auto report = dd->ApplyUpdate(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(dd->ground().graph.NumVariables(), 6u);
  EXPECT_NE(dd->Query()->MarginalOf("HasSpouse", {Value(30), Value(31)}), 0.5);
}

TEST(DeepDiveTest, DataDeletionRetractsCandidates) {
  deepdive::serving_thread.AssertHeld();
  auto dd = Make(ExecutionMode::kIncremental);
  UpdateSpec spec;
  spec.label = "del";
  spec.deletes["Person"] = {{Value(2), Value(21)}};
  auto report = dd->ApplyUpdate(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(dd->db()->GetTable("HasSpouse")->Contains({Value(20), Value(21)}));
  // Marginals are still reported for the surviving pairs.
  const auto view = dd->Query();
  ASSERT_NE(view->Relation("HasSpouse"), nullptr);
  EXPECT_EQ(view->Relation("HasSpouse")->size(), 4u);  // index keeps ghosts
}

// The serving benchmark's join shapes: the sentence self-join and the
// entity-link join, each as a view and as a factor rule.
constexpr char kLinkedProgram[] = R"(
  relation PersonCandidate(sent: int, mention: int).
  relation EL(mention: int, entity: int).
  query relation HasSpouse(m1: int, m2: int).
  query relation SpouseKB(e1: int, e2: int).
  rule CAND: HasSpouse(m1, m2) :-
    PersonCandidate(s, m1), PersonCandidate(s, m2), m1 != m2.
  factor PRIOR: HasSpouse(m1, m2) :-
    PersonCandidate(s, m1), PersonCandidate(s, m2), m1 != m2
    weight = -0.8 semantics = logical.
  rule KBCAND: SpouseKB(e1, e2) :-
    PersonCandidate(s, m1), PersonCandidate(s, m2),
    EL(m1, e1), EL(m2, e2), m1 != m2.
  factor AGG: SpouseKB(e1, e2) :-
    HasSpouse(m1, m2), EL(m1, e1), EL(m2, e2) weight = 1.2 semantics = ratio.
)";

/// Document d: one sentence with two mentions, each linked to an entity.
void AddDocument(int64_t d, std::vector<Tuple>* mentions, std::vector<Tuple>* links) {
  for (int64_t i = 0; i < 2; ++i) {
    mentions->push_back({Value(d), Value(2 * d + i)});
    links->push_back({Value(2 * d + i), Value(1000 + 2 * d + i)});
  }
}

/// Rows visited by a one-document update to a KB of `documents` documents.
uint64_t OneDocumentRowsVisited(int64_t documents) REQUIRES(serving_thread) {
  auto dd = DeepDive::Create(kLinkedProgram, FastTestConfig());
  EXPECT_TRUE(dd.ok()) << dd.status().ToString();
  std::vector<Tuple> mentions, links;
  for (int64_t d = 0; d < documents; ++d) AddDocument(d, &mentions, &links);
  EXPECT_TRUE((*dd)->LoadRows("PersonCandidate", mentions).ok());
  EXPECT_TRUE((*dd)->LoadRows("EL", links).ok());
  EXPECT_TRUE((*dd)->Initialize().ok());

  UpdateSpec spec;
  spec.label = "document";
  AddDocument(documents, &spec.inserts["PersonCandidate"], &spec.inserts["EL"]);
  auto report = (*dd)->ApplyUpdate(spec);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return 0;
  // PRIOR and AGG over both ordered pairs of the new document.
  EXPECT_EQ(report->grounding_work, 4u);
  return report->grounding_rows_visited;
}

TEST(DeepDiveTest, DataUpdateRowsVisitedFollowTheUpdate) {
  deepdive::serving_thread.AssertHeld();
  const uint64_t small = OneDocumentRowsVisited(40);
  const uint64_t large = OneDocumentRowsVisited(400);
  EXPECT_GT(small, 0u);
  EXPECT_LE(2 * large, 3 * small) << "rows visited grow with the tables: " << small
                                  << " at 40 documents, " << large << " at 400";
}

TEST(DeepDiveTest, RuleUpdateAddsFactorsAndLearns) {
  deepdive::serving_thread.AssertHeld();
  auto dd = Make(ExecutionMode::kIncremental);
  UpdateSpec fe;
  fe.label = "FE1";
  fe.add_rules = R"(
    factor FE1: HasSpouse(m1, m2) :- Feature(m1, m2, f) weight = w(f).
  )";
  fe.inserts["Feature"] = {{Value(10), Value(11), Value("wife")}};
  ASSERT_TRUE(dd->ApplyUpdate(fe).ok());

  UpdateSpec sup;
  sup.label = "S1";
  sup.inserts["HasSpouseEv"] = {{Value(10), Value(11), Value(true)}};
  auto report = dd->ApplyUpdate(sup);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Evidence variable reports its label.
  EXPECT_DOUBLE_EQ(dd->Query()->MarginalOf("HasSpouse", {Value(10), Value(11)}),
                   1.0);
  EXPECT_GT(report->learning_seconds, 0.0);
}

TEST(DeepDiveTest, RemoveRuleRetractsGroups) {
  deepdive::serving_thread.AssertHeld();
  auto dd = Make(ExecutionMode::kIncremental);
  UpdateSpec add;
  add.label = "I1";
  add.add_rules = R"(
    factor BONUS: HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2), m1 != m2
      weight = 3.0 semantics = logical.
  )";
  ASSERT_TRUE(dd->ApplyUpdate(add).ok());
  UpdateSpec remove;
  remove.label = "undo";
  remove.remove_rule_labels = {"BONUS"};
  auto report = dd->ApplyUpdate(remove);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // After retraction the strong positive factor is gone: marginals low again.
  const auto view = dd->Query();
  for (const auto& [tuple, p] : *view->Relation("HasSpouse")) {
    EXPECT_LT(p, 0.6) << TupleToString(tuple);
  }
}

TEST(DeepDiveTest, FragmentRelationWithDataInSameUpdate) {
  deepdive::serving_thread.AssertHeld();
  // Regression: a rule fragment that *declares* a new relation and the same
  // update inserting rows into it — the view layer must pick up the new
  // relation or the rows are silently dropped.
  auto dd = Make(ExecutionMode::kIncremental);
  const size_t factors_before = dd->ground().graph.NumActiveClauses();
  UpdateSpec spec;
  spec.label = "FE-new";
  spec.add_rules = R"(
    relation NewFeature(m1: int, m2: int, f: string).
    factor FEN: HasSpouse(m1, m2) :- NewFeature(m1, m2, f) weight = w(f).
  )";
  spec.inserts["NewFeature"] = {{Value(10), Value(11), Value("wife")},
                                {Value(20), Value(21), Value("wife")}};
  auto report = dd->ApplyUpdate(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(dd->db()->GetTable("NewFeature")->size(), 2u);
  EXPECT_EQ(dd->ground().graph.NumActiveClauses(), factors_before + 2);
}

TEST(DeepDiveTest, UnknownRelationInUpdateIsError) {
  deepdive::serving_thread.AssertHeld();
  auto dd = Make(ExecutionMode::kIncremental);
  UpdateSpec spec;
  spec.inserts["Bogus"] = {{Value(1)}};
  EXPECT_FALSE(dd->ApplyUpdate(spec).ok());
}

// An update whose data names an unknown relation is rejected before its rule
// fragment is merged: no rule, table or group is added, and a later update
// cannot retract the fragment's rule.
TEST(DeepDiveTest, RejectedUpdateLeavesFragmentUnmerged) {
  deepdive::serving_thread.AssertHeld();
  auto dd = Make(ExecutionMode::kIncremental);
  const size_t rules = dd->NumRules();
  const uint64_t fingerprint = dd->RulesFingerprint();
  const size_t groups = dd->ground().graph.NumGroups();

  UpdateSpec spec;
  spec.add_rules = R"(
    relation Extra(m: int).
    factor BONUS: HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2), m1 != m2
      weight = 3.0 semantics = logical.
  )";
  spec.inserts["Bogus"] = {{Value(1)}};
  auto rejected = dd->ApplyUpdate(spec);
  EXPECT_EQ(rejected.status().code(), StatusCode::kNotFound);
  EXPECT_NE(rejected.status().message().find("'Bogus'"), std::string::npos)
      << rejected.status().ToString();
  EXPECT_EQ(dd->NumRules(), rules);
  EXPECT_EQ(dd->RulesFingerprint(), fingerprint);
  EXPECT_EQ(dd->ground().graph.NumGroups(), groups);
  EXPECT_FALSE(dd->db()->HasTable("Extra"));

  UpdateSpec remove;
  remove.remove_rule_labels = {"BONUS"};
  EXPECT_EQ(dd->ApplyUpdate(remove).status().code(), StatusCode::kNotFound);

  // The same fragment with data for its own new relation still applies.
  spec.inserts.erase("Bogus");
  spec.inserts["Extra"] = {{Value(10)}};
  auto report = dd->ApplyUpdate(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(dd->NumRules(), rules + 1);
  EXPECT_EQ(dd->db()->GetTable("Extra")->size(), 1u);
}

// Incremental grounding cannot read a changed relation through a factor
// rule's negated atom. Such an update is rejected before view maintenance
// writes a table or the grounder adds a variable, and the tenant keeps
// serving.
TEST(DeepDiveTest, UpdateNegatedFactorRuleCannotAbsorbChangesNothing) {
  deepdive::serving_thread.AssertHeld();
  auto dd = DeepDive::Create(R"(
    relation A(x: int).
    relation B(x: int).
    query relation Q(x: int).
    rule CAND: Q(x) :- A(x).
    factor F: Q(x) :- A(x), !B(x) weight = 1.0.
  )", FastTestConfig());
  ASSERT_TRUE(dd.ok()) << dd.status().ToString();
  ASSERT_TRUE((*dd)->LoadRows("A", {{Value(1)}, {Value(2)}}).ok());
  ASSERT_TRUE((*dd)->Initialize().ok());
  const factor::FactorGraph& graph = (*dd)->ground().graph;
  ASSERT_EQ(graph.NumVariables(), 2u);
  const size_t groups = graph.NumGroups();
  const uint64_t epoch = (*dd)->Query()->epoch;

  UpdateSpec spec;
  spec.inserts["A"] = {{Value(3)}};
  spec.inserts["B"] = {{Value(1)}};
  auto rejected = (*dd)->ApplyUpdate(spec);
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnimplemented);
  EXPECT_NE(rejected.status().message().find("'B'"), std::string::npos)
      << rejected.status().ToString();
  for (const auto& [table, rows] :
       {std::pair<const char*, size_t>{"A", 2}, {"B", 0}, {"Q", 2}}) {
    EXPECT_EQ((*dd)->db()->GetTable(table)->RowSlots(), rows) << table;
  }
  EXPECT_EQ(graph.NumVariables(), 2u);
  EXPECT_EQ(graph.NumGroups(), groups);
  EXPECT_EQ((*dd)->Query()->epoch, epoch);

  spec.inserts.erase("B");
  auto report = (*dd)->ApplyUpdate(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(graph.NumVariables(), 3u);
  EXPECT_EQ((*dd)->db()->GetTable("Q")->size(), 3u);
}

// An update's rows are checked before its fragment merges. An update that
// brings a rule and a relation, and whose rows are rejected, leaves no rule,
// fingerprint change or table behind, so the same fragment applies later.
TEST(DeepDiveTest, UpdateRejectedForItsRowsLeavesItsFragmentUnmerged) {
  deepdive::serving_thread.AssertHeld();
  auto dd = DeepDive::Create(R"(
    relation A(x: int).
    relation B(x: int).
    query relation Q(x: int).
    rule CAND: Q(x) :- A(x).
    factor F: Q(x) :- A(x), !B(x) weight = 1.0.
  )", FastTestConfig());
  ASSERT_TRUE(dd.ok()) << dd.status().ToString();
  ASSERT_TRUE((*dd)->LoadRows("A", {{Value(1)}, {Value(2)}}).ok());
  ASSERT_TRUE((*dd)->Initialize().ok());
  const size_t rules = (*dd)->NumRules();
  const uint64_t fingerprint = (*dd)->RulesFingerprint();
  const uint64_t version = (*dd)->program_version();
  ASSERT_EQ(rules, 2u);

  UpdateSpec negated;  // a row the negated atom of F reads
  negated.inserts["B"] = {{Value(1)}};
  UpdateSpec absent;  // a row deleted from the relation the update declares
  absent.deletes["C"] = {{Value(1)}};
  for (UpdateSpec* spec : {&negated, &absent}) {
    spec->add_rules = R"(
      relation C(x: int).
      factor G: Q(x) :- A(x), C(x) weight = 0.5.
    )";
  }
  EXPECT_EQ((*dd)->ApplyUpdate(negated).status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ((*dd)->ApplyUpdate(absent).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*dd)->NumRules(), rules);
  EXPECT_EQ((*dd)->RulesFingerprint(), fingerprint);
  EXPECT_EQ((*dd)->program_version(), version);
  EXPECT_FALSE((*dd)->db()->HasTable("C"));

  negated.inserts.clear();
  negated.inserts["C"] = {{Value(1)}};
  auto report = (*dd)->ApplyUpdate(negated);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ((*dd)->NumRules(), rules + 1);
  EXPECT_EQ((*dd)->db()->GetTable("C")->size(), 1u);
}

TEST(DeepDiveTest, UnknownRemoveLabelIsError) {
  deepdive::serving_thread.AssertHeld();
  auto dd = Make(ExecutionMode::kIncremental);
  UpdateSpec spec;
  spec.remove_rule_labels = {"NOPE"};
  EXPECT_FALSE(dd->ApplyUpdate(spec).ok());
}

size_t ActiveGroups(const factor::FactorGraph& graph) {
  size_t active = 0;
  for (factor::GroupId g = 0; g < graph.NumGroups(); ++g) active += graph.group(g).active;
  return active;
}

// A factor rule is retracted by its label, so no update may add a second
// factor rule under a label already in use: such an update is rejected
// before it changes anything, and one retraction takes the rule out whole.
TEST(DeepDiveTest, RepeatedFactorLabelIsRejected) {
  deepdive::serving_thread.AssertHeld();
  auto dd = Make(ExecutionMode::kIncremental);
  const factor::FactorGraph& graph = dd->ground().graph;
  UpdateSpec spec;
  spec.add_rules = R"(
    factor FEAT: HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2), m1 != m2
      weight = 0.5 semantics = logical.
  )";
  ASSERT_TRUE(dd->ApplyUpdate(spec).ok());
  const size_t rules = dd->NumRules();
  const size_t groups = graph.NumGroups();
  const size_t active = ActiveGroups(graph);
  const uint64_t version = dd->program_version();
  const uint64_t fingerprint = dd->RulesFingerprint();
  const uint64_t epoch = dd->Query()->epoch;
  ASSERT_EQ(rules, 3u);

  EXPECT_EQ(dd->ApplyUpdate(spec).status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(dd->AddRule(spec.add_rules).status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(dd->NumRules(), rules);
  EXPECT_EQ(graph.NumGroups(), groups);
  EXPECT_EQ(dd->program_version(), version);
  EXPECT_EQ(dd->RulesFingerprint(), fingerprint);
  EXPECT_EQ(dd->Query()->epoch, epoch);

  ASSERT_TRUE(dd->RetractRule("FEAT").ok());
  EXPECT_EQ(dd->NumRules(), rules - 1);
  EXPECT_EQ(ActiveGroups(graph), active - 4);
  EXPECT_EQ(dd->RetractRule("FEAT").status().code(), StatusCode::kNotFound);
}

// A removal label that names no rule, or that repeats, rejects the update
// before its rows land: tables, graph, program and epoch stay as they were.
TEST(DeepDiveTest, RejectedRemovalLeavesTheUpdateUnapplied) {
  deepdive::serving_thread.AssertHeld();
  auto created = DeepDive::Create(kProgram, FastTestConfig());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  DeepDive* dd = created->get();
  ASSERT_TRUE(dd->LoadRows("Person", {{Value(1), Value(10)}, {Value(1), Value(11)}}).ok());
  ASSERT_TRUE(dd->Initialize().ok());
  const factor::FactorGraph& graph = dd->ground().graph;
  ASSERT_EQ(graph.NumVariables(), 2u);
  const size_t rules = dd->NumRules();
  const uint64_t version = dd->program_version();
  const uint64_t epoch = dd->Query()->epoch;

  UpdateSpec spec;
  spec.inserts["Person"] = {{Value(2), Value(20)}, {Value(2), Value(21)}};
  for (const std::vector<std::string>& labels :
       {std::vector<std::string>{"NOPE"}, std::vector<std::string>{"PRIOR", "PRIOR"}}) {
    spec.remove_rule_labels = labels;
    EXPECT_EQ(dd->ApplyUpdate(spec).status().code(), StatusCode::kNotFound)
        << labels.size();
    EXPECT_EQ(dd->db()->GetTable("Person")->size(), 2u);
    EXPECT_EQ(dd->db()->GetTable("HasSpouse")->size(), 2u);
    EXPECT_EQ(graph.NumVariables(), 2u);
    EXPECT_EQ(dd->NumRules(), rules);
    EXPECT_EQ(dd->program_version(), version);
    EXPECT_EQ(dd->Query()->epoch, epoch);
  }

  spec.remove_rule_labels.clear();
  ASSERT_TRUE(dd->ApplyUpdate(spec).ok());
  EXPECT_EQ(graph.NumVariables(), 4u);
}

// A label deductive rules and a factor rule share names them all:
// RetractRule takes every deductive rule's derivations out of the views too,
// so later rows of their bodies derive nothing.
TEST(DeepDiveTest, RetractRuleRemovesEveryRuleWithItsLabel) {
  deepdive::serving_thread.AssertHeld();
  auto dd = Make(ExecutionMode::kIncremental);
  const Table* person = dd->db()->GetTable("Person");
  UpdateSpec spec;
  spec.add_rules = R"(
    relation Extra(s: int, m: int).
    rule BOTH: Person(s, m) :- Extra(s, m).
    rule BOTH: Person(m, s) :- Extra(s, m).
    factor BOTH: HasSpouse(m1, m2) :- Extra(s, m1), Extra(s, m2), m1 != m2
      weight = 0.5 semantics = logical.
  )";
  spec.inserts["Extra"] = {{Value(3), Value(30)}, {Value(3), Value(31)}};
  ASSERT_TRUE(dd->ApplyUpdate(spec).ok());
  ASSERT_EQ(person->size(), 8u);

  auto retract = dd->RetractRule("BOTH");
  ASSERT_TRUE(retract.ok()) << retract.status().ToString();
  EXPECT_EQ(person->size(), 4u);
  EXPECT_EQ(dd->NumRules(), 2u);

  UpdateSpec more;
  more.inserts["Extra"] = {{Value(4), Value(40)}, {Value(4), Value(41)}};
  ASSERT_TRUE(dd->ApplyUpdate(more).ok());
  EXPECT_EQ(person->size(), 4u);
}

TEST(DeepDiveTest, RerunModeProducesSimilarMarginals) {
  deepdive::serving_thread.AssertHeld();
  auto inc = Make(ExecutionMode::kIncremental);
  auto rerun = Make(ExecutionMode::kRerun);
  UpdateSpec spec;
  spec.label = "FE1";
  spec.add_rules = R"(
    factor FE1: HasSpouse(m1, m2) :- Feature(m1, m2, f) weight = w(f).
  )";
  spec.inserts["Feature"] = {{Value(10), Value(11), Value("wife")},
                             {Value(20), Value(21), Value("met")}};
  ASSERT_TRUE(inc->ApplyUpdate(spec).ok());
  ASSERT_TRUE(rerun->ApplyUpdate(spec).ok());

  std::vector<double> pi, pr;
  const auto inc_view = inc->Query();
  const auto rerun_view = rerun->Query();
  for (const auto& [tuple, p] : *inc_view->Relation("HasSpouse")) {
    pi.push_back(p);
    pr.push_back(rerun_view->MarginalOf("HasSpouse", tuple));
  }
  // Same facts at similar probabilities (Section 4.2's parity check).
  EXPECT_LT(kbc::MeanSymmetricKL(pi, pr), 0.25);
}

TEST(DeepDiveTest, HistoryAccumulates) {
  deepdive::serving_thread.AssertHeld();
  auto dd = Make(ExecutionMode::kIncremental);
  UpdateSpec spec;
  spec.label = "A1";
  spec.analysis_only = true;
  auto first = dd->ApplyUpdate(spec);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = dd->ApplyUpdate(spec);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->label, "A1");
  EXPECT_GT(first->graph_variables, 0u);
  EXPECT_EQ(second->epoch, first->epoch + 1);
  EXPECT_EQ(dd->Query()->report.label, "A1");
  EXPECT_EQ(dd->Query()->report.epoch, second->epoch);
}

TEST(DeepDiveTest, MaterializationStatsPopulated) {
  deepdive::serving_thread.AssertHeld();
  auto dd = Make(ExecutionMode::kIncremental);
  EXPECT_GT(dd->Query()->materialization.samples_collected, 0u);
  auto rerun = Make(ExecutionMode::kRerun);
  EXPECT_EQ(rerun->Query()->materialization.samples_collected, 0u);
}

// The one parallelism setting reaches every stage: Initialize (grounding,
// learning, whole-graph inference, materialization with a chain component),
// a labelled data update (learning plus a variational write), AddRule and
// an exact-restore RetractRule, and, on a second instance, the engine's
// rerun. Each hash covers the marginals and the snapshot's Pr(0) marginals
// of every view the instance published, then its final weights. They were
// recorded with the per-stage thread, replica and sync fields the serving
// tier used to set one by one; at one worker per replica every run is
// deterministic.
constexpr char kChainProgram[] = R"(
  relation Node(x: int).
  relation Edge(a: int, b: int).
  relation Feat(x: int, f: string).
  query relation Q(x: int).
  evidence QEv(x: int, l: bool) for Q.
  rule CAND: Q(x) :- Node(x).
  factor LINK: Q(a) :- Q(b), Edge(a, b) weight = 0.6.
  factor FE: Q(x) :- Feat(x, f) weight = w(f) semantics = ratio.
)";

std::unique_ptr<DeepDive> MakeChainKb(const DeepDiveConfig& config)
    REQUIRES(serving_thread) {
  auto dd = DeepDive::Create(kChainProgram, config);
  EXPECT_TRUE(dd.ok()) << dd.status().ToString();
  std::vector<Tuple> nodes, edges, feats, labels;
  // A chain of 20 unlabelled nodes: one component too large to enumerate.
  for (int x = 1; x <= 20; ++x) {
    nodes.push_back({Value(x)});
    if (x > 1) edges.push_back({Value(x), Value(x - 1)});
    feats.push_back({Value(x), Value(x % 2 == 0 ? "even" : "odd")});
  }
  // Singletons sharing the chain's features, labelled up to 38 so that
  // neither feature decides the label.
  for (int x = 31; x <= 40; ++x) {
    nodes.push_back({Value(x)});
    feats.push_back({Value(x), Value(x % 2 == 0 ? "even" : "odd")});
    if (x <= 38) labels.push_back({Value(x), Value(x % 4 == 0 || x % 4 == 3)});
  }
  EXPECT_TRUE(dd.value()->LoadRows("Node", nodes).ok());
  EXPECT_TRUE(dd.value()->LoadRows("Edge", edges).ok());
  EXPECT_TRUE(dd.value()->LoadRows("Feat", feats).ok());
  EXPECT_TRUE(dd.value()->LoadRows("QEv", labels).ok());
  EXPECT_TRUE(dd.value()->Initialize().ok());
  return std::move(dd).value();
}

UpdateSpec LabelUpdate() {
  UpdateSpec spec;
  spec.label = "labels";
  spec.inserts["QEv"] = {{Value(39), Value(true)}};
  return spec;
}

/// Appends a view's marginals and the Pr(0) marginals of the snapshot it
/// was served from.
void AppendView(DeepDive* dd, std::vector<double>* trace) REQUIRES(serving_thread) {
  const auto view = dd->Query();
  trace->insert(trace->end(), view->marginals.begin(), view->marginals.end());
  const std::vector<double>& pr0 = *view->materialized_marginals;
  trace->insert(trace->end(), pr0.begin(), pr0.end());
}

uint64_t TraceAndWeightsHash(DeepDive* dd, std::vector<double> trace)
    REQUIRES(serving_thread) {
  const factor::FactorGraph& g = dd->ground().graph;
  for (factor::WeightId w = 0; w < g.NumWeights(); ++w) trace.push_back(g.WeightValue(w));
  return factor::Fnv1aHash(trace.data(), trace.size() * sizeof(double));
}

TEST(DeepDiveTest, ParallelismReachesEveryStage) {
  deepdive::serving_thread.AssertHeld();
  const struct {
    inference::Parallelism parallelism;
    uint64_t incremental;
    uint64_t rerun;
  } kGolden[] = {
      {{.num_threads = 1, .num_replicas = 1, .sync_every_sweeps = 50},
       0xc6383ce60c836b70ULL, 0x9a8cf7c09d108047ULL},
      {{.num_threads = 1, .num_replicas = 2, .sync_every_sweeps = 25},
       0xfb8a6bfcd561ceb0ULL, 0xc49d538a5f5b4600ULL},
  };
  for (const auto& golden : kGolden) {
    SCOPED_TRACE("replicas " + std::to_string(golden.parallelism.num_replicas));
    DeepDiveConfig config = FastTestConfig();
    config.parallelism = golden.parallelism;
    auto dd = MakeChainKb(config);
    EXPECT_GT(dd->Query()->materialization.chain_vars, 0u);
    std::vector<double> trace;
    AppendView(dd.get(), &trace);
    auto update = dd->ApplyUpdate(LabelUpdate());
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    EXPECT_EQ(update->strategy, incremental::Strategy::kVariational);
    AppendView(dd.get(), &trace);
    auto add = dd->AddRule("factor FE2: Q(a) :- Edge(a, b), Feat(b, f) weight = w(f).");
    ASSERT_TRUE(add.ok()) << add.status().ToString();
    AppendView(dd.get(), &trace);
    auto retract = dd->RetractRule("FE2");
    ASSERT_TRUE(retract.ok()) << retract.status().ToString();
    EXPECT_DOUBLE_EQ(retract->acceptance_rate, 1.0);  // exact restore
    AppendView(dd.get(), &trace);
    EXPECT_EQ(TraceAndWeightsHash(dd.get(), trace), golden.incremental);

    config.engine.forced_strategy = incremental::Strategy::kRerun;
    auto rerun = MakeChainKb(config);
    std::vector<double> rerun_trace;
    AppendView(rerun.get(), &rerun_trace);
    auto rerun_update = rerun->ApplyUpdate(LabelUpdate());
    ASSERT_TRUE(rerun_update.ok()) << rerun_update.status().ToString();
    EXPECT_EQ(rerun_update->strategy, incremental::Strategy::kRerun);
    AppendView(rerun.get(), &rerun_trace);
    EXPECT_EQ(TraceAndWeightsHash(rerun.get(), rerun_trace), golden.rerun);
  }
}

}  // namespace
}  // namespace deepdive::core
