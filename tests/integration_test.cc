// Cross-module integration properties:
//   * DSL print -> parse -> print fixpoint (round-trip property)
//   * end-to-end DeepDive marginals vs exact enumeration on tiny programs
//   * incremental update sequences keep the relational + graph state
//     consistent with a from-scratch rebuild at the DeepDive API level
#include <gtest/gtest.h>

#include "core/deepdive.h"
#include "dsl/parser.h"
#include "dsl/program.h"
#include "inference/exact.h"
#include "kbc/metrics.h"
#include "util/random.h"
#include "util/thread_role.h"

namespace deepdive {
namespace {

// ---------- DSL round-trip ----------

class DslRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(DslRoundTrip, PrintParsePrintIsFixpoint) {
  auto program = dsl::CompileProgram(GetParam());
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const std::string printed = program->ToString();
  auto reparsed = dsl::CompileProgram(printed);
  ASSERT_TRUE(reparsed.ok()) << "reparse of:\n" << printed << "\n"
                             << reparsed.status().ToString();
  EXPECT_EQ(reparsed->ToString(), printed);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, DslRoundTrip,
    ::testing::Values(
        "relation R(a: int, b: string).",
        "query relation Q(x: int). relation R(x: int, f: string)."
        " factor FE: Q(x) :- R(x, f) weight = w(f) semantics = ratio.",
        "query relation Q(x: int). relation R(x: int)."
        " evidence E(x: int, l: bool) for Q."
        " rule S: E(x, true) :- R(x).",
        "relation A(x: int). relation B(x: int). relation H(x: int)."
        " rule H(x) :- A(x), !B(x), x != 3.",
        "query relation Q(a: int, b: int). relation P(s: int, m: int)."
        " factor SYM: Q(b, a) :- Q(a, b), P(s, a) weight = -1.5"
        " semantics = logical."));

// ---------- end-to-end vs exact ----------

constexpr char kTinyProgram[] = R"(
  relation Person(s: int, m: int).
  relation Feature(m1: int, m2: int, f: string).
  query relation HasSpouse(m1: int, m2: int).
  evidence HasSpouseEv(m1: int, m2: int, l: bool) for HasSpouse.
  rule CAND: HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2), m1 != m2.
  factor PRIOR: HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2), m1 != m2
    weight = -0.6 semantics = logical.
  factor FE: HasSpouse(m1, m2) :- Feature(m1, m2, f) weight = w(f).
  factor SYM: HasSpouse(m2, m1) :- HasSpouse(m1, m2) weight = 0.8 semantics = logical.
)";

TEST(EndToEndTest, MarginalsTrackExactEnumeration) {
  deepdive::serving_thread.AssertHeld();
  core::DeepDiveConfig config = core::FastTestConfig();
  config.mode = core::ExecutionMode::kRerun;
  config.gibbs.burn_in_sweeps = 200;
  config.gibbs.sample_sweeps = 8000;
  auto dd = core::DeepDive::Create(kTinyProgram, config);
  ASSERT_TRUE(dd.ok());
  ASSERT_TRUE(
      (*dd)->LoadRows("Person", {{Value(1), Value(10)}, {Value(1), Value(11)}}).ok());
  ASSERT_TRUE(
      (*dd)->LoadRows("Feature", {{Value(10), Value(11), Value("wife")}}).ok());
  ASSERT_TRUE(
      (*dd)->LoadRows("HasSpouseEv", {{Value(10), Value(11), Value(true)}}).ok());
  ASSERT_TRUE((*dd)->Initialize().ok());

  auto exact = inference::ExactInference((*dd)->ground().graph);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  const auto view = (*dd)->Query();
  for (const auto& [tuple, p] : *view->Relation("HasSpouse")) {
    const factor::VarId v = (*dd)->ground().FindVariable("HasSpouse", tuple);
    EXPECT_NEAR(p, exact->marginals[v], 0.05) << TupleToString(tuple);
  }
}

// ---------- randomized incremental update sequences ----------

class IncrementalApiProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalApiProperty, StateConsistentWithFreshRebuild) {
  Rng rng(GetParam());

  core::DeepDiveConfig config = core::FastTestConfig();
  config.mode = core::ExecutionMode::kIncremental;
  auto inc = core::DeepDive::Create(kTinyProgram, config);
  ASSERT_TRUE(inc.ok());

  std::set<std::pair<int64_t, int64_t>> persons;
  for (int i = 0; i < 4; ++i) {
    persons.insert({static_cast<int64_t>(rng.UniformInt(2)),
                    static_cast<int64_t>(rng.UniformInt(4))});
  }
  std::vector<Tuple> person_rows;
  for (const auto& [s, m] : persons) person_rows.push_back({Value(s), Value(m)});
  ASSERT_TRUE((*inc)->LoadRows("Person", person_rows).ok());
  ASSERT_TRUE((*inc)->Initialize().ok());

  // Random update sequence: data in/out, features, labels.
  std::set<std::pair<int64_t, int64_t>> live_persons = persons;
  std::vector<Tuple> features, labels;
  for (int step = 0; step < 4; ++step) {
    core::UpdateSpec spec;
    spec.label = "step" + std::to_string(step);
    const int64_t s = static_cast<int64_t>(rng.UniformInt(2));
    const int64_t m = static_cast<int64_t>(rng.UniformInt(4));
    if (live_persons.count({s, m}) && rng.Bernoulli(0.3)) {
      spec.deletes["Person"] = {{Value(s), Value(m)}};
      live_persons.erase({s, m});
    } else if (!live_persons.count({s, m})) {
      spec.inserts["Person"] = {{Value(s), Value(m)}};
      live_persons.insert({s, m});
    }
    if (rng.Bernoulli(0.6)) {
      Tuple f = {Value(static_cast<int64_t>(rng.UniformInt(4))),
                 Value(static_cast<int64_t>(rng.UniformInt(4))),
                 Value(rng.Bernoulli(0.5) ? "wife" : "met")};
      features.push_back(f);
      spec.inserts["Feature"].push_back(f);
    }
    if (rng.Bernoulli(0.4)) {
      Tuple l = {Value(static_cast<int64_t>(rng.UniformInt(4))),
                 Value(static_cast<int64_t>(rng.UniformInt(4))),
                 Value(rng.Bernoulli(0.5))};
      labels.push_back(l);
      spec.inserts["HasSpouseEv"].push_back(l);
    }
    auto report = (*inc)->ApplyUpdate(spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }

  // Fresh rebuild over the final state.
  auto fresh = core::DeepDive::Create(kTinyProgram, config);
  ASSERT_TRUE(fresh.ok());
  std::vector<Tuple> final_persons;
  for (const auto& [s, m] : live_persons) final_persons.push_back({Value(s), Value(m)});
  ASSERT_TRUE((*fresh)->LoadRows("Person", final_persons).ok());
  ASSERT_TRUE((*fresh)->LoadRows("Feature", features).ok());
  ASSERT_TRUE((*fresh)->LoadRows("HasSpouseEv", labels).ok());
  ASSERT_TRUE((*fresh)->Initialize().ok());

  // Relational state: candidate tables agree.
  std::set<std::string> inc_rows, fresh_rows;
  (*inc)->db()->GetTable("HasSpouse")->Scan(
      [&](RowId, const Tuple& t) { inc_rows.insert(TupleToString(t)); });
  (*fresh)->db()->GetTable("HasSpouse")->Scan(
      [&](RowId, const Tuple& t) { fresh_rows.insert(TupleToString(t)); });
  EXPECT_EQ(inc_rows, fresh_rows) << "seed " << GetParam();

  // Graph state: same evidence and same *active* grounding counts per live
  // candidate (exact distribution equality is covered at the grounding layer
  // by incremental_grounding_test; here we check API-level bookkeeping).
  EXPECT_EQ((*inc)->ground().graph.NumActiveClauses(),
            (*fresh)->ground().graph.NumActiveClauses())
      << "seed " << GetParam();
  for (const auto& [tuple, var] : (*fresh)->ground().var_index.at("HasSpouse")) {
    const factor::VarId iv = (*inc)->ground().FindVariable("HasSpouse", tuple);
    ASSERT_NE(iv, factor::kNoVar) << TupleToString(tuple);
    EXPECT_EQ((*inc)->ground().graph.EvidenceValue(iv),
              (*fresh)->ground().graph.EvidenceValue(var))
        << TupleToString(tuple) << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalApiProperty,
                         ::testing::Values(61, 62, 63, 64, 65, 66, 67, 68, 69, 70));

}  // namespace
}  // namespace deepdive
