#include <gtest/gtest.h>

#include <set>

#include "dsl/program.h"
#include "engine/view_maintenance.h"
#include "storage/database.h"
#include "util/random.h"

namespace deepdive::engine {
namespace {

constexpr char kTwoLevel[] = R"(
  relation P(s: int, m: int).
  relation Q(m: int).
  relation Mid(a: int, b: int).
  relation Top(a: int).
  rule M: Mid(a, b) :- P(s, a), P(s, b), a != b.
  rule T: Top(a) :- Mid(a, b), Q(b).
)";

struct Fixture {
  dsl::Program program;
  Database db;
  std::unique_ptr<ViewMaintainer> vm;

  explicit Fixture(const std::string& source) {
    auto p = dsl::CompileProgram(source);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    program = std::move(p).value();
    EXPECT_TRUE(program.InstantiateSchema(&db).ok());
    vm = std::make_unique<ViewMaintainer>(&program, &db);
  }

  std::set<std::string> Rows(const std::string& table) {
    std::set<std::string> out;
    db.GetTable(table)->Scan([&](RowId, const Tuple& t) { out.insert(TupleToString(t)); });
    return out;
  }
};

TEST(ViewMaintainerTest, InitializeEvaluatesBottomUp) {
  Fixture f(kTwoLevel);
  ASSERT_TRUE(f.db.GetTable("P")->Insert({Value(1), Value(10)}).ok());
  ASSERT_TRUE(f.db.GetTable("P")->Insert({Value(1), Value(11)}).ok());
  ASSERT_TRUE(f.db.GetTable("Q")->Insert({Value(11)}).ok());
  ASSERT_TRUE(f.vm->Initialize().ok());
  EXPECT_EQ(f.Rows("Mid"), (std::set<std::string>{"(10, 11)", "(11, 10)"}));
  EXPECT_EQ(f.Rows("Top"), (std::set<std::string>{"(10)"}));
}

TEST(ViewMaintainerTest, InsertPropagates) {
  Fixture f(kTwoLevel);
  ASSERT_TRUE(f.vm->Initialize().ok());
  RelationDeltas external;
  external["P"].Add({Value(1), Value(10)}, 1);
  external["P"].Add({Value(1), Value(11)}, 1);
  external["Q"].Add({Value(11)}, 1);
  auto deltas = f.vm->ApplyUpdate(external);
  ASSERT_TRUE(deltas.ok()) << deltas.status().ToString();
  EXPECT_EQ(f.Rows("Top"), (std::set<std::string>{"(10)"}));
  EXPECT_EQ(deltas->at("Top").Count({Value(10)}), 1);
}

TEST(ViewMaintainerTest, DeletePropagatesWithCounts) {
  Fixture f(kTwoLevel);
  // Two derivations of Mid(10,11): sentences 1 and 2.
  ASSERT_TRUE(f.db.GetTable("P")->Insert({Value(1), Value(10)}).ok());
  ASSERT_TRUE(f.db.GetTable("P")->Insert({Value(1), Value(11)}).ok());
  ASSERT_TRUE(f.db.GetTable("P")->Insert({Value(2), Value(10)}).ok());
  ASSERT_TRUE(f.db.GetTable("P")->Insert({Value(2), Value(11)}).ok());
  ASSERT_TRUE(f.db.GetTable("Q")->Insert({Value(11)}).ok());
  ASSERT_TRUE(f.vm->Initialize().ok());
  EXPECT_EQ(f.vm->DerivationCount("Mid", {Value(10), Value(11)}), 2);

  // Removing sentence 2's tuples removes one derivation; Mid survives.
  RelationDeltas external;
  external["P"].Add({Value(2), Value(10)}, -1);
  external["P"].Add({Value(2), Value(11)}, -1);
  auto deltas = f.vm->ApplyUpdate(external);
  ASSERT_TRUE(deltas.ok());
  EXPECT_EQ(f.vm->DerivationCount("Mid", {Value(10), Value(11)}), 1);
  EXPECT_TRUE(f.Rows("Mid").count("(10, 11)"));
  EXPECT_EQ(deltas->count("Mid"), 0u);  // no set-level change

  // Removing sentence 1's tuples kills it, and Top with it.
  RelationDeltas external2;
  external2["P"].Add({Value(1), Value(10)}, -1);
  external2["P"].Add({Value(1), Value(11)}, -1);
  auto deltas2 = f.vm->ApplyUpdate(external2);
  ASSERT_TRUE(deltas2.ok());
  EXPECT_FALSE(f.Rows("Mid").count("(10, 11)"));
  EXPECT_EQ(f.Rows("Top").size(), 0u);
  EXPECT_EQ(deltas2->at("Top").Count({Value(10)}), -1);
}

TEST(ViewMaintainerTest, AddRuleEvaluatesAndPropagates) {
  Fixture f(R"(
    relation A(x: int).
    relation B(x: int).
    relation C(x: int).
    rule C(x) :- B(x).
  )");
  ASSERT_TRUE(f.db.GetTable("A")->Insert({Value(1)}).ok());
  ASSERT_TRUE(f.vm->Initialize().ok());
  EXPECT_EQ(f.Rows("B").size(), 0u);

  auto parsed = dsl::CompileProgram(R"(
    relation A(x: int).
    relation B(x: int).
    rule NEW: B(x) :- A(x).
  )");
  ASSERT_TRUE(parsed.ok());
  auto deltas = f.vm->AddRule(parsed->deductive_rules()[0]);
  ASSERT_TRUE(deltas.ok()) << deltas.status().ToString();
  EXPECT_EQ(f.Rows("B"), (std::set<std::string>{"(1)"}));
  EXPECT_EQ(f.Rows("C"), (std::set<std::string>{"(1)"}));
}

TEST(ViewMaintainerTest, RemoveRuleRetracts) {
  Fixture f(R"(
    relation A(x: int).
    relation B(x: int).
    rule R1: B(x) :- A(x).
  )");
  ASSERT_TRUE(f.db.GetTable("A")->Insert({Value(1)}).ok());
  ASSERT_TRUE(f.vm->Initialize().ok());
  EXPECT_EQ(f.Rows("B").size(), 1u);
  auto deltas = f.vm->RemoveRule("R1");
  ASSERT_TRUE(deltas.ok()) << deltas.status().ToString();
  EXPECT_EQ(f.Rows("B").size(), 0u);
  EXPECT_FALSE(f.vm->RemoveRule("R1").ok());
}

TEST(ViewMaintainerTest, RecursiveRuleRejected) {
  Fixture f(R"(
    relation E(a: int, b: int).
    relation T(a: int, b: int).
    rule T(a, b) :- E(a, b).
    rule T(a, c) :- T(a, b), E(b, c).
  )");
  EXPECT_FALSE(f.vm->Initialize().ok());
}

TEST(ViewMaintainerTest, ExternalInsertOnDerivedRelationCounts) {
  // A derived tuple can also be asserted externally; deleting the rule-based
  // derivation must not remove it.
  Fixture f(R"(
    relation A(x: int).
    relation B(x: int).
    rule B(x) :- A(x).
  )");
  ASSERT_TRUE(f.vm->Initialize().ok());
  RelationDeltas external;
  external["A"].Add({Value(1)}, 1);
  external["B"].Add({Value(1)}, 1);  // direct assertion too
  ASSERT_TRUE(f.vm->ApplyUpdate(external).ok());
  EXPECT_EQ(f.vm->DerivationCount("B", {Value(1)}), 2);

  RelationDeltas retract;
  retract["A"].Add({Value(1)}, -1);
  ASSERT_TRUE(f.vm->ApplyUpdate(retract).ok());
  EXPECT_TRUE(f.Rows("B").count("(1)"));  // external derivation survives
}

TEST(ViewMaintainerTest, RejectedUpdateChangesNothing) {
  // Delta rules cannot read a changed relation through a negated atom. Such
  // an update is rejected before any table or derivation count changes,
  // including those of relations the rejected rule does not read.
  Fixture f(R"(
    relation A(x: int).
    relation B(x: int).
    relation C(x: int).
    relation G(x: int).
    relation H(x: int).
    rule RH: H(x) :- A(x), !B(x).
    rule RG: G(x) :- C(x).
  )");
  ASSERT_TRUE(f.db.GetTable("A")->Insert({Value(3)}).ok());
  ASSERT_TRUE(f.vm->Initialize().ok());
  ASSERT_EQ(f.Rows("H"), (std::set<std::string>{"(3)"}));
  auto expect_untouched = [&]() {
    for (const char* table : {"B", "C", "G"}) {
      EXPECT_EQ(f.db.GetTable(table)->RowSlots(), 0u) << table;
    }
    EXPECT_EQ(f.Rows("H"), (std::set<std::string>{"(3)"}));
    EXPECT_EQ(f.vm->DerivationCount("B", {Value(3)}), 0);
    EXPECT_EQ(f.vm->DerivationCount("C", {Value(5)}), 0);
    EXPECT_EQ(f.vm->DerivationCount("H", {Value(3)}), 1);
  };

  RelationDeltas external;
  external["B"].Add({Value(3)}, 1);
  external["C"].Add({Value(5)}, 1);
  auto result = f.vm->ApplyUpdate(external);
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
  expect_untouched();

  // A new rule deriving into the negated relation is rejected the same way,
  // and is not left behind in the rule set.
  auto parsed = dsl::CompileProgram(R"(
    relation A(x: int).
    relation B(x: int).
    rule NB: B(x) :- A(x).
  )");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(f.vm->AddRule(parsed->deductive_rules()[0]).status().code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(f.vm->NumRules(), 2u);
  expect_untouched();

  // Deleting an absent tuple is rejected up front too, although C (and G
  // downstream of it) fold before A in topological order.
  RelationDeltas absent_delete;
  absent_delete["C"].Add({Value(5)}, 1);
  absent_delete["A"].Add({Value(9)}, -1);
  auto rejected = f.vm->ApplyUpdate(absent_delete);
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("(9) from A"), std::string::npos)
      << rejected.status().ToString();
  expect_untouched();
  EXPECT_EQ(f.Rows("A"), (std::set<std::string>{"(3)"}));

  RelationDeltas valid;
  valid["C"].Add({Value(5)}, 1);
  ASSERT_TRUE(f.vm->ApplyUpdate(valid).ok());
  EXPECT_EQ(f.Rows("G"), (std::set<std::string>{"(5)"}));
}

// Property: after an arbitrary random update sequence, every view equals
// what from-scratch evaluation would produce.
class ViewMaintenanceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ViewMaintenanceProperty, IncrementalEqualsFromScratch) {
  Rng rng(GetParam());

  auto make_fixture = []() { return std::make_unique<Fixture>(kTwoLevel); };
  auto inc = make_fixture();
  ASSERT_TRUE(inc->vm->Initialize().ok());

  // Mirror of base-table contents, to rebuild the scratch copy at the end.
  std::set<std::pair<int64_t, int64_t>> p_rows;
  std::set<int64_t> q_rows;

  for (int step = 0; step < 8; ++step) {
    RelationDeltas external;
    for (int i = 0; i < 4; ++i) {
      const int64_t s = static_cast<int64_t>(rng.UniformInt(4));
      const int64_t m = static_cast<int64_t>(rng.UniformInt(5));
      if (p_rows.count({s, m})) {
        if (rng.Bernoulli(0.4)) {
          external["P"].Add({Value(s), Value(m)}, -1);
          p_rows.erase({s, m});
        }
      } else {
        external["P"].Add({Value(s), Value(m)}, 1);
        p_rows.insert({s, m});
      }
    }
    const int64_t qv = static_cast<int64_t>(rng.UniformInt(5));
    if (q_rows.count(qv)) {
      external["Q"].Add({Value(qv)}, -1);
      q_rows.erase(qv);
    } else {
      external["Q"].Add({Value(qv)}, 1);
      q_rows.insert(qv);
    }
    ASSERT_TRUE(inc->vm->ApplyUpdate(external).ok());
  }

  // From-scratch evaluation over the final base state.
  auto scratch = make_fixture();
  for (const auto& [s, m] : p_rows) {
    ASSERT_TRUE(scratch->db.GetTable("P")->Insert({Value(s), Value(m)}).ok());
  }
  for (int64_t q : q_rows) {
    ASSERT_TRUE(scratch->db.GetTable("Q")->Insert({Value(q)}).ok());
  }
  ASSERT_TRUE(scratch->vm->Initialize().ok());

  for (const char* view : {"Mid", "Top"}) {
    EXPECT_EQ(inc->Rows(view), scratch->Rows(view)) << view << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ViewMaintenanceProperty,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28, 29, 30));

}  // namespace
}  // namespace deepdive::engine
