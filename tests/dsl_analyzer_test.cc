#include <gtest/gtest.h>

#include "dsl/parser.h"
#include "dsl/program.h"
#include "storage/database.h"

namespace deepdive::dsl {
namespace {

constexpr char kBase[] = R"(
  relation Person(s: int, m: int).
  relation EL(m: int, e: int).
  relation Married(e1: int, e2: int).
  query relation HasSpouse(m1: int, m2: int).
  evidence HasSpouseEv(m1: int, m2: int, l: bool) for HasSpouse.
)";

TEST(AnalyzerTest, ValidProgramCompiles) {
  auto program = CompileProgram(std::string(kBase) + R"(
    rule C: HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2), m1 != m2.
    factor F: HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2) weight = 0.5.
    rule S: HasSpouseEv(m1, m2, true) :-
      Person(s, m1), Person(s, m2), EL(m1, e1), EL(m2, e2), Married(e1, e2).
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->relations().size(), 5u);
  EXPECT_EQ(program->deductive_rules().size(), 2u);
  EXPECT_EQ(program->factor_rules().size(), 1u);
}

TEST(AnalyzerTest, RelationLookupHelpers) {
  auto program = CompileProgram(kBase);
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(program->IsQueryRelation("HasSpouse"));
  EXPECT_FALSE(program->IsQueryRelation("Person"));
  EXPECT_TRUE(program->IsEvidenceRelation("HasSpouseEv"));
  EXPECT_EQ(program->EvidenceTarget("HasSpouseEv")->name, "HasSpouse");
  EXPECT_EQ(program->EvidenceRelationsFor("HasSpouse").size(), 1u);
  EXPECT_EQ(program->FindRelation("Nope"), nullptr);
}

TEST(AnalyzerTest, DuplicateRelationIsError) {
  EXPECT_FALSE(CompileProgram("relation R(x: int). relation R(x: int).").ok());
}

TEST(AnalyzerTest, UndeclaredPredicateIsError) {
  auto r = CompileProgram(std::string(kBase) + "rule HasSpouse(a, b) :- Nope(a, b).");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(AnalyzerTest, ArityMismatchIsError) {
  EXPECT_FALSE(
      CompileProgram(std::string(kBase) + "rule HasSpouse(a, b) :- Person(a).").ok());
}

TEST(AnalyzerTest, UnboundHeadVariableIsError) {
  auto r =
      CompileProgram(std::string(kBase) + "rule HasSpouse(a, z) :- Person(s, a).");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("not bound"), std::string::npos);
}

TEST(AnalyzerTest, TypeConflictIsError) {
  // x used both as int (Person.m) and as the string column of a new relation.
  auto r = CompileProgram(R"(
    relation A(x: int).
    relation B(x: string).
    relation H(x: int).
    rule H(x) :- A(x), B(x).
  )");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("used as"), std::string::npos);
}

TEST(AnalyzerTest, NegatedOnlyVariableIsError) {
  auto r = CompileProgram(R"(
    relation A(x: int).
    relation B(x: int).
    relation H(x: int).
    rule H(x) :- A(x), !B(y).
  )");
  EXPECT_FALSE(r.ok());
}

TEST(AnalyzerTest, EmptyBodyIsError) {
  EXPECT_FALSE(ParseProgram("rule H(x) :- .").ok());
}

TEST(AnalyzerTest, EvidenceSchemaMustMatchTarget) {
  EXPECT_FALSE(CompileProgram(R"(
    query relation Q(x: int).
    evidence E(x: string, l: bool) for Q.
  )").ok());
  EXPECT_FALSE(CompileProgram(R"(
    query relation Q(x: int).
    evidence E(x: int, l: int) for Q.
  )").ok());
  EXPECT_FALSE(CompileProgram(R"(
    relation NotQuery(x: int).
    evidence E(x: int, l: bool) for NotQuery.
  )").ok());
}

TEST(AnalyzerTest, FactorHeadMustBeQueryRelation) {
  auto r = CompileProgram(R"(
    relation R(x: int).
    factor R(x) :- R(x) weight = 1.
  )");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("query relation"), std::string::npos);
}

TEST(AnalyzerTest, FactorBodyMayNotUseEvidence) {
  EXPECT_FALSE(CompileProgram(R"(
    query relation Q(x: int).
    evidence E(x: int, l: bool) for Q.
    factor Q(x) :- E(x, l) weight = 1.
  )").ok());
}

TEST(AnalyzerTest, TiedWeightVariableMustBeBound) {
  auto r = CompileProgram(R"(
    relation R(x: int).
    query relation Q(x: int).
    factor Q(x) :- R(x) weight = w(f).
  )");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("weight-tying"), std::string::npos);
}

TEST(AnalyzerTest, InstantiateSchemaCreatesAllTables) {
  auto program = CompileProgram(kBase);
  ASSERT_TRUE(program.ok());
  Database db;
  ASSERT_TRUE(program->InstantiateSchema(&db).ok());
  EXPECT_TRUE(db.HasTable("Person"));
  EXPECT_TRUE(db.HasTable("HasSpouse"));
  EXPECT_TRUE(db.HasTable("HasSpouseEv"));
}

TEST(AnalyzerTest, FragmentAddsRulesAndRelations) {
  auto base = CompileProgram(kBase);
  ASSERT_TRUE(base.ok());
  auto fragment = AnalyzeFragment(*base, R"(
    relation Feature(m1: int, m2: int, f: string).
    factor FE1: HasSpouse(m1, m2) :- Feature(m1, m2, f) weight = w(f).
  )");
  ASSERT_TRUE(fragment.ok()) << fragment.status().ToString();
  EXPECT_EQ(fragment->factor_rules().size(), 1u);
  EXPECT_NE(fragment->FindRelation("Feature"), nullptr);
  // The fragment carries no rules from the base program.
  EXPECT_EQ(fragment->deductive_rules().size(), 0u);
  ASSERT_TRUE(base->Merge(*fragment).ok());
  EXPECT_NE(base->FindRelation("Feature"), nullptr);
  EXPECT_EQ(base->factor_rules().size(), 1u);
}

TEST(AnalyzerTest, FragmentConflictingRedeclarationIsError) {
  auto base = CompileProgram(kBase);
  ASSERT_TRUE(base.ok());
  EXPECT_FALSE(AnalyzeFragment(*base, "relation Person(x: string).").ok());
}

TEST(AnalyzerTest, FragmentIdenticalRedeclarationIsFine) {
  auto base = CompileProgram(kBase);
  ASSERT_TRUE(base.ok());
  auto fragment = AnalyzeFragment(*base, R"(
    relation Person(s: int, m: int).
    rule X: HasSpouse(m, m2) :- Person(s, m), Person(s, m2).
  )");
  EXPECT_TRUE(fragment.ok()) << fragment.status().ToString();
}

TEST(AnalyzerTest, FactorRuleLabelsAreUnique) {
  constexpr char kFeat[] =
      "factor FEAT: HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2) weight = 1.\n";
  // Within a program.
  auto twice = CompileProgram(std::string(kBase) + kFeat + kFeat);
  EXPECT_EQ(twice.status().code(), StatusCode::kAlreadyExists);
  auto base = CompileProgram(std::string(kBase) + kFeat);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  // A fragment reusing a label of the base program, or repeating one.
  EXPECT_EQ(AnalyzeFragment(*base, kFeat).status().code(), StatusCode::kAlreadyExists);
  const std::string other =
      "factor OTHER: HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2) weight = 1.\n";
  EXPECT_EQ(AnalyzeFragment(*base, other + other).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(AnalyzeFragment(*base, other).ok());
  // Unlabeled factor rules, and a deductive rule sharing a factor label.
  const std::string unlabeled =
      "factor HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2) weight = 1.\n";
  EXPECT_TRUE(AnalyzeFragment(*base, unlabeled + unlabeled).ok());
  EXPECT_TRUE(
      AnalyzeFragment(*base, "rule FEAT: HasSpouse(m, m2) :- Person(s, m), Person(s, m2).")
          .ok());
}

TEST(AnalyzerTest, RemoveRulesByLabel) {
  auto program = CompileProgram(std::string(kBase) + R"(
    rule C: HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2).
    factor C: HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2) weight = 1.
  )");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->RemoveRulesByLabel("C"), 2u);
  EXPECT_EQ(program->deductive_rules().size(), 0u);
  EXPECT_EQ(program->factor_rules().size(), 0u);
  EXPECT_EQ(program->RemoveRulesByLabel("C"), 0u);
}

}  // namespace
}  // namespace deepdive::dsl
