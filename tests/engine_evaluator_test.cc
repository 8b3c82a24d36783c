#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dsl/program.h"
#include "engine/rule_evaluator.h"
#include "storage/database.h"
#include "util/random.h"

namespace deepdive::engine {
namespace {

using dsl::CompileProgram;
using dsl::Program;

struct Fixture {
  Program program;
  Database db;

  explicit Fixture(const std::string& source) {
    auto p = CompileProgram(source);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    program = std::move(p).value();
    EXPECT_TRUE(program.InstantiateSchema(&db).ok());
  }

  Table* table(const std::string& name) { return db.GetTable(name); }

  CompiledRuleBody Compile(size_t rule_index = 0) {
    const dsl::DeductiveRule& rule = program.deductive_rules()[rule_index];
    auto body = CompiledRuleBody::Compile(program, db, rule.body, rule.conditions);
    EXPECT_TRUE(body.ok()) << body.status().ToString();
    return std::move(body).value();
  }

  std::multiset<std::string> HeadTuples(const CompiledRuleBody& body,
                                        size_t rule_index = 0) {
    const dsl::DeductiveRule& rule = program.deductive_rules()[rule_index];
    std::multiset<std::string> out;
    body.EvaluateFull([&](const std::vector<Value>& values, int64_t sign) {
      EXPECT_EQ(sign, 1);
      out.insert(TupleToString(ProjectHead(rule.head.terms, body.var_slots(), values)));
    });
    return out;
  }
};

TEST(EvalCompareTest, AllOperators) {
  EXPECT_TRUE(EvalCompare(dsl::CompareOp::kEq, Value(1), Value(1)));
  EXPECT_TRUE(EvalCompare(dsl::CompareOp::kNe, Value(1), Value(2)));
  EXPECT_TRUE(EvalCompare(dsl::CompareOp::kLt, Value(1), Value(2)));
  EXPECT_TRUE(EvalCompare(dsl::CompareOp::kLe, Value(2), Value(2)));
  EXPECT_TRUE(EvalCompare(dsl::CompareOp::kGt, Value(3), Value(2)));
  EXPECT_TRUE(EvalCompare(dsl::CompareOp::kGe, Value(2), Value(2)));
  EXPECT_FALSE(EvalCompare(dsl::CompareOp::kLt, Value(2), Value(2)));
}

TEST(RuleEvaluatorTest, SimpleJoin) {
  Fixture f(R"(
    relation R(x: int, y: int).
    relation S(y: int).
    relation H(x: int).
    rule H(x) :- R(x, y), S(y).
  )");
  ASSERT_TRUE(f.table("R")->Insert({Value(1), Value(10)}).ok());
  ASSERT_TRUE(f.table("R")->Insert({Value(2), Value(20)}).ok());
  ASSERT_TRUE(f.table("S")->Insert({Value(10)}).ok());
  auto body = f.Compile();
  EXPECT_EQ(f.HeadTuples(body), (std::multiset<std::string>{"(1)"}));
}

TEST(RuleEvaluatorTest, SelfJoinEnumeratesOrderedPairs) {
  Fixture f(R"(
    relation P(s: int, m: int).
    relation H(a: int, b: int).
    rule H(a, b) :- P(s, a), P(s, b), a != b.
  )");
  ASSERT_TRUE(f.table("P")->Insert({Value(1), Value(7)}).ok());
  ASSERT_TRUE(f.table("P")->Insert({Value(1), Value(8)}).ok());
  ASSERT_TRUE(f.table("P")->Insert({Value(2), Value(9)}).ok());
  auto body = f.Compile();
  EXPECT_EQ(f.HeadTuples(body), (std::multiset<std::string>{"(7, 8)", "(8, 7)"}));
}

TEST(RuleEvaluatorTest, ConstantsFilter) {
  Fixture f(R"(
    relation R(x: int, tag: string).
    relation H(x: int).
    rule H(x) :- R(x, "keep").
  )");
  ASSERT_TRUE(f.table("R")->Insert({Value(1), Value("keep")}).ok());
  ASSERT_TRUE(f.table("R")->Insert({Value(2), Value("drop")}).ok());
  auto body = f.Compile();
  EXPECT_EQ(f.HeadTuples(body), (std::multiset<std::string>{"(1)"}));
}

TEST(RuleEvaluatorTest, RepeatedVariableWithinAtom) {
  Fixture f(R"(
    relation R(x: int, y: int).
    relation H(x: int).
    rule H(x) :- R(x, x).
  )");
  ASSERT_TRUE(f.table("R")->Insert({Value(1), Value(1)}).ok());
  ASSERT_TRUE(f.table("R")->Insert({Value(1), Value(2)}).ok());
  auto body = f.Compile();
  EXPECT_EQ(f.HeadTuples(body), (std::multiset<std::string>{"(1)"}));
}

TEST(RuleEvaluatorTest, NegationAsAntiJoin) {
  Fixture f(R"(
    relation A(x: int).
    relation B(x: int).
    relation H(x: int).
    rule H(x) :- A(x), !B(x).
  )");
  ASSERT_TRUE(f.table("A")->Insert({Value(1)}).ok());
  ASSERT_TRUE(f.table("A")->Insert({Value(2)}).ok());
  ASSERT_TRUE(f.table("B")->Insert({Value(2)}).ok());
  auto body = f.Compile();
  EXPECT_EQ(f.HeadTuples(body), (std::multiset<std::string>{"(1)"}));
}

TEST(RuleEvaluatorTest, MultisetSemantics) {
  // Two derivations of the same head tuple (different s) both fire.
  Fixture f(R"(
    relation P(s: int, m: int).
    relation H(m: int).
    rule H(m) :- P(s, m).
  )");
  ASSERT_TRUE(f.table("P")->Insert({Value(1), Value(7)}).ok());
  ASSERT_TRUE(f.table("P")->Insert({Value(2), Value(7)}).ok());
  auto body = f.Compile();
  EXPECT_EQ(f.HeadTuples(body), (std::multiset<std::string>{"(7)", "(7)"}));
}

TEST(RuleEvaluatorTest, DeltaEvaluationRejectsChangedNegation) {
  Fixture f(R"(
    relation A(x: int).
    relation B(x: int).
    relation H(x: int).
    rule H(x) :- A(x), !B(x).
  )");
  auto body = f.Compile();
  DeltaTable db_delta("B");
  db_delta.Add({Value(1)}, 1);
  std::map<std::string, const DeltaTable*> deltas = {{"B", &db_delta}};
  auto status = body.EvaluateDelta(deltas, [](const std::vector<Value>&, int64_t) {});
  EXPECT_EQ(status.code(), StatusCode::kUnimplemented);
}

// Property: for random updates (insertions and deletions, including
// self-joins), delta evaluation produces exactly new-state minus old-state
// derivation multisets.
class DeltaEvaluationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaEvaluationProperty, MatchesRecomputation) {
  Fixture f(R"(
    relation P(s: int, m: int).
    relation Q(m: int).
    relation H(a: int, b: int).
    rule H(a, b) :- P(s, a), P(s, b), Q(b), a != b.
  )");
  Rng rng(GetParam());
  Table* p = f.table("P");
  Table* q = f.table("Q");

  // Random initial state.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        p->Insert({Value(static_cast<int64_t>(rng.UniformInt(6))),
                   Value(static_cast<int64_t>(rng.UniformInt(8)))})
            .ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q->Insert({Value(static_cast<int64_t>(rng.UniformInt(8)))}).ok());
  }

  auto body = f.Compile();
  auto count_derivations = [&]() {
    std::multiset<std::string> out;
    body.EvaluateFull([&](const std::vector<Value>& values, int64_t) {
      out.insert(TupleToString(values));
    });
    return out;
  };
  const auto before = count_derivations();

  // Random update touching both relations.
  DeltaTable dp("P"), dq("Q");
  for (int i = 0; i < 6; ++i) {
    Tuple t = {Value(static_cast<int64_t>(rng.UniformInt(6))),
               Value(static_cast<int64_t>(rng.UniformInt(8)))};
    if (p->Contains(t)) {
      if (rng.Bernoulli(0.5)) {
        p->Erase(t);
        dp.Add(t, -1);
      }
    } else {
      ASSERT_TRUE(p->Insert(t).ok());
      dp.Add(t, +1);
    }
  }
  for (int i = 0; i < 3; ++i) {
    Tuple t = {Value(static_cast<int64_t>(rng.UniformInt(8)))};
    if (q->Contains(t)) {
      if (rng.Bernoulli(0.5)) {
        q->Erase(t);
        dq.Add(t, -1);
      }
    } else {
      ASSERT_TRUE(q->Insert(t).ok());
      dq.Add(t, +1);
    }
  }
  const auto after = count_derivations();

  // Delta evaluation (tables are already in the NEW state).
  std::map<std::string, int64_t> delta_counts;
  std::map<std::string, const DeltaTable*> deltas = {{"P", &dp}, {"Q", &dq}};
  ASSERT_TRUE(body.EvaluateDelta(deltas,
                                 [&](const std::vector<Value>& values, int64_t sign) {
                                   delta_counts[TupleToString(values)] += sign;
                                 })
                  .ok());

  // Expected delta: after - before, as signed multiset counts.
  std::map<std::string, int64_t> expected;
  for (const auto& s : after) ++expected[s];
  for (const auto& s : before) --expected[s];
  for (auto it = expected.begin(); it != expected.end();) {
    it = it->second == 0 ? expected.erase(it) : std::next(it);
  }
  for (auto it = delta_counts.begin(); it != delta_counts.end();) {
    it = it->second == 0 ? delta_counts.erase(it) : std::next(it);
  }
  EXPECT_EQ(delta_counts, expected);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, DeltaEvaluationProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

// ---- emission order ----
//
// Reference for EvaluateDelta's emission order: each telescoping term as a
// nested loop over the atoms in declared order, each atom probing the index of
// its first constant or bound column (a scan when it has none), OLD atoms
// adding just-deleted tuples back after the rows, DELTA atoms visiting their
// entries in ForEach order. Row ids, group ids and derivation counts
// downstream follow this order.
struct RefTerm {
  int slot = -1;  // -1 = constant
  Value constant;
};
struct RefAtom {
  const Table* table = nullptr;
  std::string relation;
  bool negated = false;
  std::vector<RefTerm> terms;
};
enum class RefMode { kNew, kOld, kDelta };
using Emitted = std::vector<std::pair<std::vector<Value>, int64_t>>;

void RefJoin(const std::vector<RefAtom>& atoms, const std::vector<RefMode>& modes,
             const std::vector<const DeltaTable*>& deltas,
             const std::vector<std::pair<int, int>>& distinct, size_t k,
             std::vector<Value> values, std::vector<bool> bound, int64_t sign,
             Emitted* out) {
  if (k == atoms.size()) {
    for (const auto& [l, r] : distinct) {
      if (values[l] == values[r]) return;
    }
    out->emplace_back(values, sign);
    return;
  }
  const RefAtom& atom = atoms[k];
  auto value_of = [&](const RefTerm& t) { return t.slot < 0 ? t.constant : values[t.slot]; };
  if (atom.negated) {
    Tuple probe;
    for (const RefTerm& t : atom.terms) probe.push_back(value_of(t));
    if (!atom.table->Contains(probe)) {
      RefJoin(atoms, modes, deltas, distinct, k + 1, values, bound, sign, out);
    }
    return;
  }
  auto try_tuple = [&](const Tuple& tuple, int64_t tuple_sign) {
    std::vector<Value> v = values;
    std::vector<bool> b = bound;
    for (size_t i = 0; i < atom.terms.size(); ++i) {
      const RefTerm& t = atom.terms[i];
      if (t.slot >= 0 && !b[t.slot]) {
        v[t.slot] = tuple[i];
        b[t.slot] = true;
      } else if (!((t.slot < 0 ? t.constant : v[t.slot]) == tuple[i])) {
        return;
      }
    }
    RefJoin(atoms, modes, deltas, distinct, k + 1, v, b, sign * tuple_sign, out);
  };
  if (modes[k] == RefMode::kDelta) {
    deltas[k]->ForEach([&](const Tuple& t, int64_t c) { try_tuple(t, c > 0 ? 1 : -1); });
    return;
  }
  int col = -1;
  for (size_t i = 0; i < atom.terms.size() && col < 0; ++i) {
    if (atom.terms[i].slot < 0 || bound[atom.terms[i].slot]) col = static_cast<int>(i);
  }
  std::vector<RowId> ids;
  if (col >= 0) {
    ids = atom.table->Lookup(col, value_of(atom.terms[col]));
  } else {
    atom.table->Scan([&](RowId id, const Tuple&) { ids.push_back(id); });
  }
  for (RowId id : ids) {
    const Tuple& t = atom.table->row(id);
    if (modes[k] == RefMode::kOld && deltas[k]->Count(t) > 0) continue;
    try_tuple(t, 1);
  }
  if (modes[k] == RefMode::kOld) {
    deltas[k]->ForEach([&](const Tuple& t, int64_t c) {
      if (c < 0 && (col < 0 || t[col] == value_of(atom.terms[col]))) try_tuple(t, 1);
    });
  }
}

Emitted RefDelta(const std::vector<RefAtom>& atoms,
                 const std::map<std::string, const DeltaTable*>& deltas,
                 const std::vector<std::pair<int, int>>& distinct, size_t num_slots) {
  std::vector<size_t> positions;  // (relation name, atom index) order
  for (const auto& [relation, delta] : deltas) {
    for (size_t k = 0; k < atoms.size(); ++k) {
      if (!atoms[k].negated && atoms[k].relation == relation) positions.push_back(k);
    }
  }
  Emitted out;
  for (size_t term = 0; term < positions.size(); ++term) {
    std::vector<RefMode> modes(atoms.size(), RefMode::kNew);
    std::vector<const DeltaTable*> atom_deltas(atoms.size(), nullptr);
    for (size_t m = 0; m < positions.size(); ++m) {
      const size_t k = positions[m];
      modes[k] = m < term ? RefMode::kNew : m == term ? RefMode::kDelta : RefMode::kOld;
      atom_deltas[k] = deltas.at(atoms[k].relation);
    }
    RefJoin(atoms, modes, atom_deltas, distinct, 0, std::vector<Value>(num_slots),
            std::vector<bool>(num_slots, false), 1, &out);
  }
  return out;
}

// Property: for random bodies (self-joins, constants, repeated variables, a
// negated atom on an unchanged relation, != conditions) and mixed
// insert/delete deltas, EvaluateDelta emits exactly the reference's sequence.
class DeltaEmissionOrderProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaEmissionOrderProperty, MatchesDeclaredOrderNestedLoop) {
  Rng rng(GetParam());
  const char* kVars[] = {"a", "b", "c", "d"};
  const char* kRelations[] = {"P", "Q"};
  auto small = [&]() { return static_cast<int64_t>(rng.UniformInt(4)); };

  // Random body: 1-4 atoms over P and Q, the first term of the first atom a
  // variable so the head has one.
  std::vector<std::pair<std::string, std::vector<std::string>>> atoms;
  std::vector<std::string> body_vars;
  const size_t num_atoms = 1 + rng.UniformInt(4);
  for (size_t k = 0; k < num_atoms; ++k) {
    std::vector<std::string> terms;
    for (size_t i = 0; i < 2; ++i) {
      if ((k > 0 || i > 0) && rng.Bernoulli(0.2)) {
        terms.push_back(std::to_string(small()));
      } else {
        terms.push_back(kVars[rng.UniformInt(4)]);
        body_vars.push_back(terms.back());
      }
    }
    atoms.emplace_back(kRelations[rng.UniformInt(2)], terms);
  }
  std::string source = "relation P(x: int, y: int). relation Q(x: int, y: int).\n"
                       "relation N(x: int). relation H(x: int).\n"
                       "rule H(" + body_vars[0] + ") :- ";
  for (size_t k = 0; k < atoms.size(); ++k) {
    source += (k > 0 ? ", " : "") + atoms[k].first + "(" + atoms[k].second[0] + ", " +
              atoms[k].second[1] + ")";
  }
  const bool negated = num_atoms < 4 && rng.Bernoulli(0.5);
  const std::string negated_var = body_vars[rng.UniformInt(body_vars.size())];
  if (negated) source += ", !N(" + negated_var + ")";
  std::vector<std::pair<std::string, std::string>> conditions;
  if (rng.Bernoulli(0.5)) {
    conditions.emplace_back(body_vars[rng.UniformInt(body_vars.size())],
                            body_vars[rng.UniformInt(body_vars.size())]);
    source += ", " + conditions[0].first + " != " + conditions[0].second;
  }
  source += ".";
  Fixture f(source);
  ASSERT_FALSE(HasFailure()) << source;

  // Random state with tombstones, re-inserted rows and indexes built before
  // the update, so row ids and index buckets are not in tuple order.
  for (const char* name : {"P", "Q"}) {
    Table* t = f.table(name);
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(t->Insert({Value(small()), Value(small())}).ok());
    for (int i = 0; i < 3; ++i) {
      Tuple row = {Value(small()), Value(small())};
      if (t->Erase(row) && rng.Bernoulli(0.5)) {
        ASSERT_TRUE(t->Insert(row).ok());
      }
    }
  }
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(f.table("N")->Insert({Value(small())}).ok());
  auto body = f.Compile();
  body.EvaluateFull([](const std::vector<Value>&, int64_t) {});

  // Mixed insert/delete deltas on P, Q or both; N never changes.
  std::map<std::string, DeltaTable> changes;
  const size_t which = rng.UniformInt(3);
  for (size_t r = 0; r < 2; ++r) {
    if (which != 2 && which != r) continue;
    Table* t = f.table(kRelations[r]);
    DeltaTable& delta = changes[kRelations[r]];
    for (int i = 0; i < 5; ++i) {
      Tuple row = {Value(small()), Value(small())};
      if (delta.Count(row) != 0) continue;
      if (t->Contains(row)) {
        if (rng.Bernoulli(0.6)) {
          t->Erase(row);
          delta.Add(row, -1);
        }
      } else {
        ASSERT_TRUE(t->Insert(row).ok());
        delta.Add(row, 1);
      }
    }
  }
  std::map<std::string, const DeltaTable*> deltas;
  for (const auto& [name, delta] : changes) {
    if (!delta.empty()) deltas[name] = &delta;
  }

  // The reference over the same slot numbering.
  const auto& slots = body.var_slots();
  auto ref_term = [&](const std::string& term) {
    RefTerm t;
    if (std::isalpha(static_cast<unsigned char>(term[0]))) {
      t.slot = slots.at(term);
    } else {
      t.constant = Value(static_cast<int64_t>(std::stoll(term)));
    }
    return t;
  };
  std::vector<RefAtom> ref;
  for (const auto& [relation, terms] : atoms) {
    ref.push_back(RefAtom{f.table(relation), relation, false,
                          {ref_term(terms[0]), ref_term(terms[1])}});
  }
  if (negated) ref.push_back(RefAtom{f.table("N"), "N", true, {ref_term(negated_var)}});
  std::vector<std::pair<int, int>> distinct;
  for (const auto& [l, r] : conditions) distinct.emplace_back(slots.at(l), slots.at(r));
  const Emitted expected = RefDelta(ref, deltas, distinct, body.num_slots());

  Emitted actual;
  ASSERT_TRUE(body.EvaluateDelta(deltas,
                                 [&](const std::vector<Value>& values, int64_t sign) {
                                   actual.emplace_back(values, sign);
                                 })
                  .ok());
  ASSERT_EQ(actual.size(), expected.size()) << source;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(TupleToString(actual[i].first), TupleToString(expected[i].first))
        << source << " binding " << i;
    EXPECT_EQ(actual[i].second, expected[i].second) << source << " binding " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomBodies, DeltaEmissionOrderProperty,
                         ::testing::Range<uint64_t>(1, 61));

}  // namespace
}  // namespace deepdive::engine
