#include "grounding/incremental_grounder.h"

#include <algorithm>
#include <set>

#include "util/logging.h"
#include "util/string_util.h"

namespace deepdive::grounding {

using factor::GraphDelta;
using factor::GroupId;
using factor::Literal;
using factor::VarId;
using factor::WeightId;

namespace {

factor::Semantics ToFactorSemantics(dsl::Semantics s) {
  switch (s) {
    case dsl::Semantics::kLinear:
      return factor::Semantics::kLinear;
    case dsl::Semantics::kRatio:
      return factor::Semantics::kRatio;
    case dsl::Semantics::kLogical:
      return factor::Semantics::kLogical;
  }
  return factor::Semantics::kLinear;
}

/// Shard-local references: a global id, or (index | kProvisionalBit) into the
/// shard's new-entity list. Real ids stay below 2^31 by a wide margin.
constexpr uint32_t kProvisionalBit = 0x80000000u;
inline bool IsProvisional(uint32_t ref) { return (ref & kProvisionalBit) != 0; }
inline uint32_t ProvisionalIndex(uint32_t ref) { return ref & ~kProvisionalBit; }

/// Canonical clause form: literals sorted by (var, negated), duplicates
/// removed. Applied after variable ids are final, so the sharded merge and
/// the sequential path canonicalize identically.
void CanonicalizeLiterals(std::vector<Literal>* literals) {
  std::sort(literals->begin(), literals->end(), [](const Literal& a, const Literal& b) {
    return a.var != b.var ? a.var < b.var : a.negated < b.negated;
  });
  literals->erase(std::unique(literals->begin(), literals->end(),
                              [](const Literal& a, const Literal& b) {
                                return a.var == b.var && a.negated == b.negated;
                              }),
                  literals->end());
}

}  // namespace

/// One shard's private emission buffer. Evaluation threads append here only;
/// the merge replays buffers in shard order on the caller thread.
struct IncrementalGrounder::ShardBuffer {
  struct Op {
    int64_t sign = 1;
    uint32_t head_ref = 0;
    uint32_t weight_ref = 0;
    std::vector<factor::Literal> literals;  // var fields hold refs, unsorted
  };
  std::vector<Op> ops;

  /// New entities in first-encounter order; provisional id = index.
  std::vector<std::pair<std::string, Tuple>> new_vars;
  std::vector<std::string> new_weight_keys;

  // Shard-local dedup for entities missing from the frozen graph.
  std::unordered_map<std::string, std::unordered_map<Tuple, uint32_t, TupleHash>>
      var_lookup;
  std::unordered_map<std::string, uint32_t> weight_lookup;

  uint64_t rows_visited = 0;  // by this shard's evaluation
};

IncrementalGrounder::IncrementalGrounder(const dsl::Program* program, Database* db,
                                         GroundGraph* ground, GroundingOptions options)
    : program_(program), db_(db), ground_(ground), options_(options) {
  if (options_.num_threads == 0) options_.num_threads = ThreadPool::DefaultThreads();
}

size_t IncrementalGrounder::ShardsFor(size_t domain) const {
  if (options_.num_threads <= 1 || domain < options_.min_shard_rows) return 1;
  return options_.num_threads;
}

void IncrementalGrounder::EnsurePool() {
  // Common pre-shard chokepoint: provisional references tag ids with the
  // high bit, so real ids must stay below it before any shard mints refs
  // against the frozen graph (turn silent ref corruption into a crash).
  DD_CHECK_LT(ground_->graph.NumVariables(), size_t{kProvisionalBit});
  DD_CHECK_LT(ground_->graph.NumWeights(), size_t{kProvisionalBit});
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(options_.num_threads);
}

Status IncrementalGrounder::Initialize() {
  DD_CHECK(!initialized_);
  for (const dsl::FactorRule& rule : program_->factor_rules()) {
    DD_RETURN_IF_ERROR(CompileFactorRule(rule));
  }
  initialized_ = true;
  return Status::OK();
}

Status IncrementalGrounder::CompileFactorRule(const dsl::FactorRule& rule) {
  CompiledFactorRule cr;
  cr.rule = rule;
  cr.rule_id = next_rule_id_++;
  DD_ASSIGN_OR_RETURN(cr.body, engine::CompiledRuleBody::Compile(
                                   *program_, *db_, rule.body, rule.conditions));
  const auto& slots = cr.body.var_slots();

  for (const dsl::Term& t : rule.head.terms) {
    if (t.is_var()) {
      auto it = slots.find(t.var);
      if (it == slots.end()) {
        return Status::InvalidArgument("head variable '" + t.var + "' unbound");
      }
      cr.head_slots.push_back(it->second);
    } else {
      cr.head_slots.push_back(-1);
    }
  }

  if (rule.weight.kind == dsl::WeightSpec::Kind::kTied) {
    for (const std::string& v : rule.weight.tied_vars) {
      auto it = slots.find(v);
      if (it == slots.end()) {
        return Status::InvalidArgument("weight variable '" + v + "' unbound");
      }
      cr.weight_slots.push_back(it->second);
    }
  } else {
    const std::string desc = rule.label.empty()
                                 ? StrFormat("rule#%u", cr.rule_id)
                                 : rule.label;
    cr.fixed_weight = ground_->graph.AddWeight(rule.weight.fixed_value,
                                               rule.weight.learnable, desc);
    cr.has_fixed_weight = true;
  }

  for (const dsl::Atom& atom : rule.body) {
    if (!program_->IsQueryRelation(atom.predicate)) continue;
    CompiledFactorRule::QueryAtom qa;
    qa.relation = atom.predicate;
    qa.negated = atom.negated;
    for (const dsl::Term& t : atom.terms) {
      if (t.is_var()) {
        qa.slots.push_back(slots.at(t.var));
        qa.constants.emplace_back();
      } else {
        qa.slots.push_back(-1);
        qa.constants.push_back(t.constant);
      }
    }
    cr.query_atoms.push_back(std::move(qa));
  }

  rules_.push_back(std::move(cr));
  return Status::OK();
}

VarId IncrementalGrounder::GetOrCreateVariable(const std::string& relation,
                                               const Tuple& tuple, GraphDelta* delta) {
  auto& index = ground_->var_index[relation];
  auto it = index.find(tuple);
  if (it != index.end()) return it->second;
  const VarId var = ground_->graph.AddVariable();
  index.emplace(tuple, var);
  ground_->var_tuples.emplace_back(relation, tuple);
  ground_->relation_vars[relation].push_back(var);
  delta->new_variables.push_back(var);
  return var;
}

void IncrementalGrounder::ProcessGrounding(const CompiledFactorRule& cr,
                                           const std::vector<Value>& values,
                                           int64_t sign, GraphDelta* delta) {
  // Head variable.
  Tuple head_tuple;
  head_tuple.reserve(cr.head_slots.size());
  for (size_t i = 0; i < cr.head_slots.size(); ++i) {
    head_tuple.push_back(cr.head_slots[i] >= 0 ? values[cr.head_slots[i]]
                                               : cr.rule.head.terms[i].constant);
  }
  const VarId head = GetOrCreateVariable(cr.rule.head.predicate, head_tuple, delta);

  // Body literals over query variables.
  std::vector<Literal> literals;
  literals.reserve(cr.query_atoms.size());
  for (const auto& qa : cr.query_atoms) {
    Tuple t;
    t.reserve(qa.slots.size());
    for (size_t i = 0; i < qa.slots.size(); ++i) {
      t.push_back(qa.slots[i] >= 0 ? values[qa.slots[i]] : qa.constants[i]);
    }
    const VarId v = GetOrCreateVariable(qa.relation, t, delta);
    if (v == head) return;  // grounding references its own head; skip
    literals.push_back(Literal{v, qa.negated});
  }
  CanonicalizeLiterals(&literals);

  // Weight.
  WeightId weight;
  if (cr.has_fixed_weight) {
    weight = cr.fixed_weight;
  } else {
    std::string key = cr.rule.label.empty() ? StrFormat("rule#%u", cr.rule_id)
                                            : cr.rule.label;
    for (int slot : cr.weight_slots) {
      key += '/';
      key += values[slot].ToString();
    }
    weight = ground_->graph.GetOrCreateTiedWeight(key);
  }

  FinishGrounding(cr, head, weight, std::move(literals), sign, delta);
}

void IncrementalGrounder::FinishGrounding(const CompiledFactorRule& cr, VarId head,
                                          WeightId weight, std::vector<Literal> literals,
                                          int64_t sign, GraphDelta* delta) {
  ++groundings_emitted_;
  // Group.
  const auto group_key = std::make_tuple(cr.rule_id, head, weight);
  auto git = group_index_.find(group_key);
  GroupId group;
  bool fresh_group = false;
  if (git == group_index_.end()) {
    if (sign < 0) {
      DD_LOG(Warning) << "retracting a grounding from a nonexistent group (rule "
                      << cr.rule_id << ")";
      return;
    }
    group = ground_->graph.AddGroup(cr.rule_id, head, weight,
                                    ToFactorSemantics(cr.rule.semantics));
    group_index_.emplace(group_key, group);
    delta->new_groups.push_back(group);
    fresh_groups_.insert(group);
    fresh_group = true;
  } else {
    group = git->second;
    fresh_group = fresh_groups_.count(group) > 0;
  }

  auto mod_for = [&]() -> GraphDelta::GroupMod& {
    auto mit = mod_index_.find(group);
    if (mit == mod_index_.end()) {
      mod_index_.emplace(group, delta->modified_groups.size());
      delta->modified_groups.push_back(GraphDelta::GroupMod{group, {}, {}});
      return delta->modified_groups.back();
    }
    return delta->modified_groups[mit->second];
  };

  if (sign > 0) {
    const factor::ClauseId cid = ground_->graph.AddClause(group, literals);
    if (!fresh_group) mod_for().added.push_back(cid);
  } else {
    const factor::ClauseId cid = ground_->graph.FindActiveClause(group, literals);
    if (cid == factor::kNoClause) {
      DD_LOG(Warning) << "retracting an unknown grounding (rule " << cr.rule_id << ")";
      return;
    }
    ground_->graph.DeactivateClause(cid);
    if (!fresh_group) {
      GraphDelta::GroupMod& mod = mod_for();
      // If this clause was added earlier in the same update, cancel it out.
      auto ait = std::find(mod.added.begin(), mod.added.end(), cid);
      if (ait != mod.added.end()) {
        mod.added.erase(ait);
      } else {
        mod.removed.push_back(cid);
      }
    }
  }
}

void IncrementalGrounder::EmitShardGrounding(const CompiledFactorRule& cr,
                                             const std::vector<Value>& values,
                                             int64_t sign, ShardBuffer* buf) const {
  // Mirror of ProcessGrounding's resolution half against a frozen graph:
  // lookups hit the shared index read-only; misses mint provisional ids in
  // first-encounter order, which is exactly the order the sequential
  // grounder would have assigned real ids in.
  auto var_ref = [&](const std::string& relation, Tuple tuple) -> uint32_t {
    auto rit = ground_->var_index.find(relation);
    if (rit != ground_->var_index.end()) {
      auto it = rit->second.find(tuple);
      if (it != rit->second.end()) return it->second;
    }
    auto& local = buf->var_lookup[relation];
    auto [lit, inserted] = local.try_emplace(
        tuple, static_cast<uint32_t>(buf->new_vars.size()) | kProvisionalBit);
    if (inserted) buf->new_vars.emplace_back(relation, std::move(tuple));
    return lit->second;
  };

  Tuple head_tuple;
  head_tuple.reserve(cr.head_slots.size());
  for (size_t i = 0; i < cr.head_slots.size(); ++i) {
    head_tuple.push_back(cr.head_slots[i] >= 0 ? values[cr.head_slots[i]]
                                               : cr.rule.head.terms[i].constant);
  }
  ShardBuffer::Op op;
  op.sign = sign;
  op.head_ref = var_ref(cr.rule.head.predicate, std::move(head_tuple));

  op.literals.reserve(cr.query_atoms.size());
  for (const auto& qa : cr.query_atoms) {
    Tuple t;
    t.reserve(qa.slots.size());
    for (size_t i = 0; i < qa.slots.size(); ++i) {
      t.push_back(qa.slots[i] >= 0 ? values[qa.slots[i]] : qa.constants[i]);
    }
    const uint32_t v = var_ref(qa.relation, std::move(t));
    // Grounding references its own head: skip, keeping any variables already
    // minted (the sequential path creates them before bailing too).
    if (v == op.head_ref) return;
    op.literals.push_back(Literal{v, qa.negated});
  }

  if (cr.has_fixed_weight) {
    op.weight_ref = cr.fixed_weight;
  } else {
    std::string key = cr.rule.label.empty() ? StrFormat("rule#%u", cr.rule_id)
                                            : cr.rule.label;
    for (int slot : cr.weight_slots) {
      key += '/';
      key += values[slot].ToString();
    }
    if (auto w = ground_->graph.FindTiedWeight(key)) {
      op.weight_ref = *w;
    } else {
      auto [it, inserted] = buf->weight_lookup.try_emplace(
          key, static_cast<uint32_t>(buf->new_weight_keys.size()) | kProvisionalBit);
      if (inserted) buf->new_weight_keys.push_back(std::move(key));
      op.weight_ref = it->second;
    }
  }
  buf->ops.push_back(std::move(op));
}

void IncrementalGrounder::MergeShardBuffers(const CompiledFactorRule& cr,
                                            std::vector<ShardBuffer>* buffers,
                                            GraphDelta* delta) {
  factor::FactorGraph& graph = ground_->graph;
  size_t new_vars = 0, new_weights = 0, clause_adds = 0;
  for (const ShardBuffer& buf : *buffers) {
    new_vars += buf.new_vars.size();
    new_weights += buf.new_weight_keys.size();
    for (const ShardBuffer::Op& op : buf.ops) {
      if (op.sign > 0) ++clause_adds;
    }
  }
  // Upper bounds (cross-shard dedup only shrinks them): one reservation, no
  // rehash or reallocation inside the replay loop.
  graph.ReserveVariables(graph.NumVariables() + new_vars);
  graph.ReserveWeights(graph.NumWeights() + new_weights);
  graph.ReserveClauses(graph.NumClauses() + clause_adds);
  ground_->var_tuples.reserve(ground_->var_tuples.size() + new_vars);

  for (ShardBuffer& buf : *buffers) {
    // Resolve this shard's provisional entities in first-encounter order;
    // entities another shard already materialized dedup to that id.
    std::vector<VarId> var_map(buf.new_vars.size());
    for (size_t i = 0; i < buf.new_vars.size(); ++i) {
      var_map[i] =
          GetOrCreateVariable(buf.new_vars[i].first, buf.new_vars[i].second, delta);
    }
    std::vector<WeightId> weight_map(buf.new_weight_keys.size());
    for (size_t i = 0; i < buf.new_weight_keys.size(); ++i) {
      weight_map[i] = graph.GetOrCreateTiedWeight(buf.new_weight_keys[i]);
    }
    auto resolve_var = [&](uint32_t ref) -> VarId {
      return IsProvisional(ref) ? var_map[ProvisionalIndex(ref)] : ref;
    };

    for (ShardBuffer::Op& op : buf.ops) {
      const VarId head = resolve_var(op.head_ref);
      std::vector<Literal> literals;
      literals.reserve(op.literals.size());
      for (const Literal& lit : op.literals) {
        literals.push_back(Literal{resolve_var(lit.var), lit.negated});
      }
      CanonicalizeLiterals(&literals);
      const WeightId weight = IsProvisional(op.weight_ref)
                                  ? weight_map[ProvisionalIndex(op.weight_ref)]
                                  : op.weight_ref;
      FinishGrounding(cr, head, weight, std::move(literals), op.sign, delta);
    }
    // Done with this shard; free its buffers before replaying the next.
    buf = ShardBuffer{};
  }
}

void IncrementalGrounder::GroundRuleFull(const CompiledFactorRule& cr,
                                         GraphDelta* delta) {
  // A constant-term driver is probed through its column index sequentially
  // (O(matching rows)); a sharded full scan would visit every row.
  const size_t domain = cr.body.FullDriverDomain();
  const size_t shards = cr.body.DriverHasConstantTerm() ? 1 : ShardsFor(domain);
  if (shards <= 1) {
    // Groundings are buffered first because ProcessGrounding mutates graph
    // state while tables are being scanned.
    std::vector<std::vector<Value>> bindings;
    cr.body.EvaluateFull(
        [&](const std::vector<Value>& values, int64_t sign) {
          DD_CHECK_EQ(sign, 1);
          bindings.push_back(values);
        },
        &rows_visited_);
    for (const auto& values : bindings) {
      ProcessGrounding(cr, values, +1, delta);
    }
    return;
  }

  EnsurePool();
  cr.body.PrewarmIndexes();
  std::vector<ShardBuffer> buffers(pool_->shards());
  pool_->ParallelFor(domain, [&](size_t shard, size_t begin, size_t end) {
    ShardBuffer* buf = &buffers[shard];
    cr.body.EvaluateFullRange(
        begin, end,
        [&](const std::vector<Value>& values, int64_t sign) {
          DD_CHECK_EQ(sign, 1);
          EmitShardGrounding(cr, values, sign, buf);
        },
        &buf->rows_visited);
  });
  for (const ShardBuffer& buf : buffers) rows_visited_ += buf.rows_visited;
  MergeShardBuffers(cr, &buffers, delta);
}

void IncrementalGrounder::ReapplyEvidence(const std::string& query_relation,
                                          const Tuple& tuple, GraphDelta* delta) {
  const VarId var = GetOrCreateVariable(query_relation, tuple, delta);
  std::optional<bool> label;
  for (const dsl::RelationDecl* ev : program_->EvidenceRelationsFor(query_relation)) {
    const Table* table = db_->GetTable(ev->name);
    if (table == nullptr) continue;
    Tuple pos = tuple, neg = tuple;
    pos.emplace_back(true);
    neg.emplace_back(false);
    if (table->Contains(pos)) {
      label = true;  // positive labels win conflicts
      break;
    }
    if (table->Contains(neg)) label = false;
  }
  const std::optional<bool> old = ground_->graph.EvidenceValue(var);
  if (old != label) {
    ground_->graph.SetEvidence(var, label);
    delta->evidence_changes.push_back(GraphDelta::EvidenceChange{var, old, label});
  }
}

StatusOr<GraphDelta> IncrementalGrounder::GroundAll() {
  DD_CHECK(initialized_);
  GraphDelta delta;
  mod_index_.clear();
  fresh_groups_.clear();

  // Variables for every query tuple.
  for (const dsl::RelationDecl& rel : program_->relations()) {
    if (rel.kind != dsl::RelationKind::kQuery) continue;
    const Table* table = db_->GetTable(rel.name);
    if (table == nullptr) {
      return Status::FailedPrecondition("missing table '" + rel.name + "'");
    }
    table->Scan([&](RowId, const Tuple& t) { GetOrCreateVariable(rel.name, t, &delta); });
  }

  // Evidence labels.
  for (const dsl::RelationDecl& rel : program_->relations()) {
    if (rel.kind != dsl::RelationKind::kEvidence) continue;
    const Table* table = db_->GetTable(rel.name);
    if (table == nullptr) continue;
    table->Scan([&](RowId, const Tuple& t) {
      Tuple target(t.begin(), t.end() - 1);
      ReapplyEvidence(rel.evidence_for, target, &delta);
    });
  }

  // Ground every factor rule, sharding large evaluations across the pool.
  // Rules merge in order: rule r+1's shards resolve variables against the
  // graph state rule r left behind, exactly like the sequential grounder.
  for (const CompiledFactorRule& cr : rules_) {
    GroundRuleFull(cr, &delta);
  }
  return delta;
}

StatusOr<GraphDelta> IncrementalGrounder::ApplyRelationDeltas(
    const engine::RelationDeltas& deltas) {
  DD_CHECK(initialized_);
  GraphDelta delta;
  mod_index_.clear();
  fresh_groups_.clear();

  // 1. New query tuples become variables (removed tuples keep their variable,
  //    which ends up isolated once its groundings are retracted below).
  for (const auto& [relation, dt] : deltas) {
    if (!program_->IsQueryRelation(relation)) continue;
    // Ordered: variable ids are assigned in visit order, and ids reach the
    // published view and fingerprints — hash-layout order must not leak in.
    dt.ForEachOrdered([&](const Tuple& t, int64_t c) {
      if (c > 0) GetOrCreateVariable(relation, t, &delta);
    });
  }

  // 2. Evidence changes: recompute labels for every touched target tuple.
  for (const auto& [relation, dt] : deltas) {
    const dsl::RelationDecl* rel = program_->FindRelation(relation);
    if (rel == nullptr || rel->kind != dsl::RelationKind::kEvidence) continue;
    std::set<Tuple> touched;
    dt.ForEach([&](const Tuple& t, int64_t) {
      touched.insert(Tuple(t.begin(), t.end() - 1));
    });
    for (const Tuple& target : touched) {
      ReapplyEvidence(rel->evidence_for, target, &delta);
    }
  }

  // 3. Delta-ground every factor rule whose body touches a changed relation.
  //    Each telescoping term starts at its changed atom, so the work follows
  //    the update, not the tables: it runs sequentially.
  for (const CompiledFactorRule& cr : rules_) {
    std::map<std::string, const DeltaTable*> body_deltas;
    for (const dsl::Atom& atom : cr.rule.body) {
      auto it = deltas.find(atom.predicate);
      if (it != deltas.end()) body_deltas[atom.predicate] = &it->second;
    }
    if (body_deltas.empty()) continue;
    DD_RETURN_IF_ERROR(cr.body.EvaluateDelta(
        body_deltas,
        [&](const std::vector<Value>& values, int64_t sign) {
          ProcessGrounding(cr, values, sign, &delta);
        },
        &rows_visited_));
  }
  return delta;
}

Status IncrementalGrounder::CheckDeltaEvaluable(
    const std::set<std::string>& changing) const {
  const auto is_changing = [&](const std::string& relation) {
    return changing.count(relation) > 0;
  };
  for (const CompiledFactorRule& cr : rules_) {
    DD_RETURN_IF_ERROR(cr.body.CheckNegatedUnchanged(is_changing));
  }
  return Status::OK();
}

StatusOr<GraphDelta> IncrementalGrounder::AddFactorRule(const dsl::FactorRule& rule) {
  DD_CHECK(initialized_);
  DD_RETURN_IF_ERROR(CompileFactorRule(rule));
  GraphDelta delta;
  mod_index_.clear();
  fresh_groups_.clear();
  GroundRuleFull(rules_.back(), &delta);
  return delta;
}

StatusOr<GraphDelta> IncrementalGrounder::RemoveFactorRule(const std::string& label) {
  DD_CHECK(initialized_);
  auto it = std::find_if(rules_.begin(), rules_.end(), [&](const CompiledFactorRule& cr) {
    return cr.rule.label == label;
  });
  if (it == rules_.end()) return Status::NotFound("no factor rule labeled '" + label + "'");
  GraphDelta delta;
  const uint32_t rule_id = it->rule_id;
  for (GroupId g = 0; g < ground_->graph.NumGroups(); ++g) {
    const factor::FactorGroup& group = ground_->graph.group(g);
    if (group.rule_id == rule_id && group.active) {
      ground_->graph.DeactivateGroup(g);
      delta.removed_groups.push_back(g);
    }
  }
  rules_.erase(it);
  return delta;
}

}  // namespace deepdive::grounding
