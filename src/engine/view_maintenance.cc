#include "engine/view_maintenance.h"

#include <algorithm>
#include <set>

#include "util/logging.h"

namespace deepdive::engine {

ViewMaintainer::ViewMaintainer(const dsl::Program* program, Database* db)
    : program_(program), db_(db) {}

Status ViewMaintainer::CompileRule(const dsl::DeductiveRule& rule) {
  DD_ASSIGN_OR_RETURN(CompiledRuleBody body, CompiledRuleBody::Compile(
                                                 *program_, *db_, rule.body,
                                                 rule.conditions));
  rules_.push_back(MaintainedRule{rule, std::move(body)});
  return Status::OK();
}

Status ViewMaintainer::RecomputeTopoOrder() {
  // Dependency edges: body relation -> head relation.
  std::map<std::string, std::set<std::string>> out_edges;
  std::map<std::string, int> in_degree;
  for (const dsl::RelationDecl& r : program_->relations()) in_degree[r.name] = 0;
  for (const MaintainedRule& mr : rules_) {
    for (const dsl::Atom& atom : mr.rule.body) {
      if (atom.predicate == mr.rule.head.predicate) {
        return Status::InvalidArgument("recursive rule through '" + atom.predicate +
                                       "' is not supported");
      }
      if (out_edges[atom.predicate].insert(mr.rule.head.predicate).second) {
        ++in_degree[mr.rule.head.predicate];
      }
    }
  }
  topo_order_.clear();
  std::vector<std::string> frontier;
  for (const dsl::RelationDecl& r : program_->relations()) {
    if (in_degree[r.name] == 0) frontier.push_back(r.name);
  }
  while (!frontier.empty()) {
    std::string rel = frontier.back();
    frontier.pop_back();
    topo_order_.push_back(rel);
    for (const std::string& next : out_edges[rel]) {
      if (--in_degree[next] == 0) frontier.push_back(next);
    }
  }
  if (topo_order_.size() != program_->relations().size()) {
    return Status::InvalidArgument("deductive rules contain a cycle");
  }
  return Status::OK();
}

Status ViewMaintainer::Initialize() {
  DD_CHECK(!initialized_) << "Initialize called twice";
  for (const dsl::DeductiveRule& rule : program_->deductive_rules()) {
    DD_RETURN_IF_ERROR(CompileRule(rule));
  }
  DD_RETURN_IF_ERROR(RecomputeTopoOrder());

  // Pre-existing rows are external derivations with count 1.
  for (const dsl::RelationDecl& r : program_->relations()) {
    const Table* table = db_->GetTable(r.name);
    if (table == nullptr) {
      return Status::FailedPrecondition("database lacks table '" + r.name + "'");
    }
    DeltaTable& counts = counts_[r.name];
    table->Scan([&](RowId, const Tuple& t) { counts.Add(t, 1); });
  }

  // Full evaluation of every rule, in topological relation order so each
  // rule sees its inputs complete.
  std::vector<size_t> all_rules(rules_.size());
  for (size_t i = 0; i < all_rules.size(); ++i) all_rules[i] = i;
  RelationDeltas no_external;
  DD_RETURN_IF_ERROR(Propagate(no_external, all_rules, +1).status());
  initialized_ = true;
  return Status::OK();
}

Status ViewMaintainer::RefreshRelations() {
  DD_CHECK(initialized_);
  for (const dsl::RelationDecl& r : program_->relations()) {
    counts_.try_emplace(r.name);  // new relations start with no derivations
  }
  return RecomputeTopoOrder();
}

StatusOr<RelationDeltas> ViewMaintainer::ApplyUpdate(
    const RelationDeltas& external_deltas) {
  DD_CHECK(initialized_);
  return Propagate(external_deltas, {}, +1);
}

StatusOr<std::set<std::string>> ViewMaintainer::ChangingRelations(
    const RelationDeltas& external_deltas) const {
  DD_CHECK(initialized_);
  return CheckDeltaRulesEvaluable(external_deltas, {});
}

StatusOr<RelationDeltas> ViewMaintainer::AddRule(const dsl::DeductiveRule& rule) {
  DD_CHECK(initialized_);
  DD_RETURN_IF_ERROR(CompileRule(rule));
  Status topo = RecomputeTopoOrder();
  if (!topo.ok()) {
    rules_.pop_back();
    (void)RecomputeTopoOrder();
    return topo;
  }
  RelationDeltas no_external;
  auto result = Propagate(no_external, {rules_.size() - 1}, +1);
  if (!result.ok()) {
    rules_.pop_back();
    (void)RecomputeTopoOrder();
  }
  return result;
}

StatusOr<RelationDeltas> ViewMaintainer::RemoveRule(const std::string& label) {
  DD_CHECK(initialized_);
  auto it = std::find_if(rules_.begin(), rules_.end(), [&](const MaintainedRule& mr) {
    return mr.rule.label == label;
  });
  if (it == rules_.end()) return Status::NotFound("no rule labeled '" + label + "'");
  const size_t index = static_cast<size_t>(it - rules_.begin());
  RelationDeltas no_external;
  // Retract its derivations while the rule is still active (tables unchanged
  // during evaluation), then drop it.
  auto result = Propagate(no_external, {index}, -1);
  if (result.ok()) {
    rules_.erase(rules_.begin() + static_cast<ptrdiff_t>(index));
    DD_RETURN_IF_ERROR(RecomputeTopoOrder());
  }
  return result;
}

int64_t ViewMaintainer::DerivationCount(const std::string& relation,
                                        const Tuple& tuple) const {
  auto it = counts_.find(relation);
  return it == counts_.end() ? 0 : it->second.Count(tuple);
}

Status ViewMaintainer::FoldCounts(const std::string& relation,
                                  const DeltaTable& count_delta, RelationDeltas* out) {
  if (count_delta.empty()) return Status::OK();
  Table* table = db_->GetTable(relation);
  DeltaTable& counts = counts_[relation];
  DeltaTable& set_delta = (*out)[relation];
  Status status = Status::OK();
  count_delta.ForEach([&](const Tuple& tuple, int64_t dc) {
    if (!status.ok()) return;
    const int64_t before = counts.Count(tuple);
    const int64_t after = before + dc;
    if (after < 0) {
      status = Status::Internal("negative derivation count for " +
                                TupleToString(tuple) + " in " + relation);
      return;
    }
    counts.Add(tuple, dc);
    if (before == 0 && after > 0) {
      auto inserted = table->Insert(tuple);
      if (!inserted.ok()) {
        status = inserted.status();
        return;
      }
      set_delta.Add(tuple, +1);
    } else if (before > 0 && after == 0) {
      table->Erase(tuple);
      set_delta.Add(tuple, -1);
    }
  });
  if (status.ok() && (*out)[relation].empty()) out->erase(relation);
  return status;
}

StatusOr<std::set<std::string>> ViewMaintainer::CheckDeltaRulesEvaluable(
    const RelationDeltas& external_deltas, const std::vector<size_t>& full_rules) const {
  std::set<std::string> changing;
  auto is_changing = [&](const std::string& relation) {
    return changing.count(relation) > 0;
  };
  for (const std::string& relation : topo_order_) {
    bool changes = false;
    auto ext = external_deltas.find(relation);
    if (ext != external_deltas.end()) {
      Status absent = Status::OK();
      ext->second.ForEach([&](const Tuple& t, int64_t dc) {
        const int64_t before = DerivationCount(relation, t);
        if (before + dc < 0 && absent.ok()) {
          absent = Status::InvalidArgument("delete of absent tuple " +
                                           TupleToString(t) + " from " + relation);
        }
        if ((before > 0) != (before + dc > 0)) changes = true;
      });
      DD_RETURN_IF_ERROR(absent);
    }
    for (size_t i = 0; i < rules_.size(); ++i) {
      const MaintainedRule& mr = rules_[i];
      if (mr.rule.head.predicate != relation) continue;
      if (std::find(full_rules.begin(), full_rules.end(), i) != full_rules.end()) {
        changes = true;
        continue;
      }
      if (std::none_of(mr.rule.body.begin(), mr.rule.body.end(),
                       [&](const dsl::Atom& atom) { return is_changing(atom.predicate); })) {
        continue;
      }
      DD_RETURN_IF_ERROR(mr.body.CheckNegatedUnchanged(is_changing));
      changes = true;
    }
    if (changes) changing.insert(relation);
  }
  return changing;
}

StatusOr<RelationDeltas> ViewMaintainer::Propagate(
    const RelationDeltas& external_deltas, const std::vector<size_t>& full_rules,
    int64_t full_sign) {
  DD_RETURN_IF_ERROR(CheckDeltaRulesEvaluable(external_deltas, full_rules).status());
  RelationDeltas set_deltas;  // finalized set-level changes, by relation

  for (const std::string& relation : topo_order_) {
    DeltaTable count_delta;

    // (a) external changes targeting this relation.
    auto ext = external_deltas.find(relation);
    if (ext != external_deltas.end()) {
      ext->second.ForEach([&](const Tuple& t, int64_t c) { count_delta.Add(t, c); });
    }

    // (b) delta rules: existing rules with this head whose body relations
    // changed upstream.
    for (size_t i = 0; i < rules_.size(); ++i) {
      const MaintainedRule& mr = rules_[i];
      if (mr.rule.head.predicate != relation) continue;
      if (std::find(full_rules.begin(), full_rules.end(), i) != full_rules.end()) {
        continue;  // handled by (c)
      }
      std::map<std::string, const DeltaTable*> body_deltas;
      for (const dsl::Atom& atom : mr.rule.body) {
        auto it = set_deltas.find(atom.predicate);
        if (it != set_deltas.end()) body_deltas[atom.predicate] = &it->second;
      }
      if (body_deltas.empty()) continue;
      DD_RETURN_IF_ERROR(mr.body.EvaluateDelta(
          body_deltas,
          [&](const std::vector<Value>& values, int64_t sign) {
            count_delta.Add(
                ProjectHead(mr.rule.head.terms, mr.body.var_slots(), values), sign);
          },
          &rows_visited_));
    }

    // (c) full evaluation of newly added (or retracted) rules.
    for (size_t i : full_rules) {
      const MaintainedRule& mr = rules_[i];
      if (mr.rule.head.predicate != relation) continue;
      mr.body.EvaluateFull(
          [&](const std::vector<Value>& values, int64_t sign) {
            count_delta.Add(
                ProjectHead(mr.rule.head.terms, mr.body.var_slots(), values),
                sign * full_sign);
          },
          &rows_visited_);
    }

    DD_RETURN_IF_ERROR(FoldCounts(relation, count_delta, &set_deltas));
  }
  return set_deltas;
}

}  // namespace deepdive::engine
