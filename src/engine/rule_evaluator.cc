#include "engine/rule_evaluator.h"

#include <algorithm>

#include "util/logging.h"

namespace deepdive::engine {

bool EvalCompare(dsl::CompareOp op, const Value& lhs, const Value& rhs) {
  switch (op) {
    case dsl::CompareOp::kEq:
      return lhs == rhs;
    case dsl::CompareOp::kNe:
      return lhs != rhs;
    case dsl::CompareOp::kLt:
      return lhs < rhs;
    case dsl::CompareOp::kLe:
      return lhs < rhs || lhs == rhs;
    case dsl::CompareOp::kGt:
      return rhs < lhs;
    case dsl::CompareOp::kGe:
      return rhs < lhs || lhs == rhs;
  }
  return false;
}

Tuple ProjectHead(const std::vector<dsl::Term>& head_terms,
                  const std::map<std::string, int>& slots,
                  const std::vector<Value>& values) {
  Tuple out;
  out.reserve(head_terms.size());
  for (const dsl::Term& t : head_terms) {
    if (t.is_var()) {
      auto it = slots.find(t.var);
      DD_CHECK(it != slots.end()) << "unbound head variable " << t.var;
      out.push_back(values[it->second]);
    } else {
      out.push_back(t.constant);
    }
  }
  return out;
}

StatusOr<CompiledRuleBody> CompiledRuleBody::Compile(
    const dsl::Program& program, const Database& db, const std::vector<dsl::Atom>& body,
    const std::vector<dsl::Condition>& conditions) {
  CompiledRuleBody compiled;

  auto slot_for = [&](const std::string& var) {
    auto [it, inserted] =
        compiled.var_slots_.emplace(var, static_cast<int>(compiled.var_slots_.size()));
    (void)inserted;
    return it->second;
  };

  auto compile_term = [&](const dsl::Term& t) {
    TermPlan plan;
    plan.is_var = t.is_var();
    if (plan.is_var) {
      plan.slot = slot_for(t.var);
    } else {
      plan.constant = t.constant;
    }
    return plan;
  };

  for (const dsl::Atom& atom : body) {
    if (program.FindRelation(atom.predicate) == nullptr) {
      return Status::NotFound("undeclared predicate '" + atom.predicate + "'");
    }
    const Table* table = db.GetTable(atom.predicate);
    if (table == nullptr) {
      return Status::NotFound("no table for relation '" + atom.predicate + "'");
    }
    AtomPlan plan;
    plan.table = table;
    plan.relation = atom.predicate;
    plan.negated = atom.negated;
    for (const dsl::Term& t : atom.terms) plan.terms.push_back(compile_term(t));
    compiled.atoms_.push_back(std::move(plan));
  }
  // Move negated atoms after all positive ones so their variables are bound.
  auto first_negated =
      std::stable_partition(compiled.atoms_.begin(), compiled.atoms_.end(),
                            [](const AtomPlan& a) { return !a.negated; });
  compiled.num_positive_ = static_cast<size_t>(first_negated - compiled.atoms_.begin());

  for (const dsl::Condition& c : conditions) {
    CondPlan plan;
    plan.lhs = compile_term(c.lhs);
    plan.op = c.op;
    plan.rhs = compile_term(c.rhs);
    compiled.conditions_.push_back(std::move(plan));
  }
  return compiled;
}

bool CompiledRuleBody::MatchTuple(const AtomPlan& atom, const JoinStep& step,
                                  const Tuple& tuple, std::vector<Value>* values) const {
  if (tuple.size() != atom.terms.size()) return false;
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const TermPlan& t = atom.terms[i];
    if (!t.is_var) {
      if (!(tuple[i] == t.constant)) return false;
    } else if (step.binds[i]) {
      (*values)[t.slot] = tuple[i];
    } else if (!((*values)[t.slot] == tuple[i])) {
      return false;
    }
  }
  return true;
}

bool CompiledRuleBody::ConditionsHold(const std::vector<Value>& values) const {
  for (const CondPlan& c : conditions_) {
    const Value& lhs = c.lhs.is_var ? values[c.lhs.slot] : c.lhs.constant;
    const Value& rhs = c.rhs.is_var ? values[c.rhs.slot] : c.rhs.constant;
    if (!EvalCompare(c.op, lhs, rhs)) return false;
  }
  return true;
}

std::vector<CompiledRuleBody::JoinStep> CompiledRuleBody::PlanJoin(
    std::optional<size_t> start) const {
  std::vector<bool> bound(var_slots_.size(), false);
  std::vector<bool> placed(atoms_.size(), false);
  auto probe_col = [&](const AtomPlan& atom) {
    for (size_t i = 0; i < atom.terms.size(); ++i) {
      if (!atom.terms[i].is_var || bound[atom.terms[i].slot]) return static_cast<int>(i);
    }
    return -1;
  };

  std::vector<JoinStep> steps;
  steps.reserve(atoms_.size());
  auto place = [&](size_t a) {
    const AtomPlan& atom = atoms_[a];
    JoinStep step;
    step.atom = a;
    step.probe_col = probe_col(atom);
    step.binds.assign(atom.terms.size(), false);
    if (!atom.negated) {
      for (size_t i = 0; i < atom.terms.size(); ++i) {
        const TermPlan& t = atom.terms[i];
        if (t.is_var && !bound[t.slot]) {
          step.binds[i] = true;
          bound[t.slot] = true;
        }
      }
    }
    placed[a] = true;
    steps.push_back(std::move(step));
  };

  if (start.has_value()) place(*start);
  while (steps.size() < atoms_.size()) {
    size_t next = 0;
    while (placed[next]) ++next;
    if (start.has_value()) {
      for (size_t a = next; a < num_positive_; ++a) {
        if (!placed[a] && probe_col(atoms_[a]) >= 0) {
          next = a;
          break;
        }
      }
    }
    place(next);
  }
  return steps;
}

void CompiledRuleBody::Join(const std::vector<JoinStep>& steps, size_t depth,
                            int64_t sign, JoinState* state,
                            const BindingCallback& fn) const {
  if (depth == steps.size()) {
    if (ConditionsHold(state->values)) fn(state->values, sign);
    return;
  }
  const JoinStep& step = steps[depth];
  const AtomPlan& atom = atoms_[step.atom];

  if (atom.negated) {
    // All variables are bound (analyzer guarantees safety); negated atoms are
    // only allowed on unchanged relations in delta mode, so probe the table.
    Tuple probe;
    probe.reserve(atom.terms.size());
    for (const TermPlan& t : atom.terms) {
      probe.push_back(t.is_var ? state->values[t.slot] : t.constant);
    }
    if (!atom.table->Contains(probe)) Join(steps, depth + 1, sign, state, fn);
    return;
  }

  auto try_tuple = [&](const Tuple& tuple, uint64_t key, int64_t tuple_sign) {
    if (!MatchTuple(atom, step, tuple, &state->values)) return;
    state->keys[step.atom] = key;
    Join(steps, depth + 1, sign * tuple_sign, state, fn);
  };

  if (step.mode == AtomMode::kDelta) {
    DD_CHECK(step.delta != nullptr);
    uint64_t index = 0;
    step.delta->ForEach([&](const Tuple& tuple, int64_t count) {
      ++state->rows_visited;
      try_tuple(tuple, index++, count > 0 ? 1 : -1);
    });
    return;
  }

  // NEW or OLD rows, keyed by RowId. Table only appends row slots, so index
  // probes and scans both yield ascending ids.
  const bool old = step.mode == AtomMode::kOld;
  DD_CHECK(!old || step.delta != nullptr);
  Value probe_value;
  if (step.probe_col >= 0) {
    const TermPlan& t = atom.terms[step.probe_col];
    probe_value = t.is_var ? state->values[t.slot] : t.constant;
  }
  auto visit_row = [&](RowId id, const Tuple& tuple) {
    ++state->rows_visited;
    // OLD skips tuples that are NEW-only (just inserted).
    if (old && step.delta->Count(tuple) > 0) return;
    try_tuple(tuple, id, 1);
  };
  if (step.probe_col >= 0) {
    for (RowId id : atom.table->Lookup(step.probe_col, probe_value)) {
      if (id >= step.row_begin && id < step.row_end) visit_row(id, atom.table->row(id));
    }
  } else {
    atom.table->ScanRange(step.row_begin, step.row_end, visit_row);
  }

  if (old && step.delta->DeletionEntries() > 0) {
    // Add back just-deleted tuples (they were in OLD but are tombstoned now),
    // keyed after every row slot in ForEach order.
    uint64_t key = atom.table->RowSlots();
    step.delta->ForEach([&](const Tuple& tuple, int64_t count) {
      ++state->rows_visited;
      const uint64_t tuple_key = key++;
      if (count >= 0) return;
      if (step.probe_col >= 0 && !(tuple[step.probe_col] == probe_value)) return;
      try_tuple(tuple, tuple_key, 1);
    });
  }
}

void CompiledRuleBody::EvaluateFull(const BindingCallback& fn,
                                    uint64_t* rows_visited) const {
  JoinState state(var_slots_.size(), atoms_.size());
  Join(PlanJoin(std::nullopt), 0, 1, &state, fn);
  if (rows_visited != nullptr) *rows_visited += state.rows_visited;
}

bool CompiledRuleBody::DriverHasConstantTerm() const {
  if (!DriverShardable()) return false;
  for (const TermPlan& t : atoms_[0].terms) {
    if (!t.is_var) return true;
  }
  return false;
}

size_t CompiledRuleBody::FullDriverDomain() const {
  return DriverShardable() ? atoms_[0].table->RowSlots() : 0;
}

void CompiledRuleBody::EvaluateFullRange(size_t begin, size_t end,
                                         const BindingCallback& fn,
                                         uint64_t* rows_visited) const {
  DD_CHECK(DriverShardable());
  std::vector<JoinStep> steps = PlanJoin(std::nullopt);
  steps[0].row_begin = static_cast<RowId>(std::min(begin, FullDriverDomain()));
  steps[0].row_end = static_cast<RowId>(std::min(end, FullDriverDomain()));
  JoinState state(var_slots_.size(), atoms_.size());
  Join(steps, 0, 1, &state, fn);
  if (rows_visited != nullptr) *rows_visited += state.rows_visited;
}

Status CompiledRuleBody::CheckNegatedUnchanged(
    const std::function<bool(const std::string&)>& changed) const {
  for (size_t i = num_positive_; i < atoms_.size(); ++i) {
    if (changed(atoms_[i].relation)) {
      return Status::Unimplemented("delta evaluation with a changed negated relation '" +
                                   atoms_[i].relation + "'");
    }
  }
  return Status::OK();
}

Status CompiledRuleBody::EvaluateDelta(
    const std::map<std::string, const DeltaTable*>& deltas, const BindingCallback& fn,
    uint64_t* rows_visited) const {
  auto changed = [&](const std::string& relation) {
    auto it = deltas.find(relation);
    return it != deltas.end() && it->second != nullptr && !it->second->empty();
  };
  DD_RETURN_IF_ERROR(CheckNegatedUnchanged(changed));
  // Positions (atom indexes) on changed relations, in a fixed global order:
  // (relation name, atom index). Each term of the telescoping sum puts one
  // position in DELTA mode, earlier positions in NEW (current) mode, later
  // ones in OLD mode.
  std::vector<size_t> positions;
  for (const auto& [relation, delta] : deltas) {
    if (!changed(relation)) continue;
    for (size_t i = 0; i < num_positive_; ++i) {
      if (atoms_[i].relation == relation) positions.push_back(i);
    }
  }
  for (size_t term = 0; term < positions.size(); ++term) {
    std::vector<JoinStep> steps = PlanJoin(positions[term]);
    for (JoinStep& step : steps) {
      const size_t m =
          std::find(positions.begin(), positions.end(), step.atom) - positions.begin();
      if (m == term) {
        step.mode = AtomMode::kDelta;
      } else if (m > term && m < positions.size()) {
        step.mode = AtomMode::kOld;
      }
      if (step.mode != AtomMode::kCurrent) step.delta = deltas.at(atoms_[step.atom].relation);
    }
    EvaluateDeltaTerm(steps, fn, rows_visited);
  }
  return Status::OK();
}

void CompiledRuleBody::EvaluateDeltaTerm(const std::vector<JoinStep>& steps,
                                         const BindingCallback& fn,
                                         uint64_t* rows_visited) const {
  // Buffer each binding with its keys, flat: num_positive_ keys and
  // num_slots() values per binding.
  const size_t width = var_slots_.size();
  std::vector<uint64_t> keys;
  std::vector<Value> values;
  std::vector<int64_t> signs;
  JoinState state(width, atoms_.size());
  Join(steps, 0, 1, &state, [&](const std::vector<Value>& binding, int64_t sign) {
    keys.insert(keys.end(), state.keys.begin(), state.keys.begin() + num_positive_);
    values.insert(values.end(), binding.begin(), binding.end());
    signs.push_back(sign);
  });
  if (rows_visited != nullptr) *rows_visited += state.rows_visited;

  // Lexicographic key order is the declared-order nested loop's order: that
  // loop enumerates each atom's matches in ascending key order.
  std::vector<size_t> order(signs.size());
  for (size_t b = 0; b < order.size(); ++b) order[b] = b;
  auto key_of = [&](size_t b) { return keys.begin() + b * num_positive_; };
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::lexicographical_compare(key_of(a), key_of(a) + num_positive_, key_of(b),
                                        key_of(b) + num_positive_);
  });
  std::vector<Value> binding(width);
  for (size_t b : order) {
    std::move(values.begin() + b * width, values.begin() + (b + 1) * width,
              binding.begin());
    fn(binding, signs[b]);
  }
}

void CompiledRuleBody::PrewarmIndexes() const {
  for (const JoinStep& step : PlanJoin(std::nullopt)) {
    if (!atoms_[step.atom].negated && step.probe_col >= 0) {
      atoms_[step.atom].table->WarmColumnIndex(step.probe_col);
    }
  }
}

}  // namespace deepdive::engine
