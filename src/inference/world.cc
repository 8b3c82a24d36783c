#include "inference/world.h"

#include "util/logging.h"

namespace deepdive::inference {

using factor::ClauseId;
using factor::GroupId;
using factor::VarId;
using factor::WeightId;

World::World(const factor::CompiledGraph* graph) : graph_(graph) {
  values_.assign(graph_->NumVariables(), 0);
  InitEvidence();
  RecomputeStats();
}

void World::InitEvidence() {
  for (VarId v = 0; v < values_.size(); ++v) {
    const auto ev = graph_->EvidenceValue(v);
    if (ev.has_value()) values_[v] = *ev ? 1 : 0;
  }
}

void World::Flip(VarId v, bool new_value) {
  if (value(v) == new_value) return;
  values_[v] = new_value ? 1 : 0;
  for (const auto& ref : graph_->BodyRefs(v)) {
    const bool lit_true_now = (new_value != static_cast<bool>(ref.negated));
    const GroupId g = graph_->ClauseGroup(ref.clause);
    if (lit_true_now) {
      if (--clause_unsat_[ref.clause] == 0) ++group_sat_[g];
    } else {
      if (clause_unsat_[ref.clause]++ == 0) --group_sat_[g];
    }
  }
}

void World::InitValues(Rng* rng, bool random_init) {
  for (VarId v = 0; v < values_.size(); ++v) {
    const auto ev = graph_->EvidenceValue(v);
    if (ev.has_value()) {
      values_[v] = *ev ? 1 : 0;
    } else {
      values_[v] = (random_init && rng != nullptr && rng->Bernoulli(0.5)) ? 1 : 0;
    }
  }
  RecomputeStats();
}

void World::LoadBits(const BitVector& bits) {
  DD_CHECK_EQ(bits.size(), values_.size());
  for (VarId v = 0; v < values_.size(); ++v) values_[v] = bits.Get(v) ? 1 : 0;
  InitEvidence();
  RecomputeStats();
}

void World::LoadBitsPrefix(const BitVector& bits, bool fill, bool apply_evidence) {
  DD_CHECK_LE(bits.size(), values_.size());
  for (VarId v = 0; v < values_.size(); ++v) {
    values_[v] = v < bits.size() ? (bits.Get(v) ? 1 : 0) : (fill ? 1 : 0);
  }
  if (apply_evidence) InitEvidence();
  RecomputeStats();
}

BitVector World::ToBits() const {
  BitVector bits(values_.size());
  for (VarId v = 0; v < values_.size(); ++v) bits.Set(v, values_[v] != 0);
  return bits;
}

void World::RecomputeStats() {
  clause_unsat_.assign(graph_->NumClauses(), 0);
  group_sat_.assign(graph_->NumGroups(), 0);
  for (ClauseId c = 0; c < graph_->NumClauses(); ++c) {
    int32_t unsat = 0;
    for (const auto& lit : graph_->ClauseLiterals(c)) {
      if (value(lit.var) == static_cast<bool>(lit.negated)) ++unsat;
    }
    clause_unsat_[c] = unsat;
    if (unsat == 0) ++group_sat_[graph_->ClauseGroup(c)];
  }
}

double World::GroupLogWeight(GroupId g) const {
  const auto& group = graph_->group(g);
  const double sign = value(group.head) ? 1.0 : -1.0;
  return graph_->WeightValue(group.weight) * sign *
         factor::GCount(group.semantics, group_sat_[g]);
}

double World::TotalLogWeight() const {
  double total = 0.0;
  for (GroupId g = 0; g < graph_->NumGroups(); ++g) total += GroupLogWeight(g);
  return total;
}

double World::WeightFeature(WeightId weight) const {
  double f = 0.0;
  for (GroupId g : graph_->GroupsForWeight(weight)) {
    const auto& group = graph_->group(g);
    const double sign = value(group.head) ? 1.0 : -1.0;
    f += sign * factor::GCount(group.semantics, group_sat_[g]);
  }
  return f;
}

}  // namespace deepdive::inference
