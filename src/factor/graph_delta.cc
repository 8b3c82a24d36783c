#include "factor/graph_delta.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "factor/semantics.h"

namespace deepdive::factor {

namespace {

/// Folds `later` into the net list `net` (one entry per id, sorted by id):
/// an id keeps its first old value and takes its last new value, and an
/// entry whose two values are equal is dropped. A stable sort keeps each
/// id's changes in the order they happened.
template <typename Change, typename Id>
void MergeNet(std::vector<Change>* net, const std::vector<Change>& later,
              Id Change::*id) {
  if (later.empty()) return;
  std::vector<Change> incoming = later;
  std::stable_sort(incoming.begin(), incoming.end(),
                   [id](const Change& a, const Change& b) { return a.*id < b.*id; });
  std::vector<Change> merged;
  merged.reserve(net->size() + incoming.size());
  auto mine = net->begin();
  for (auto it = incoming.begin(); it != incoming.end();) {
    while (mine != net->end() && (*mine).*id < (*it).*id) merged.push_back(*mine++);
    Change entry = mine != net->end() && (*mine).*id == (*it).*id ? *mine++ : *it;
    for (; it != incoming.end() && (*it).*id == entry.*id; ++it) {
      entry.new_value = it->new_value;
    }
    if (entry.old_value != entry.new_value) merged.push_back(entry);
  }
  merged.insert(merged.end(), mine, net->end());
  *net = std::move(merged);
}

}  // namespace

void GraphDelta::Merge(const GraphDelta& other) {
  new_variables.insert(new_variables.end(), other.new_variables.begin(),
                       other.new_variables.end());
  new_groups.insert(new_groups.end(), other.new_groups.begin(), other.new_groups.end());
  // Hash-index the accumulated new groups once per merge (only when `other`
  // actually needs the lookups): the cumulative delta grows monotonically
  // across updates, so per-entry linear scans would make the engine's
  // running merge quadratic.
  std::unordered_set<GroupId> new_set;
  if (!other.removed_groups.empty() || !other.modified_groups.empty()) {
    new_set.insert(new_groups.begin(), new_groups.end());
  }
  // Coalesce clause-set modifications so each group appears at most once.
  // Two separate GroupMods for one group would make DeltaRatio
  // reconstruct two *independent* Pr(0) counts from n_new, which is wrong
  // for non-linear semantics; and a clause added in one window and removed
  // in a later one never existed in Pr(0), so the pair cancels. Mods on
  // groups new within the merged window are dropped entirely: the new-group
  // term already evaluates the group's current clause set. They are matched
  // before the removals below cancel groups out of `new_set`, so a mod on a
  // group `other` both modifies and cancels is dropped too.
  if (!other.modified_groups.empty()) {
    std::unordered_map<GroupId, size_t> mod_index;
    mod_index.reserve(modified_groups.size());
    for (size_t i = 0; i < modified_groups.size(); ++i) {
      mod_index.emplace(modified_groups[i].group, i);
    }
    for (const GroupMod& mod : other.modified_groups) {
      if (new_set.count(mod.group) > 0) continue;
      auto [mit, inserted] = mod_index.emplace(mod.group, modified_groups.size());
      if (inserted) {
        modified_groups.push_back(mod);
        continue;
      }
      GroupMod& mine = modified_groups[mit->second];
      for (ClauseId added : mod.added) mine.added.push_back(added);
      for (ClauseId removed : mod.removed) {
        auto ait = std::find(mine.added.begin(), mine.added.end(), removed);
        if (ait != mine.added.end()) {
          mine.added.erase(ait);
        } else {
          mine.removed.push_back(removed);
        }
      }
    }
    // A mod whose additions and removals fully cancelled is a net no-op:
    // the group's clause set matches its pre-window state, so drop it.
    modified_groups.erase(
        std::remove_if(modified_groups.begin(), modified_groups.end(),
                       [](const GroupMod& m) {
                         return m.added.empty() && m.removed.empty();
                       }),
        modified_groups.end());
  }
  // A group that was introduced and later removed within the merged window
  // never existed in the materialized distribution: cancel the pair instead
  // of recording a removal (which would wrongly subtract it from Pr(0)).
  size_t cancelled = 0;
  for (GroupId removed : other.removed_groups) {
    if (new_set.erase(removed) > 0) {
      ++cancelled;
    } else {
      removed_groups.push_back(removed);
    }
  }
  // Cancelled ids are exactly those no longer in new_set; drop them in one
  // stable pass (erasing each in turn would make retracting k groups
  // against n accumulated ones cost O(n k)).
  if (cancelled > 0) {
    new_groups.erase(std::remove_if(new_groups.begin(), new_groups.end(),
                                    [&](GroupId g) { return new_set.count(g) == 0; }),
                     new_groups.end());
  }
  MergeNet(&weight_changes, other.weight_changes, &WeightChange::weight);
  MergeNet(&evidence_changes, other.evidence_changes, &EvidenceChange::var);
}

DeltaRatio::DeltaRatio(const FactorGraph& graph, const GraphDelta& delta) {
  for (const GraphDelta::EvidenceChange& ec : delta.evidence_changes) {
    if (ec.new_value.has_value()) labels_.push_back({ec.var, *ec.new_value});
  }
  // w_0: the weight's Pr(0) value, found by binary search in the sorted
  // entries; a weight without an entry has not moved.
  const auto weight0 = [&](WeightId w) {
    const auto it = std::lower_bound(
        delta.weight_changes.begin(), delta.weight_changes.end(), w,
        [](const GraphDelta::WeightChange& c, WeightId id) { return c.weight < id; });
    return it != delta.weight_changes.end() && it->weight == w ? it->old_value
                                                               : graph.WeightValue(w);
  };
  clause_starts_.push_back(0);
  const auto add_clause = [&](ClauseId cid) {
    const std::vector<Literal>& literals = graph.clause(cid).literals;
    literals_.insert(literals_.end(), literals.begin(), literals.end());
    clause_starts_.push_back(literals_.size());
  };
  // Opens a term on the group's active clauses, the ones SatisfiedClauses
  // counts; false for a zero coefficient, which gets no term.
  const auto add_term = [&](GroupId gid, double coef) {
    if (coef == 0.0) return false;
    const FactorGroup& g = graph.group(gid);
    Term term{g.head, g.semantics, coef};
    term.active_begin = clause_starts_.size() - 1;
    for (ClauseId cid : g.clauses) {
      if (graph.clause(cid).active) add_clause(cid);
    }
    term.added_begin = term.removed_begin = term.removed_end = clause_starts_.size() - 1;
    terms_.push_back(term);
    return true;
  };

  // Each change is scored once, and the terms add up to each touched
  // group's sign * (w_now * g(n_Δ) [in Pr(Δ)] - w_0 * g(n_0) [in Pr(0)]):
  // a moved weight adds (w_now - w_0) * feature for every active group on
  // it, so a new group adds w_0 * feature and a removed one subtracts it;
  // a modified group replaces g(n_Δ) by g(n_0) in its w_0 term.
  for (const GraphDelta::WeightChange& wc : delta.weight_changes) {
    const double dw = graph.WeightValue(wc.weight) - wc.old_value;
    for (GroupId gid : graph.GroupsForWeight(wc.weight)) {
      if (graph.group(gid).active) add_term(gid, dw);
    }
  }
  for (GroupId gid : delta.new_groups) {
    // A new group deactivated since is in neither distribution.
    const FactorGroup& g = graph.group(gid);
    if (g.active) add_term(gid, weight0(g.weight));
  }
  removed_begin_ = terms_.size();
  for (GroupId gid : delta.removed_groups) {
    add_term(gid, weight0(graph.group(gid).weight));
  }
  modified_begin_ = terms_.size();
  for (const GraphDelta::GroupMod& mod : delta.modified_groups) {
    if (!add_term(mod.group, weight0(graph.group(mod.group).weight))) continue;
    for (ClauseId cid : mod.added) add_clause(cid);
    terms_.back().removed_begin = clause_starts_.size() - 1;
    for (ClauseId cid : mod.removed) add_clause(cid);
    terms_.back().removed_end = clause_starts_.size() - 1;
  }
}

int64_t DeltaRatio::SatisfiedClauses(size_t begin, size_t end,
                                     const BitVector& world) const {
  int64_t n = 0;
  for (size_t c = begin; c < end; ++c) {
    bool satisfied = true;
    for (size_t l = clause_starts_[c]; l < clause_starts_[c + 1]; ++l) {
      satisfied &= world.Get(literals_[l].var) != literals_[l].negated;
    }
    n += satisfied ? 1 : 0;
  }
  return n;
}

double DeltaRatio::operator()(const BitVector& world) const {
  for (const Label& label : labels_) {
    if (world.Get(label.var) != label.value) {
      return -std::numeric_limits<double>::infinity();
    }
  }
  // sign(head), exactly ±1, without a branch on an unpredictable bit.
  const auto sign = [&](const Term& t) { return 2.0 * world.Get(t.head) - 1.0; };
  const auto feature = [&](const Term& t) {
    const int64_t n = SatisfiedClauses(t.active_begin, t.added_begin, world);
    return sign(t) * GCount(t.semantics, n);
  };
  double ratio = 0.0;
  size_t i = 0;
  for (; i < removed_begin_; ++i) ratio += terms_[i].coef * feature(terms_[i]);
  for (; i < modified_begin_; ++i) ratio -= terms_[i].coef * feature(terms_[i]);
  for (; i < terms_.size(); ++i) {
    // n_0 removes the added clauses from n and restores the removed ones.
    const Term& t = terms_[i];
    const int64_t n = SatisfiedClauses(t.active_begin, t.added_begin, world);
    const int64_t n0 = n - SatisfiedClauses(t.added_begin, t.removed_begin, world) +
                       SatisfiedClauses(t.removed_begin, t.removed_end, world);
    ratio += t.coef * sign(t) * (GCount(t.semantics, n) - GCount(t.semantics, n0));
  }
  return ratio;
}

}  // namespace deepdive::factor
