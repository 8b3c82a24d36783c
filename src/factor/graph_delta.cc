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
  // Two separate GroupMods for one group would make DeltaLogDensityRatio
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

double DeltaLogDensityRatio(const FactorGraph& graph, const GraphDelta& delta,
                            const std::function<bool(VarId)>& value_of) {
  for (const GraphDelta::EvidenceChange& ec : delta.evidence_changes) {
    if (ec.new_value.has_value() && value_of(ec.var) != *ec.new_value) {
      return -std::numeric_limits<double>::infinity();
    }
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
  const auto sign = [&](const FactorGroup& g) { return value_of(g.head) ? 1.0 : -1.0; };
  // sign(head) * g(n) over the group's active clauses: n_Δ for a group of
  // Pr(Δ), and n_0 for a removed group whose clauses did not change.
  const auto feature = [&](GroupId gid) {
    const FactorGroup& g = graph.group(gid);
    return sign(g) * GCount(g.semantics, graph.SatisfiedClauses(gid, value_of));
  };

  // Each change is scored once, and the terms add up to each touched
  // group's sign * (w_now * g(n_Δ) [in Pr(Δ)] - w_0 * g(n_0) [in Pr(0)]):
  // a moved weight adds (w_now - w_0) * feature for every active group on
  // it, so a new group adds w_0 * feature and a removed one subtracts it;
  // a modified group replaces g(n_Δ) by g(n_0) in its w_0 term.
  double ratio = 0.0;
  for (const GraphDelta::WeightChange& wc : delta.weight_changes) {
    const double dw = graph.WeightValue(wc.weight) - wc.old_value;
    for (GroupId gid : graph.GroupsForWeight(wc.weight)) {
      if (graph.group(gid).active) ratio += dw * feature(gid);
    }
  }
  for (GroupId gid : delta.new_groups) {
    // A new group deactivated since is in neither distribution.
    const FactorGroup& g = graph.group(gid);
    if (g.active) ratio += weight0(g.weight) * feature(gid);
  }
  for (GroupId gid : delta.removed_groups) {
    ratio -= weight0(graph.group(gid).weight) * feature(gid);
  }
  const auto clause_satisfied = [&](ClauseId cid) {
    for (const Literal& lit : graph.clause(cid).literals) {
      if (value_of(lit.var) == lit.negated) return false;
    }
    return true;
  };
  for (const GraphDelta::GroupMod& mod : delta.modified_groups) {
    // n_0 removes the added clauses from n and restores the removed ones.
    const FactorGroup& g = graph.group(mod.group);
    const int64_t n = graph.SatisfiedClauses(mod.group, value_of);
    int64_t n0 = n;
    for (ClauseId cid : mod.added) n0 -= clause_satisfied(cid) ? 1 : 0;
    for (ClauseId cid : mod.removed) n0 += clause_satisfied(cid) ? 1 : 0;
    ratio += weight0(g.weight) * sign(g) *
             (GCount(g.semantics, n) - GCount(g.semantics, n0));
  }
  return ratio;
}

}  // namespace deepdive::factor
