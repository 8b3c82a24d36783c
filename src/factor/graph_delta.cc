#include "factor/graph_delta.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "factor/semantics.h"
#include "util/logging.h"

namespace deepdive::factor {

void GraphDelta::Merge(const GraphDelta& other) {
  new_variables.insert(new_variables.end(), other.new_variables.begin(),
                       other.new_variables.end());
  new_groups.insert(new_groups.end(), other.new_groups.begin(), other.new_groups.end());
  // A group that was introduced and later removed within the merged window
  // never existed in the materialized distribution: cancel the pair instead
  // of recording a removal (which would wrongly subtract it from Pr(0)).
  // Hash-index the accumulated state once per merge (only when `other`
  // actually needs the lookups): the cumulative delta grows monotonically
  // across updates, so per-entry linear scans would make the engine's
  // running merge quadratic.
  std::unordered_set<GroupId> new_set;
  if (!other.removed_groups.empty() || !other.modified_groups.empty()) {
    new_set.insert(new_groups.begin(), new_groups.end());
  }
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
  // Coalesce clause-set modifications so each group appears at most once.
  // Two separate GroupMods for one group would make DeltaLogDensityRatio
  // reconstruct two *independent* Pr(0) counts from n_new, which is wrong
  // for non-linear semantics; and a clause added in one window and removed
  // in a later one never existed in Pr(0), so the pair cancels. Mods on
  // groups new within the merged window are dropped entirely: the new-group
  // term already evaluates the group's current clause set.
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
  weight_changes.insert(weight_changes.end(), other.weight_changes.begin(),
                        other.weight_changes.end());
  evidence_changes.insert(evidence_changes.end(), other.evidence_changes.begin(),
                          other.evidence_changes.end());
}

void GraphDelta::Truncate(const Extent& extent) {
  const auto cut = [](auto& list, size_t size) {
    DD_CHECK_LE(size, list.size());
    list.resize(size);
  };
  cut(new_variables, extent.new_variables);
  cut(new_groups, extent.new_groups);
  cut(removed_groups, extent.removed_groups);
  cut(modified_groups, extent.modified_groups);
  cut(weight_changes, extent.weight_changes);
  cut(evidence_changes, extent.evidence_changes);
}

double DeltaLogDensityRatio(const FactorGraph& graph, const GraphDelta& delta,
                            const std::function<bool(VarId)>& value_of) {
  // New evidence constrains Pr(Δ)'s support.
  for (const GraphDelta::EvidenceChange& ec : delta.evidence_changes) {
    if (ec.new_value.has_value() && value_of(ec.var) != *ec.new_value) {
      return -std::numeric_limits<double>::infinity();
    }
  }

  double ratio = 0.0;
  for (GroupId gid : delta.new_groups) {
    // New groups exist only in Pr(Δ). GroupLogWeight skips inactive groups,
    // so evaluate directly even if the group was since deactivated.
    ratio += graph.GroupLogWeight(gid, value_of);
  }
  for (GroupId gid : delta.removed_groups) {
    // Removed groups existed only in Pr(0); they are deactivated in the
    // graph, so recompute their weight manually.
    const FactorGroup& g = graph.group(gid);
    const double sign = value_of(g.head) ? 1.0 : -1.0;
    const double w = graph.WeightValue(g.weight);
    ratio -= w * sign * GCount(g.semantics, graph.SatisfiedClauses(gid, value_of));
  }
  for (const GraphDelta::GroupMod& mod : delta.modified_groups) {
    const FactorGroup& g = graph.group(mod.group);
    const double sign = value_of(g.head) ? 1.0 : -1.0;
    const double w = graph.WeightValue(g.weight);
    auto clause_satisfied = [&](ClauseId cid) {
      for (const Literal& lit : graph.clause(cid).literals) {
        if (value_of(lit.var) == lit.negated) return false;
      }
      return true;
    };
    // n under Pr(Δ) = current active satisfied count; n under Pr(0) removes
    // the added clauses and restores the removed ones.
    const int64_t n_new = graph.SatisfiedClauses(mod.group, value_of);
    int64_t n_old = n_new;
    for (ClauseId cid : mod.added) {
      if (clause_satisfied(cid)) --n_old;
    }
    for (ClauseId cid : mod.removed) {
      if (clause_satisfied(cid)) ++n_old;
    }
    ratio += w * sign *
             (GCount(g.semantics, n_new) - GCount(g.semantics, n_old));
  }
  for (const GraphDelta::WeightChange& wc : delta.weight_changes) {
    const double dw = wc.new_value - wc.old_value;
    if (dw == 0.0) continue;
    for (GroupId gid : graph.GroupsForWeight(wc.weight)) {
      const FactorGroup& g = graph.group(gid);
      if (!g.active) continue;
      const double sign = value_of(g.head) ? 1.0 : -1.0;
      ratio += dw * sign * GCount(g.semantics, graph.SatisfiedClauses(gid, value_of));
    }
  }
  return ratio;
}

}  // namespace deepdive::factor
