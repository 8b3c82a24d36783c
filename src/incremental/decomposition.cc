#include "incremental/decomposition.h"

#include <algorithm>
#include <set>

#include "util/logging.h"

namespace deepdive::incremental {

using factor::FactorGraph;
using factor::VarId;

namespace {

/// Union of two sorted unique vectors.
std::vector<VarId> SortedUnion(const std::vector<VarId>& a, const std::vector<VarId>& b) {
  std::vector<VarId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

}  // namespace

std::vector<DecompositionGroup> DecomposeWithInactive(const FactorGraph& graph,
                                                      const std::vector<bool>& is_active) {
  const size_t n = graph.NumVariables();
  DD_CHECK_EQ(is_active.size(), n);

  // Line 1: connected components among inactive variables (edges through
  // active variables do not connect).
  std::vector<int> component(n, -1);
  int num_components = 0;
  std::vector<VarId> stack;
  for (VarId start = 0; start < n; ++start) {
    if (is_active[start] || component[start] >= 0) continue;
    const int c = num_components++;
    component[start] = c;
    stack.push_back(start);
    while (!stack.empty()) {
      const VarId v = stack.back();
      stack.pop_back();
      for (VarId u : graph.Neighbors(v)) {
        if (is_active[u] || component[u] >= 0) continue;
        component[u] = c;
        stack.push_back(u);
      }
    }
  }

  // Line 2: per-component inactive sets and minimal active boundaries.
  std::vector<DecompositionGroup> groups(num_components);
  for (VarId v = 0; v < n; ++v) {
    if (component[v] >= 0) groups[component[v]].inactive.push_back(v);
  }
  for (DecompositionGroup& g : groups) {
    std::set<VarId> boundary;
    for (VarId v : g.inactive) {
      for (VarId u : graph.Neighbors(v)) {
        if (is_active[u]) boundary.insert(u);
      }
    }
    g.active.assign(boundary.begin(), boundary.end());
  }

  // Lines 4-6: greedily merge pairs whose active sets nest, i.e.
  // |A_j ∪ A_k| == max(|A_j|, |A_k|). Repeat until no pair merges.
  bool merged = true;
  while (merged) {
    merged = false;
    for (size_t j = 0; j < groups.size() && !merged; ++j) {
      for (size_t k = j + 1; k < groups.size() && !merged; ++k) {
        const std::vector<VarId> u = SortedUnion(groups[j].active, groups[k].active);
        // Merge only when boundaries nest *and* sharing is real — merging
        // groups with no active boundary would fuse independent components
        // for no materialization saving.
        if (u.empty()) continue;
        if (u.size() == std::max(groups[j].active.size(), groups[k].active.size())) {
          groups[j].inactive.insert(groups[j].inactive.end(), groups[k].inactive.begin(),
                                    groups[k].inactive.end());
          std::sort(groups[j].inactive.begin(), groups[j].inactive.end());
          groups[j].active = u;
          groups.erase(groups.begin() + static_cast<ptrdiff_t>(k));
          merged = true;
        }
      }
    }
  }
  return groups;
}

std::vector<std::vector<VarId>> ConnectedComponents(const FactorGraph& graph) {
  // The walk of FactorGraph::Neighbors without its per-variable vectors: a
  // variable reaches every member of each active group it heads or has a
  // body ref into (an inactive clause's ref included). Once a group has been
  // expanded every member has a component, so each is expanded at most once.
  const size_t n = graph.NumVariables();
  std::vector<int> component(n, -1);
  std::vector<bool> expanded(graph.NumGroups(), false);
  int num_components = 0;
  int current = -1;
  std::vector<VarId> stack;
  auto reach = [&](VarId u) {
    if (component[u] >= 0) return;
    component[u] = current;
    stack.push_back(u);
  };
  auto expand = [&](factor::GroupId gid) {
    const factor::FactorGroup& group = graph.group(gid);
    if (!group.active || expanded[gid]) return;
    expanded[gid] = true;
    reach(group.head);
    for (factor::ClauseId cid : group.clauses) {
      const factor::Clause& clause = graph.clause(cid);
      if (!clause.active) continue;
      for (const factor::Literal& lit : clause.literals) reach(lit.var);
    }
  };
  for (VarId start = 0; start < n; ++start) {
    if (component[start] >= 0) continue;
    current = num_components++;
    reach(start);
    while (!stack.empty()) {
      const VarId v = stack.back();
      stack.pop_back();
      for (factor::GroupId gid : graph.HeadGroups(v)) expand(gid);
      for (const factor::BodyRef& ref : graph.BodyRefs(v)) {
        expand(graph.clause(ref.clause).group);
      }
    }
  }
  std::vector<std::vector<VarId>> out(num_components);
  for (VarId v = 0; v < n; ++v) out[component[v]].push_back(v);
  return out;
}

std::vector<std::vector<VarId>> ConnectedComponents(const factor::CompiledGraph& graph,
                                                    const std::vector<VarId>& among) {
  // The walk above on the image, where every group is active: -2 marks a
  // variable outside `among`, -1 one not reached yet.
  std::vector<int> component(graph.NumVariables(), -2);
  for (VarId v : among) component[v] = -1;
  std::vector<bool> expanded(graph.NumGroups(), false);
  int num_components = 0;
  int current = -1;
  std::vector<VarId> stack;
  auto reach = [&](VarId u) {
    if (component[u] != -1) return;
    component[u] = current;
    stack.push_back(u);
  };
  auto expand = [&](factor::GroupId gid) {
    if (expanded[gid]) return;
    expanded[gid] = true;
    reach(graph.group(gid).head);
    for (factor::ClauseId cid : graph.GroupClauses(gid)) {
      for (const factor::CompiledLiteral& lit : graph.ClauseLiterals(cid)) reach(lit.var);
    }
  };
  for (VarId start : among) {
    if (component[start] != -1) continue;
    current = num_components++;
    reach(start);
    while (!stack.empty()) {
      const VarId v = stack.back();
      stack.pop_back();
      for (factor::GroupId gid : graph.HeadGroups(v)) expand(gid);
      for (const factor::CompiledBodyRef& ref : graph.BodyRefs(v)) {
        expand(graph.ClauseGroup(ref.clause));
      }
    }
  }
  std::vector<std::vector<VarId>> out(num_components);
  for (VarId v : among) out[component[v]].push_back(v);
  return out;
}

}  // namespace deepdive::incremental
