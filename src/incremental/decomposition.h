#ifndef DEEPDIVE_INCREMENTAL_DECOMPOSITION_H_
#define DEEPDIVE_INCREMENTAL_DECOMPOSITION_H_

#include <vector>

#include "factor/compiled_graph.h"
#include "factor/factor_graph.h"

namespace deepdive::incremental {

/// One materialization unit of Algorithm 2 (Appendix B.1): a set of inactive
/// variables that is conditionally independent of all other inactive
/// variables given its active boundary.
struct DecompositionGroup {
  std::vector<factor::VarId> inactive;
  std::vector<factor::VarId> active;  // minimal conditioning set
};

/// Algorithm 2: (1) connected components of the factor graph restricted to
/// inactive variables (active variables cut the graph); (2) each component's
/// minimal active boundary; (3) greedy merge of pairs whose boundaries nest
/// (|A_j ∪ A_k| == max(|A_j|, |A_k|)), so shared active variables are not
/// materialized twice.
std::vector<DecompositionGroup> DecomposeWithInactive(
    const factor::FactorGraph& graph, const std::vector<bool>& is_active);

/// Connected components of the whole graph (every variable "inactive").
/// Used by the engine to confine re-inference to components touched by a
/// delta; untouched components keep their materialized marginals exactly.
std::vector<std::vector<factor::VarId>> ConnectedComponents(
    const factor::FactorGraph& graph);

/// Connected components of `graph` restricted to the distinct variables
/// `among`: a group joins its members (head and clause literals) that are in
/// `among`, and every other variable, held fixed, cuts. Components are
/// numbered, and their members listed, in the order of `among`.
std::vector<std::vector<factor::VarId>> ConnectedComponents(
    const factor::CompiledGraph& graph, const std::vector<factor::VarId>& among);

}  // namespace deepdive::incremental

#endif  // DEEPDIVE_INCREMENTAL_DECOMPOSITION_H_
