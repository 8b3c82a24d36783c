#ifndef DEEPDIVE_INCREMENTAL_VARIATIONAL_H_
#define DEEPDIVE_INCREMENTAL_VARIATIONAL_H_

#include <cstdint>
#include <vector>

#include "factor/compiled_graph.h"
#include "factor/factor_graph.h"
#include "factor/graph_delta.h"
#include "util/status.h"

namespace deepdive::incremental {

struct VariationalOptions {
  /// N of Algorithm 1: Gibbs samples for covariance estimation.
  size_t num_samples = 200;
  /// λ: the regularization/sparsification parameter. Larger -> sparser
  /// approximate graph, faster inference, worse approximation (Figure 6).
  double lambda = 0.1;
  size_t gibbs_burn_in = 50;
  size_t gibbs_thin = 1;
  /// Weight-fitting epochs (maximum-likelihood projection onto the sparse
  /// pairwise family; stands in for the log-det solve, see DESIGN.md §4.3).
  size_t fit_epochs = 60;
  double fit_learning_rate = 0.25;
  double fit_decay = 0.96;
  uint64_t seed = 23;
};

/// The variational approach (Section 3.2.3 / Algorithm 1): replace the
/// materialized distribution with a *sparser* pairwise factor graph.
///
/// Materialization: (1) draw N samples from the original graph; (2) estimate
/// spin covariances restricted to NZ (pairs co-occurring in some factor);
/// (3) select the edges whose |covariance| exceeds λ — the sparsity-inducing
/// extreme point of Algorithm 1's box constraint |X_kj - M_kj| <= λ; (4) fit
/// unary and pairwise weights by maximum likelihood against the samples
/// (standard learning already in the engine, as the paper notes). The exact
/// log-det interior-point solve is substituted per DESIGN.md §4.3; the λ ->
/// sparsity -> speed/quality tradeoff it exposes is preserved.
///
/// Inference: append the update's delta factors to the approximate graph and
/// run Gibbs on the (much sparser) result. The approximation is built and fit
/// as a compiled image; each update splices its delta onto that image
/// (BuildVariationalInferenceImage).
class VariationalMaterialization {
 public:
  struct EdgeStat {
    factor::VarId a = 0;
    factor::VarId b = 0;
    double covariance = 0.0;
  };

  /// Materializes `graph`. `image` is CompiledGraph::Compile(graph), which
  /// the N samples are drawn from on `num_threads` workers (1 = sequential
  /// and deterministic); NZ pairs come from `graph`'s neighbors.
  static StatusOr<VariationalMaterialization> Materialize(
      const factor::FactorGraph& graph, const factor::CompiledGraph& image,
      const VariationalOptions& options, size_t num_threads = 1);

  /// The sparse pairwise approximation's CSR image (same variable ids as
  /// the original; one clause per group, in group order), built and fit in
  /// Materialize (on the background worker when a remat is async).
  /// Immutable after Materialize.
  const factor::CompiledGraph& compiled_approx() const { return compiled_approx_; }

  size_t NumEdges() const { return num_edges_; }
  size_t NumNzPairs() const { return num_nz_pairs_; }

  /// All NZ-pair covariances (before thresholding); exposed for tests and
  /// for the λ search protocol. Immutable after Materialize.
  const std::vector<EdgeStat>& edge_stats() const { return edge_stats_; }

 private:
  factor::CompiledGraph compiled_approx_;
  std::vector<EdgeStat> edge_stats_;
  size_t num_edges_ = 0;
  size_t num_nz_pairs_ = 0;
};

/// The CSR image the variational path samples for `delta`: the compiled
/// approximation with, spliced after it (CompiledGraph::Splice), the delta's
/// active new groups in order with their active clauses, then each active
/// modified group's added clauses as one group, their weights copied from
/// `original` in first-use order at its current values, and the evidence
/// changes applied in order. Variable ids are shared with `original`.
/// Removed original factors are already absorbed into the approximation and
/// cannot be subtracted — the inherent approximation of this approach.
factor::CompiledGraph BuildVariationalInferenceImage(
    const factor::FactorGraph& original,
    const VariationalMaterialization& materialization,
    const factor::GraphDelta& delta);

/// The λ search protocol of Section 3.2.3: starting from λ = lambda_min,
/// multiply by 10 until the symmetric KL divergence between original and
/// approximate marginals exceeds `kl_threshold`; returns the last safe λ.
/// Sampling runs on `num_threads` workers. InvalidArgument when lambda_min is
/// not positive and finite, or when `reference_marginals` has fewer entries
/// than `graph` has variables.
StatusOr<double> SearchLambda(const factor::FactorGraph& graph,
                              const VariationalOptions& base_options, double lambda_min,
                              double kl_threshold,
                              const std::vector<double>& reference_marginals,
                              size_t num_threads = 1);

}  // namespace deepdive::incremental

#endif  // DEEPDIVE_INCREMENTAL_VARIATIONAL_H_
