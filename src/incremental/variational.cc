#include "incremental/variational.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "inference/gibbs.h"
#include "inference/parallel_gibbs.h"
#include "inference/world.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace deepdive::incremental {

using factor::FactorGraph;
using factor::GraphDelta;
using factor::GroupId;
using factor::Literal;
using factor::VarId;
using factor::WeightId;

StatusOr<VariationalMaterialization> VariationalMaterialization::Materialize(
    const FactorGraph& graph, const factor::CompiledGraph& image,
    const VariationalOptions& options, size_t num_threads) {
  VariationalMaterialization m;
  const size_t n = graph.NumVariables();

  // 1. Draw N samples from the original graph (Algorithm 1, line 1).
  if (options.num_samples == 0) return Status::InvalidArgument("num_samples must be > 0");
  inference::GibbsOptions gopts;
  gopts.burn_in_sweeps = options.gibbs_burn_in;
  gopts.seed = options.seed;
  std::vector<BitVector> samples;
  samples.reserve(options.num_samples);
  inference::ParallelGibbsSampler(&image, num_threads)
      .SampleChain(gopts, options.num_samples, options.gibbs_thin,
                   [&](const BitVector& bits) {
                     samples.push_back(bits);
                     return true;
                   });

  // 2. NZ pairs: variables co-occurring in some factor (line 2), and spin
  //    means/covariances over the samples (line 3).
  std::vector<double> mean(n, 0.0);  // E[s], s = 2x - 1
  for (const BitVector& s : samples) {
    for (VarId v = 0; v < n; ++v) mean[v] += s.Get(v) ? 1.0 : -1.0;
  }
  for (VarId v = 0; v < n; ++v) mean[v] /= static_cast<double>(samples.size());

  std::set<std::pair<VarId, VarId>> nz;
  for (VarId v = 0; v < n; ++v) {
    for (VarId u : graph.Neighbors(v)) {
      if (u > v) nz.emplace(v, u);
    }
  }
  m.num_nz_pairs_ = nz.size();

  for (const auto& [a, b] : nz) {
    double e_ab = 0.0;
    for (const BitVector& s : samples) {
      const double sa = s.Get(a) ? 1.0 : -1.0;
      const double sb = s.Get(b) ? 1.0 : -1.0;
      e_ab += sa * sb;
    }
    e_ab /= static_cast<double>(samples.size());
    m.edge_stats_.push_back(EdgeStat{a, b, e_ab - mean[a] * mean[b]});
  }

  // 3. The sparse pairwise skeleton (lines 4-7), spliced onto an empty
  //    image: weight v and group v are the unary bias of variable v, then
  //    each surviving edge gets one weight tied across a symmetric pair of
  //    groups; every group holds one clause.
  std::vector<std::string> descriptions;  // outlive the Splice below
  for (VarId v = 0; v < n; ++v) descriptions.push_back(StrFormat("vh/%u", v));
  std::vector<const EdgeStat*> edges;
  for (const EdgeStat& e : m.edge_stats_) {
    if (std::abs(e.covariance) <= options.lambda) continue;
    edges.push_back(&e);
    descriptions.push_back(StrFormat("vJ/%u-%u", e.a, e.b));
  }
  m.num_edges_ = edges.size();
  factor::CompiledAppendix skeleton;
  skeleton.num_variables = n;
  for (VarId v = 0; v < n; ++v) {
    const auto ev = graph.EvidenceValue(v);
    if (ev.has_value()) skeleton.evidence.emplace_back(v, ev);
  }
  for (const std::string& description : descriptions) {
    skeleton.weights.push_back({0.0, /*learnable=*/true, description});
  }
  for (VarId v = 0; v < n; ++v) {
    skeleton.AddGroup({v, v});
    skeleton.AddClause({});  // empty clause: bias on sign(v)
  }
  for (size_t i = 0; i < edges.size(); ++i) {
    const auto w = static_cast<WeightId>(n + i);
    // Symmetric interaction: w * (sign(a) 1{b} + sign(b) 1{a}).
    skeleton.AddGroup({edges[i]->a, w});
    skeleton.AddClause({Literal{edges[i]->b, false}});
    skeleton.AddGroup({edges[i]->b, w});
    skeleton.AddClause({Literal{edges[i]->a, false}});
  }
  factor::CompiledGraph& ag = m.compiled_approx_;
  ag = factor::CompiledGraph::Splice(factor::CompiledGraph::Compile(FactorGraph()),
                                     skeleton);

  // 4. Fit weights by maximum likelihood against the drawn samples:
  //    gradient(w) = E_samples[f_w] - E_model[f_w]. The fit writes the
  //    image's owned weight values, which Splice, Checksum() and
  //    SaveCompiledGraph read.
  std::vector<double> empirical(ag.NumWeights(), 0.0);
  {
    inference::World sw(&ag);
    for (const BitVector& s : samples) {
      sw.LoadBits(s);
      for (WeightId w = 0; w < ag.NumWeights(); ++w) {
        empirical[w] += sw.WeightFeature(w);
      }
    }
    for (double& e : empirical) e /= static_cast<double>(samples.size());
  }
  {
    inference::GibbsSampler fit_sampler(&ag);
    Rng rng(Rng::MixSeed(options.seed, /*stream=*/1));
    inference::World model(&ag);
    model.InitValues(&rng, /*random_init=*/true);
    double lr = options.fit_learning_rate;
    for (size_t epoch = 0; epoch < options.fit_epochs; ++epoch) {
      // The model chain samples every variable (the approximation targets
      // the full materialized distribution, evidence included).
      fit_sampler.Sweep(&model, &rng, /*sample_evidence=*/true);
      for (WeightId w = 0; w < ag.NumWeights(); ++w) {
        const double grad = empirical[w] - model.WeightFeature(w);
        ag.SetWeightValue(w, ag.WeightValue(w) + lr * grad);
      }
      lr *= options.fit_decay;
    }
  }
  return m;
}

factor::CompiledGraph BuildVariationalInferenceImage(
    const FactorGraph& original, const VariationalMaterialization& materialization,
    const GraphDelta& delta) {
  const factor::CompiledGraph& base = materialization.compiled_approx();
  factor::CompiledAppendix appendix;
  appendix.num_variables = original.NumVariables();
  // Delta weights are copied once each, numbered in first-use order.
  constexpr WeightId kUnmapped = static_cast<WeightId>(-1);
  std::vector<WeightId> weight_map(original.NumWeights(), kUnmapped);
  auto add_group = [&](const factor::FactorGroup& group) {
    WeightId& mapped = weight_map[group.weight];
    if (mapped == kUnmapped) {
      mapped = static_cast<WeightId>(base.NumWeights() + appendix.weights.size());
      const factor::Weight& weight = original.weight(group.weight);
      appendix.weights.push_back({weight.value, weight.learnable, weight.description});
    }
    appendix.AddGroup({group.head, mapped, group.rule_id, group.semantics});
  };
  for (GroupId g : delta.new_groups) {
    const factor::FactorGroup& group = original.group(g);
    if (!group.active) continue;  // added then retracted within the window
    add_group(group);
    for (factor::ClauseId cid : group.clauses) {
      const factor::Clause& clause = original.clause(cid);
      if (clause.active) appendix.AddClause(clause.literals);
    }
  }
  for (const GraphDelta::GroupMod& mod : delta.modified_groups) {
    // Removed clauses were part of the approximated distribution; they
    // cannot be subtracted from the learned pairwise weights.
    const factor::FactorGroup& group = original.group(mod.group);
    if (mod.added.empty() || !group.active) continue;
    add_group(group);
    for (factor::ClauseId cid : mod.added) {
      appendix.AddClause(original.clause(cid).literals);
    }
  }
  appendix.evidence.reserve(delta.evidence_changes.size());
  for (const GraphDelta::EvidenceChange& ec : delta.evidence_changes) {
    appendix.evidence.emplace_back(ec.var, ec.new_value);
  }
  return factor::CompiledGraph::Splice(base, appendix);
}

StatusOr<double> SearchLambda(const FactorGraph& graph,
                              const VariationalOptions& base_options, double lambda_min,
                              double kl_threshold,
                              const std::vector<double>& reference_marginals,
                              size_t num_threads) {
  // A non-positive start never grows past the loop bound.
  if (!std::isfinite(lambda_min) || lambda_min <= 0.0) {
    return Status::InvalidArgument("lambda_min must be positive and finite");
  }
  if (reference_marginals.size() < graph.NumVariables()) {
    return Status::InvalidArgument("reference_marginals is shorter than the graph");
  }
  const factor::CompiledGraph image = factor::CompiledGraph::Compile(graph);
  double best = lambda_min;
  for (double lambda = lambda_min; lambda <= 10.0; lambda *= 10.0) {
    VariationalOptions options = base_options;
    options.lambda = lambda;
    DD_ASSIGN_OR_RETURN(
        VariationalMaterialization m,
        VariationalMaterialization::Materialize(graph, image, options, num_threads));
    inference::GibbsOptions gopts;
    gopts.seed = Rng::MixSeed(options.seed, /*stream=*/17);
    inference::ParallelGibbsSampler sampler(&m.compiled_approx(), num_threads);
    const auto marginals = sampler.EstimateMarginals(gopts).marginals;
    // Symmetric KL between Bernoulli marginals, averaged over variables.
    double kl = 0.0;
    size_t count = 0;
    for (VarId v = 0; v < graph.NumVariables(); ++v) {
      if (graph.IsEvidence(v)) continue;
      const double p = std::clamp(reference_marginals[v], 1e-6, 1.0 - 1e-6);
      const double q = std::clamp(marginals[v], 1e-6, 1.0 - 1e-6);
      kl += (p - q) * (std::log(p / q) + std::log((1 - q) / (1 - p)));
      ++count;
    }
    if (count > 0) kl /= static_cast<double>(count);
    if (kl > kl_threshold) break;
    best = lambda;
  }
  return best;
}

}  // namespace deepdive::incremental
