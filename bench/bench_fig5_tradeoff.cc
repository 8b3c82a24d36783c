// Figure 5: the materialization-strategy tradeoff space.
//   (a) materialization + inference time vs graph size (strawman explodes
//       past ~20 variables);
//   (b) sampling-vs-variational inference time vs MH acceptance rate;
//   (c) inference time vs correlation sparsity (variational wins on sparse
//       graphs).
// Absolute numbers are machine-specific; the reproduction targets the
// *shape*: who wins where, and the crossovers.
// Emits BENCH_fig5_tradeoff.json (or --out PATH) with every point's
// materialization and inference seconds and (b)'s measured acceptance, and
// exits non-zero unless (b)'s acceptance is exactly 1 at the zero-change
// point and does not increase with the amount of change. The inputs are
// seeded, so the acceptance column is deterministic.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "factor/compiled_graph.h"
#include "util/string_util.h"
#include "incremental/mh_sampler.h"
#include "incremental/sample_store.h"
#include "incremental/strawman.h"
#include "incremental/variational.h"
#include "inference/gibbs.h"
#include "inference/parallel_gibbs.h"
#include "util/timer.h"

namespace deepdive::bench {
namespace {

using factor::FactorGraph;
using factor::GraphDelta;
using factor::VarId;
using incremental::IndependentMH;
using incremental::MHOptions;
using incremental::SampleStore;
using incremental::StrawmanMaterialization;
using incremental::VariationalMaterialization;
using incremental::VariationalOptions;

constexpr size_t kMaterializationSamples = 100;  // SM
constexpr size_t kInferenceSamples = 100;        // SI

SampleStore DrawStore(const factor::CompiledGraph& g, size_t count, uint64_t seed) {
  inference::GibbsOptions options;
  options.burn_in_sweeps = 20;
  options.seed = seed;
  SampleStore store;
  inference::ParallelGibbsSampler(&g, 1).SampleChain(options, count, 1,
                                                     [&](const BitVector& bits) {
                                                       store.Add(bits);
                                                       return true;
                                                     });
  return store;
}

/// A small structural update: one new pairwise factor per 100 variables.
GraphDelta SmallDelta(FactorGraph* g, double weight) {
  GraphDelta delta;
  Rng rng(4242);
  const size_t n = g->NumVariables();
  const size_t count = std::max<size_t>(1, n / 100);
  for (size_t i = 0; i < count; ++i) {
    const auto a = static_cast<VarId>(rng.UniformInt(n));
    const auto b = static_cast<VarId>(rng.UniformInt(n));
    if (a == b) continue;
    delta.new_groups.push_back(
        g->AddSimpleFactor(a, {{b, false}}, g->AddWeight(weight, false)));
  }
  return delta;
}

/// One point of a panel. A negative time marks an approach that is
/// infeasible (or failed) at that point; `x` is the panel's axis value.
struct Point {
  double x = 0.0;
  double mat_strawman = -1, mat_sampling = -1, mat_variational = -1;
  double inf_strawman = -1, inf_sampling = -1, inf_variational = -1;
  double acceptance = -1;  // (b) only
};

/// Runs the sampling approach's inference; returns its seconds and sets
/// *acceptance to the chain's measured acceptance rate (-1 on failure).
double SamplingInference(const FactorGraph& g, const GraphDelta& delta,
                         SampleStore* store, double* acceptance = nullptr) {
  Timer timer;
  IndependentMH mh(&g, &delta);
  MHOptions options;
  options.target_steps = store->size();
  options.target_accepted = kInferenceSamples;
  auto result = mh.Run(store, options);
  const double seconds = timer.Seconds();
  if (acceptance != nullptr) *acceptance = result.ok() ? result->acceptance_rate : -1.0;
  return seconds;
}

double VariationalInference(const FactorGraph& original,
                            const VariationalMaterialization& vmat,
                            const GraphDelta& delta) {
  Timer timer;
  const factor::CompiledGraph inf =
      incremental::BuildVariationalInferenceImage(original, vmat, delta);
  inference::GibbsSampler sampler(&inf);
  inference::GibbsOptions options;
  options.burn_in_sweeps = 5;
  options.sample_sweeps = kInferenceSamples;
  sampler.EstimateMarginals(options);
  return timer.Seconds();
}

std::vector<Point> PartA() {
  std::vector<Point> points;
  PrintHeader("Figure 5(a): size of the factor graph");
  std::printf("%8s | %12s %12s %12s | %12s %12s %12s\n", "n", "mat.straw", "mat.samp",
              "mat.var", "inf.straw", "inf.samp", "inf.var");
  for (size_t n : {2u, 10u, 17u, 100u, 1000u, 10000u}) {
    FactorGraph g = PairwiseGraph(n, 1.0, 7 + n);

    double mat_straw = -1, inf_straw = -1;
    StatusOr<StrawmanMaterialization> strawman =
        Status::FailedPrecondition("not materialized");
    if (n <= 17) {
      Timer t;
      strawman = StrawmanMaterialization::Materialize(g, 20);
      mat_straw = t.Seconds();
    }

    const factor::CompiledGraph image = factor::CompiledGraph::Compile(g);
    Timer t_samp;
    SampleStore store = DrawStore(image, kMaterializationSamples, 11);
    const double mat_samp = t_samp.Seconds();

    Timer t_var;
    VariationalOptions vopts;
    vopts.num_samples = kMaterializationSamples;
    vopts.gibbs_burn_in = 20;
    vopts.fit_epochs = 30;
    vopts.lambda = 0.1;
    auto vmat = VariationalMaterialization::Materialize(g, image, vopts);
    const double mat_var = t_var.Seconds();

    GraphDelta delta = SmallDelta(&g, 0.3);

    if (n <= 17 && strawman.ok()) {
      Timer t;
      (void)strawman->InferUpdated(g, delta);
      inf_straw = t.Seconds();
    }
    const double inf_samp = SamplingInference(g, delta, &store);
    const double inf_var =
        vmat.ok() ? VariationalInference(g, *vmat, delta) : -1;

    auto cell = [](double v) {
      return v < 0 ? std::string("    infeasible") : StrFormat("%12.5f", v);
    };
    std::printf("%8zu | %s %s %s | %s %s %s\n", n, cell(mat_straw).c_str(),
                cell(mat_samp).c_str(), cell(mat_var).c_str(), cell(inf_straw).c_str(),
                cell(inf_samp).c_str(), cell(inf_var).c_str());
    points.push_back({static_cast<double>(n), mat_straw, mat_samp, vmat.ok() ? mat_var : -1,
                      inf_straw, inf_samp, inf_var});
  }
  return points;
}

std::vector<Point> PartB() {
  std::vector<Point> points;
  PrintHeader("Figure 5(b): amount of change (acceptance rate)");
  std::printf("%12s | %14s %14s | %s\n", "target-rate", "inf.sampling", "inf.variational",
              "measured acceptance");
  const size_t n = 1000;
  // Delta weight magnitude controls how far Pr(D) drifts from Pr(0):
  // calibrated to span acceptance ~1.0 down to ~0.01.
  const struct {
    double target;
    double weight;
    size_t factors;
  } kPoints[] = {{1.0, 0.0, 1}, {0.5, 0.35, 8}, {0.1, 0.6, 40}, {0.01, 1.2, 150}};

  for (const auto& point : kPoints) {
    Point row{point.target};
    FactorGraph g = PairwiseGraph(n, 1.0, 31);
    Timer t_store;
    SampleStore store = DrawStore(factor::CompiledGraph::Compile(g), 40000, 13);
    row.mat_sampling = t_store.Seconds();

    // The zero-change point adds its factor at weight 0, which leaves the
    // distribution as it was.
    GraphDelta delta;
    Rng rng(17);
    for (size_t i = 0; i < point.factors; ++i) {
      const auto a = static_cast<VarId>(rng.UniformInt(n));
      const auto b = static_cast<VarId>(rng.UniformInt(n));
      if (a == b) continue;
      delta.new_groups.push_back(
          g.AddSimpleFactor(a, {{b, false}}, g.AddWeight(point.weight, false)));
    }

    row.inf_sampling = SamplingInference(g, delta, &store, &row.acceptance);

    VariationalOptions vopts;
    vopts.num_samples = kMaterializationSamples;
    vopts.gibbs_burn_in = 20;
    vopts.fit_epochs = 30;
    vopts.lambda = 0.1;
    Timer t_var;
    const factor::CompiledGraph updated = factor::CompiledGraph::Compile(g);
    auto vmat = VariationalMaterialization::Materialize(g, updated, vopts);
    if (vmat.ok()) {
      row.mat_variational = t_var.Seconds();
      row.inf_variational = VariationalInference(g, *vmat, delta);
    }

    std::printf("%12g | %14.5f %14.5f | %.3f\n", point.target, row.inf_sampling,
                row.inf_variational, row.acceptance);
    points.push_back(row);
  }
  return points;
}

std::vector<Point> PartC() {
  std::vector<Point> points;
  PrintHeader("Figure 5(c): sparsity of correlations");
  std::printf("%8s | %14s %14s | %s\n", "sparsity", "inf.sampling", "inf.variational",
              "approx edges");
  const size_t n = 1000;
  for (double sparsity : {0.1, 0.2, 0.3, 0.5, 1.0}) {
    // Dense base graph (~4 factors/variable) so the edge count, not the
    // unary sweep floor, dominates inference cost — the paper's setting.
    Point row{sparsity};
    FactorGraph g = PairwiseGraph(n, sparsity, 53, /*weight_scale=*/1.2,
                                  /*chords_per_var=*/3.0);
    Timer t_store;
    SampleStore store = DrawStore(factor::CompiledGraph::Compile(g), 40000, 19);
    row.mat_sampling = t_store.Seconds();

    // A real development-iteration update (many new factors): acceptance is
    // low, so the sampling approach pays SI/rho proposals while the
    // variational cost tracks the approximate graph's density.
    GraphDelta delta;
    Rng rng(61);
    for (size_t i = 0; i < 60; ++i) {
      const auto a = static_cast<VarId>(rng.UniformInt(n));
      const auto b = static_cast<VarId>(rng.UniformInt(n));
      if (a == b) continue;
      delta.new_groups.push_back(
          g.AddSimpleFactor(a, {{b, false}}, g.AddWeight(0.8, false)));
    }

    row.inf_sampling = SamplingInference(g, delta, &store);

    VariationalOptions vopts;
    vopts.num_samples = 300;
    vopts.gibbs_burn_in = 20;
    vopts.fit_epochs = 30;
    vopts.lambda = 0.25;
    Timer t_var;
    const factor::CompiledGraph updated = factor::CompiledGraph::Compile(g);
    auto vmat = VariationalMaterialization::Materialize(g, updated, vopts);
    if (vmat.ok()) {
      row.mat_variational = t_var.Seconds();
      row.inf_variational = VariationalInference(g, *vmat, delta);
    }

    std::printf("%8.1f | %14.5f %14.5f | %zu\n", sparsity, row.inf_sampling,
                row.inf_variational, vmat.ok() ? vmat->NumEdges() : 0);
    points.push_back(row);
  }
  return points;
}

void WritePanel(std::FILE* out, const char* name, const char* axis,
                const std::vector<Point>& points, bool last) {
  std::fprintf(out, "  \"%s\": [\n", name);
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(out,
                 "    {\"%s\": %g, \"mat_strawman_s\": %.6f, \"mat_sampling_s\": %.6f, "
                 "\"mat_variational_s\": %.6f, \"inf_strawman_s\": %.6f, "
                 "\"inf_sampling_s\": %.6f, \"inf_variational_s\": %.6f",
                 axis, p.x, p.mat_strawman, p.mat_sampling, p.mat_variational,
                 p.inf_strawman, p.inf_sampling, p.inf_variational);
    if (p.acceptance >= 0) std::fprintf(out, ", \"acceptance\": %.6f", p.acceptance);
    std::fprintf(out, "}%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ]%s\n", last ? "" : ",");
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_fig5_tradeoff.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return 2;
    }
  }

  const std::vector<Point> size = PartA();
  const std::vector<Point> change = PartB();
  const std::vector<Point> sparsity = PartC();

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"fig5_tradeoff\",\n");
  WritePanel(out, "size", "vars", size, /*last=*/false);
  WritePanel(out, "change", "target_acceptance", change, /*last=*/false);
  WritePanel(out, "sparsity", "sparsity", sparsity, /*last=*/true);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());

  // (b)'s acceptance falls as the change grows, from exactly 1 where the
  // delta leaves the distribution as it was.
  int status = 0;
  if (change.empty() || change[0].acceptance != 1.0) {
    std::fprintf(stderr, "ACCEPTANCE VIOLATION: (b)'s zero-change point accepts %.6f, not 1\n",
                 change.empty() ? -1.0 : change[0].acceptance);
    status = 1;
  }
  for (size_t i = 1; i < change.size(); ++i) {
    if (change[i].acceptance > change[i - 1].acceptance) {
      std::fprintf(stderr,
                   "ACCEPTANCE VIOLATION: (b)'s acceptance rises from %.6f to %.6f at "
                   "target %g\n",
                   change[i - 1].acceptance, change[i].acceptance, change[i].x);
      status = 1;
    }
  }
  return status;
}

}  // namespace
}  // namespace deepdive::bench

int main(int argc, char** argv) { return deepdive::bench::Main(argc, argv); }
