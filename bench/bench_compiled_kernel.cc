// Compiled-kernel benchmark: the flat CSR CompiledGraph sweep (ns/var) and
// the conditional-caching CompiledGibbsChain over the same compiled graph,
// plus the cold-start story — how fast a fresh process gets to a sampleable
// graph from an mmap'd binary snapshot vs. re-grounding the graph from
// scratch. Emits BENCH_compiled_kernel.json for the CI artifact.
//
// Both sweeps run the identical schedule from identical seeds, so their flip
// counts and per-variable indicator sums double as a parity check (they must
// match: the cached chain is bit-identical to the plain sweep by contract).
// The random pairwise graph flips far more often than a serving update's
// graph, so the cached chain is measured here where its cache rarely hits.
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.h"
#include "factor/compiled_graph.h"
#include "factor/graph_io.h"
#include "inference/gibbs.h"
#include "util/timer.h"

namespace deepdive::bench {
namespace {

struct Args {
  size_t vars = 200000;
  size_t sweeps = 20;
  std::string out = "BENCH_compiled_kernel.json";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--vars") {
      args.vars = static_cast<size_t>(std::strtoull(next(), nullptr, 10));
    } else if (a == "--sweeps") {
      args.sweeps = static_cast<size_t>(std::strtoull(next(), nullptr, 10));
    } else if (a == "--out") {
      args.out = next();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
    }
  }
  return args;
}

struct SweepRun {
  size_t flips = 0;
  double seconds = 0.0;      // sweeps only
  std::vector<double> sums;  // per variable: sweeps that ended at 1
};

// Runs `sweeps` calls of `sweep` (returning #flips), timing only those calls;
// `world` gives the state to sum indicators from after each.
template <typename SweepFn, typename WorldFn>
SweepRun RunSweeps(size_t num_vars, size_t sweeps, SweepFn sweep, WorldFn world) {
  SweepRun run;
  run.sums.assign(num_vars, 0.0);
  for (size_t s = 0; s < sweeps; ++s) {
    Timer timer;
    run.flips += sweep();
    run.seconds += timer.Seconds();
    for (factor::VarId v = 0; v < num_vars; ++v) {
      run.sums[v] += world().value(v) ? 1.0 : 0.0;
    }
  }
  return run;
}

SweepRun TimedSweeps(const factor::CompiledGraph& graph, size_t sweeps, uint64_t seed) {
  inference::GibbsSampler sampler(&graph);
  inference::World world(&graph);
  Rng init_rng(seed);
  world.InitValues(&init_rng, /*random_init=*/true);
  Rng rng(Rng::MixSeed(seed, 1));
  return RunSweeps(
      graph.NumVariables(), sweeps, [&] { return sampler.Sweep(&world, &rng); },
      [&]() -> const auto& { return world; });
}

// The same schedule through CompiledGibbsChain over every variable.
SweepRun TimedChainSweeps(const factor::CompiledGraph& graph, size_t sweeps,
                          uint64_t seed, double* setup_seconds,
                          double* evaluated_fraction) {
  inference::World world(&graph);
  Rng init_rng(seed);
  world.InitValues(&init_rng, /*random_init=*/true);
  std::vector<factor::VarId> vars(graph.NumVariables());
  std::iota(vars.begin(), vars.end(), factor::VarId{0});
  Timer setup_timer;
  inference::CompiledGibbsChain chain(std::move(world));
  *setup_seconds = setup_timer.Seconds();
  Rng rng(Rng::MixSeed(seed, 1));
  SweepRun run = RunSweeps(
      graph.NumVariables(), sweeps, [&] { return chain.SweepVars(&rng, vars); },
      [&]() -> const auto& { return chain.world(); });
  *evaluated_fraction = chain.visits() > 0
                            ? static_cast<double>(chain.conditionals_evaluated()) /
                                  static_cast<double>(chain.visits())
                            : 0.0;
  return run;
}

int Run(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  constexpr uint64_t kGraphSeed = 7;
  constexpr uint64_t kChainSeed = 21;

  // Cold-start baseline: build ("re-ground") the workload graph from scratch.
  PrintHeader("cold start: re-ground vs. mmap snapshot");
  Timer reground_timer;
  factor::FactorGraph g = PairwiseGraph(args.vars, 1.0, kGraphSeed);
  const double reground_s = reground_timer.Seconds();
  std::printf("reground          %8.1f ms  (%zu vars, %zu clauses)\n",
              reground_s * 1e3, g.NumVariables(), g.NumClauses());

  Timer compile_timer;
  const factor::CompiledGraph compiled = factor::CompiledGraph::Compile(g);
  const double compile_s = compile_timer.Seconds();
  std::printf("compile           %8.1f ms  (%zu byte image)\n", compile_s * 1e3,
              compiled.image_bytes());

  const std::string snapshot_path = "bench_compiled_kernel_snapshot.bin";
  Timer save_timer;
  const auto save_status = factor::SaveCompiledGraph(compiled, snapshot_path);
  const double save_s = save_timer.Seconds();
  if (!save_status.ok()) {
    std::fprintf(stderr, "save failed: %s\n", save_status.ToString().c_str());
    return 1;
  }
  std::printf("save              %8.1f ms\n", save_s * 1e3);

  Timer load_timer;
  auto loaded = factor::LoadCompiledGraph(snapshot_path);
  const double load_s = load_timer.Seconds();
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const double cold_start_speedup = (reground_s + compile_s) / load_s;
  std::printf("mmap load         %8.1f ms  (%.1fx faster than re-ground+compile)\n",
              load_s * 1e3, cold_start_speedup);

  // Sweep kernel: identical schedule, identical seeds, flip and sum parity.
  PrintHeader("sweep kernel: compiled CSR vs. cached chain");
  const SweepRun compiled_run = TimedSweeps(*loaded, args.sweeps, kChainSeed);
  double chain_setup_s = 0.0, evaluated_fraction = 0.0;
  const SweepRun cached_run = TimedChainSweeps(*loaded, args.sweeps, kChainSeed,
                                               &chain_setup_s, &evaluated_fraction);
  const double denom = static_cast<double>(args.sweeps * args.vars);
  const double compiled_ns = compiled_run.seconds * 1e9 / denom;
  const double cached_ns = cached_run.seconds * 1e9 / denom;
  std::printf("compiled sweep    %8.1f ns/var  (%zu flips)\n", compiled_ns,
              compiled_run.flips);
  std::printf("cached sweep      %8.1f ns/var  (%zu flips, %.1f%% of conditionals "
              "evaluated, %.1f ms set-up)\n",
              cached_ns, cached_run.flips, evaluated_fraction * 100.0,
              chain_setup_s * 1e3);
  std::printf("cached speedup    %8.2fx over compiled\n", compiled_ns / cached_ns);
  if (cached_run.flips != compiled_run.flips || cached_run.sums != compiled_run.sums) {
    std::fprintf(stderr, "PARITY VIOLATION: cached vs compiled (%zu vs %zu flips)\n",
                 cached_run.flips, compiled_run.flips);
    return 1;
  }

  std::FILE* out = std::fopen(args.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"compiled_kernel\",\n"
               "  \"vars\": %zu,\n"
               "  \"clauses\": %zu,\n"
               "  \"sweeps\": %zu,\n"
               "  \"compiled_sweep_ns_per_var\": %.2f,\n"
               "  \"cached_sweep_ns_per_var\": %.2f,\n"
               "  \"cached_sweep_speedup\": %.3f,\n"
               "  \"cached_conditionals_evaluated_fraction\": %.4f,\n"
               "  \"cached_chain_setup_ms\": %.3f,\n"
               "  \"flip_parity\": true,\n"
               "  \"reground_ms\": %.3f,\n"
               "  \"compile_ms\": %.3f,\n"
               "  \"save_ms\": %.3f,\n"
               "  \"snapshot_bytes\": %zu,\n"
               "  \"mmap_load_ms\": %.3f,\n"
               "  \"cold_start_speedup\": %.2f\n"
               "}\n",
               args.vars, g.NumClauses(), args.sweeps, compiled_ns, cached_ns,
               compiled_ns / cached_ns,
               evaluated_fraction, chain_setup_s * 1e3, reground_s * 1e3, compile_s * 1e3,
               save_s * 1e3, compiled.image_bytes(), load_s * 1e3,
               cold_start_speedup);
  std::fclose(out);
  std::printf("\nwrote %s\n", args.out.c_str());
  std::remove(snapshot_path.c_str());
  return 0;
}

}  // namespace
}  // namespace deepdive::bench

int main(int argc, char** argv) { return deepdive::bench::Run(argc, argv); }
