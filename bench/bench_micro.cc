// Micro-benchmarks of the performance-critical primitives (google-benchmark):
// Gibbs sweeps, conditional evaluation, table operations, delta evaluation,
// and sample-store costs. These guard the constants behind every figure.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "dsl/program.h"
#include "engine/rule_evaluator.h"
#include "factor/compiled_graph.h"
#include "factor/graph_delta.h"
#include "incremental/sample_store.h"
#include "inference/gibbs.h"
#include "inference/parallel_gibbs.h"
#include "inference/world.h"
#include "storage/table.h"
#include "util/string_util.h"

namespace deepdive::bench {
namespace {

void BM_GibbsSweep(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const factor::CompiledGraph g =
      factor::CompiledGraph::Compile(PairwiseGraph(n, 1.0, 7));
  inference::GibbsSampler sampler(&g);
  inference::World world(&g);
  Rng rng(3);
  world.InitValues(&rng, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sweep(&world, &rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_GibbsSweep)->Arg(100)->Arg(1000)->Arg(10000);

// Hogwild sweep throughput at a given thread count — the speedup story of
// the parallel inference subsystem. Compare items/sec against BM_GibbsSweep
// at the same variable count (the acceptance target is >= 3x at 8 threads).
void BM_ParallelGibbsSweep(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  const factor::CompiledGraph g =
      factor::CompiledGraph::Compile(PairwiseGraph(n, 1.0, 7));
  inference::ParallelGibbsSampler sampler(&g, threads);
  inference::AtomicWorld world(&g);
  Rng init_rng(3);
  world.InitValues(&init_rng, true);
  std::vector<Rng> rngs = sampler.MakeRngStreams(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sweep(&world, &rngs));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ParallelGibbsSweep)
    ->ArgsProduct({{10000, 100000}, {1, 2, 4, 8}})
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_ConditionalLogOdds(benchmark::State& state) {
  const factor::CompiledGraph g =
      factor::CompiledGraph::Compile(PairwiseGraph(1000, 1.0, 11));
  inference::GibbsSampler sampler(&g);
  inference::World world(&g);
  inference::GibbsScratch scratch;  // reused, as in the samplers' hot loops
  Rng rng(5);
  world.InitValues(&rng, true);
  factor::VarId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.ConditionalLogOdds(world, v, &scratch));
    v = (v + 1) % 1000;
  }
}
BENCHMARK(BM_ConditionalLogOdds);

void BM_TableInsert(benchmark::State& state) {
  int64_t i = 0;
  Schema schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}});
  Table table("T", schema);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Insert({Value(i), Value(i * 7)}));
    ++i;
  }
}
BENCHMARK(BM_TableInsert);

void BM_TableLookup(benchmark::State& state) {
  Schema schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}});
  Table table("T", schema);
  for (int64_t i = 0; i < 100000; ++i) {
    (void)table.Insert({Value(i % 1000), Value(i)});
  }
  int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Lookup(0, Value(key)));
    key = (key + 1) % 1000;
  }
}
BENCHMARK(BM_TableLookup);

void BM_RuleJoin(benchmark::State& state) {
  auto program = dsl::CompileProgram(R"(
    relation P(s: int, m: int).
    relation H(a: int, b: int).
    rule H(a, b) :- P(s, a), P(s, b), a != b.
  )");
  Database db;
  (void)program->InstantiateSchema(&db);
  Table* p = db.GetTable("P");
  for (int64_t s = 0; s < 2000; ++s) {
    (void)p->Insert({Value(s), Value(s * 2)});
    (void)p->Insert({Value(s), Value(s * 2 + 1)});
  }
  auto body = engine::CompiledRuleBody::Compile(
      *program, db, program->deductive_rules()[0].body,
      program->deductive_rules()[0].conditions);
  for (auto _ : state) {
    size_t count = 0;
    body->EvaluateFull([&](const std::vector<Value>&, int64_t) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_RuleJoin);

void BM_SampleStoreRoundTrip(benchmark::State& state) {
  incremental::SampleStore store;
  for (int i = 0; i < 100; ++i) store.Add(BitVector(10000, i % 2 == 0));
  for (auto _ : state) {
    store.ResetCursor();
    size_t bits = 0;
    while (const BitVector* s = store.NextProposal()) bits += s->PopCount();
    benchmark::DoNotOptimize(bits);
  }
}
BENCHMARK(BM_SampleStoreRoundTrip);

void BM_DeltaLogRatio(benchmark::State& state) {
  factor::FactorGraph g = PairwiseGraph(10000, 1.0, 13);
  factor::GraphDelta delta;
  Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    const auto a = static_cast<factor::VarId>(rng.UniformInt(10000));
    const auto b = static_cast<factor::VarId>(rng.UniformInt(10000));
    if (a == b) continue;
    delta.new_groups.push_back(
        g.AddSimpleFactor(a, {{b, false}}, g.AddWeight(0.5, false)));
  }
  BitVector world(g.NumVariables());
  for (size_t v = 0; v < world.size(); ++v) world.Set(v, rng.Bernoulli(0.5));
  const factor::DeltaRatio ratio(g, delta);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ratio(world));
  }
}
BENCHMARK(BM_DeltaLogRatio);

}  // namespace
}  // namespace deepdive::bench

BENCHMARK_MAIN();
