// Async materialization: background snapshot builds, the atomic swap, delta
// rebase across the swap, remat triggers, persistence wiring, and the
// serve-from-old-snapshot guarantee while a rebuild is in flight. The
// concurrency-heavy cases also run under the ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <cstdio>
#include <future>
#include <string>

#include "factor/factor_graph.h"
#include "incremental/engine.h"
#include "inference/exact.h"
#include "util/random.h"
#include "util/thread_role.h"

namespace deepdive::incremental {
namespace {

using factor::FactorGraph;
using factor::GraphDelta;
using factor::VarId;

FactorGraph TwoComponentGraph(uint64_t seed, size_t chains = 2, size_t length = 4) {
  // Disconnected chains, two of 4 variables unless `chains` and `length` say
  // otherwise (same workload as the engine suite).
  FactorGraph g;
  Rng rng(seed);
  g.AddVariables(length * chains);
  for (VarId base = 0; base < length * chains; base += length) {
    for (VarId i = 0; i + 1 < length; ++i) {
      g.AddSimpleFactor(base + i, {{static_cast<VarId>(base + i + 1), false}},
                        g.AddWeight(rng.Uniform(-0.8, 0.8), false));
    }
  }
  for (VarId v = 0; v < length * chains; ++v) {
    g.AddSimpleFactor(v, {}, g.AddWeight(rng.Uniform(-0.3, 0.3), false));
  }
  return g;
}

FactorGraph LongChainGraph(uint64_t seed) {
  // One chain above the exact-draw cut-off, so its samples need the Gibbs
  // chain and its burn-in.
  return TwoComponentGraph(seed, 1, kMaxExactComponentVars + 4);
}

MaterializationOptions TestMaterialization() {
  MaterializationOptions options;
  options.num_samples = 4000;
  options.gibbs_thin = 2;
  options.gibbs_burn_in = 100;
  options.variational.num_samples = 300;
  options.variational.fit_epochs = 150;
  options.variational.lambda = 0.05;
  // Triggers are enabled per test; async alone must not fire any.
  options.remat_on_exhaustion = false;
  return options;
}

EngineOptions TestEngine() {
  EngineOptions options;
  options.mh_target_steps = 2000;
  options.gibbs.burn_in_sweeps = 100;
  options.gibbs.sample_sweeps = 1500;
  return options;
}

/// Applies the same structural mutation to any replica of the test graph and
/// returns the delta describing it.
GraphDelta AddFeatureFactor(FactorGraph* g, VarId head, VarId body, double w) {
  GraphDelta delta;
  delta.new_groups.push_back(
      g->AddSimpleFactor(head, {{body, false}}, g->AddWeight(w, /*learnable=*/true)));
  return delta;
}

TEST(AsyncMaterializationTest, MaterializeAsyncReturnsBeforePublish) {
  deepdive::serving_thread.AssertHeld();
  FactorGraph g = TwoComponentGraph(21);
  IncrementalEngine engine(&g);

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  MaterializationOptions mopts = TestMaterialization();
  mopts.async = true;
  mopts.on_before_publish = [released] { released.wait(); };

  // Returns while the build thread is still gated — i.e. without blocking.
  ASSERT_TRUE(engine.MaterializeAsync(mopts).ok());
  EXPECT_TRUE(engine.MaterializationInFlight());
  EXPECT_EQ(engine.snapshot()->generation, 0u);

  // A second build cannot be scheduled while one is in flight.
  EXPECT_EQ(engine.MaterializeAsync(mopts).code(),
            StatusCode::kFailedPrecondition);

  release.set_value();
  ASSERT_TRUE(engine.WaitForMaterialization().ok());
  EXPECT_FALSE(engine.MaterializationInFlight());
  EXPECT_EQ(engine.snapshot()->generation, 1u);
  EXPECT_EQ(engine.snapshot()->stats.samples_collected, 4000u);
}

TEST(AsyncMaterializationTest, AsyncSnapshotBitIdenticalToSync) {
  deepdive::serving_thread.AssertHeld();
  // num_threads == 1 everywhere: the background build must produce exactly
  // the snapshot a blocking Materialize would.
  FactorGraph g_async = TwoComponentGraph(22);
  FactorGraph g_sync = TwoComponentGraph(22);
  IncrementalEngine async_engine(&g_async);
  IncrementalEngine sync_engine(&g_sync);

  MaterializationOptions mopts = TestMaterialization();
  ASSERT_TRUE(sync_engine.Materialize(mopts).ok());

  mopts.async = true;
  ASSERT_TRUE(async_engine.MaterializeAsync(mopts).ok());
  ASSERT_TRUE(async_engine.WaitForMaterialization().ok());

  const auto async_snapshot = async_engine.snapshot();
  const auto sync_snapshot = sync_engine.snapshot();
  ASSERT_EQ(async_snapshot->materialized_marginals.size(),
            sync_snapshot->materialized_marginals.size());
  for (size_t v = 0; v < sync_snapshot->materialized_marginals.size(); ++v) {
    EXPECT_EQ(async_snapshot->materialized_marginals[v],
              sync_snapshot->materialized_marginals[v])
        << "var " << v;
  }
  EXPECT_EQ(async_snapshot->store.remaining(), sync_snapshot->store.remaining());
  EXPECT_EQ(async_snapshot->variational.has_value(),
            sync_snapshot->variational.has_value());
}

/// The drift scenario: updates arrive while the background remat is in
/// flight. Marginals before the swap must be bit-identical to a control
/// engine that never remats; the post-swap snapshot must be bit-identical
/// to a fresh synchronous materialization of the graph state the build
/// copied; and the mid-build delta must survive the swap. Parameterized by
/// the materialization options so the replicated-sampler configuration runs
/// the identical scenario (its chains are deterministic at one thread per
/// replica, which this bit-exactness drill depends on).
void RunMidBuildDriftSwapScenario(const MaterializationOptions& base_mopts,
                                  const inference::Parallelism& parallelism = {})
    REQUIRES(serving_thread) {
  FactorGraph g = TwoComponentGraph(23);
  FactorGraph g_control = TwoComponentGraph(23);
  IncrementalEngine engine(&g, parallelism);
  IncrementalEngine control(&g_control, parallelism);

  MaterializationOptions mopts = base_mopts;
  ASSERT_TRUE(engine.Materialize(mopts).ok());
  ASSERT_TRUE(control.Materialize(mopts).ok());

  // Schedule the rebuild; the build copies the graph *now* (pre-update).
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  MaterializationOptions remat = base_mopts;
  remat.async = true;
  remat.seed = 77;
  remat.on_before_publish = [released] { released.wait(); };
  ASSERT_TRUE(engine.MaterializeAsync(remat).ok());

  // The reference for the post-swap snapshot: the same pre-update graph
  // state, materialized synchronously with the same options.
  FactorGraph g_reference = TwoComponentGraph(23);
  IncrementalEngine reference(&g_reference, parallelism);
  MaterializationOptions remat_sync = remat;
  remat_sync.async = false;
  remat_sync.on_before_publish = nullptr;
  ASSERT_TRUE(reference.Materialize(remat_sync).ok());

  // Mid-build update, applied identically to engine and control.
  const GraphDelta d_engine = AddFeatureFactor(&g, 1, 2, 0.9);
  const GraphDelta d_control = AddFeatureFactor(&g_control, 1, 2, 0.9);
  auto engine_outcome = engine.ApplyDelta(d_engine, TestEngine());
  auto control_outcome = control.ApplyDelta(d_control, TestEngine());
  ASSERT_TRUE(engine_outcome.ok());
  ASSERT_TRUE(control_outcome.ok());
  EXPECT_TRUE(engine_outcome->served_during_remat);
  EXPECT_FALSE(control_outcome->served_during_remat);
  EXPECT_EQ(engine_outcome->snapshot_generation, 1u);
  ASSERT_EQ(engine_outcome->marginals.size(), control_outcome->marginals.size());
  for (size_t v = 0; v < control_outcome->marginals.size(); ++v) {
    EXPECT_EQ(engine_outcome->marginals[v], control_outcome->marginals[v])
        << "pre-swap marginal diverged from old-snapshot answer, var " << v;
  }

  // Swap. The mid-build delta is rebased onto the new snapshot, not lost.
  release.set_value();
  ASSERT_TRUE(engine.WaitForMaterialization().ok());
  EXPECT_EQ(engine.snapshot()->generation, 2u);
  ASSERT_EQ(engine.cumulative_delta().new_groups.size(), 1u);
  const auto swapped = engine.snapshot();
  const auto expected = reference.snapshot();
  ASSERT_EQ(swapped->materialized_marginals.size(),
            expected->materialized_marginals.size());
  for (size_t v = 0; v < expected->materialized_marginals.size(); ++v) {
    EXPECT_EQ(swapped->materialized_marginals[v],
              expected->materialized_marginals[v])
        << "post-swap snapshot diverged from synchronous build, var " << v;
  }

  // Serving from the new snapshot + rebased delta tracks the exact posterior
  // of the updated graph.
  auto post = engine.ApplyDelta(GraphDelta{}, TestEngine());
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->snapshot_generation, 2u);
  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_NEAR(post->marginals[v], exact->marginals[v], 0.12) << "var " << v;
  }
}

TEST(AsyncMaterializationTest, UpdatesMidBuildServeFromOldSnapshotAndRebase) {
  deepdive::serving_thread.AssertHeld();
  RunMidBuildDriftSwapScenario(TestMaterialization());
}

TEST(AsyncMaterializationTest, UpdatesMidBuildDriftSwapWithReplicatedSampler) {
  deepdive::serving_thread.AssertHeld();
  // The identical drift/swap drill with a 2-replica materialization chain —
  // including consensus synchronizations during burn-in (cadence 40 against
  // a 100-sweep burn-in) and round-robin sample emission.
  RunMidBuildDriftSwapScenario(TestMaterialization(),
                               {.num_replicas = 2, .sync_every_sweeps = 40});
}

TEST(AsyncMaterializationTest, ReplicatedSnapshotBitIdenticalAcrossSyncAndAsync) {
  deepdive::serving_thread.AssertHeld();
  // num_threads == 1 (one worker per replica): a replicated background build
  // must produce exactly the snapshot a blocking replicated Materialize
  // would.
  FactorGraph g_async = TwoComponentGraph(22);
  FactorGraph g_sync = TwoComponentGraph(22);
  const inference::Parallelism replicated{.num_replicas = 3, .sync_every_sweeps = 25};
  IncrementalEngine async_engine(&g_async, replicated);
  IncrementalEngine sync_engine(&g_sync, replicated);

  MaterializationOptions mopts = TestMaterialization();
  ASSERT_TRUE(sync_engine.Materialize(mopts).ok());

  mopts.async = true;
  ASSERT_TRUE(async_engine.MaterializeAsync(mopts).ok());
  ASSERT_TRUE(async_engine.WaitForMaterialization().ok());

  const auto async_snapshot = async_engine.snapshot();
  const auto sync_snapshot = sync_engine.snapshot();
  EXPECT_EQ(async_snapshot->stats.samples_collected, 4000u);
  ASSERT_EQ(async_snapshot->materialized_marginals.size(),
            sync_snapshot->materialized_marginals.size());
  for (size_t v = 0; v < sync_snapshot->materialized_marginals.size(); ++v) {
    EXPECT_EQ(async_snapshot->materialized_marginals[v],
              sync_snapshot->materialized_marginals[v])
        << "var " << v;
  }
  EXPECT_EQ(async_snapshot->store.remaining(), sync_snapshot->store.remaining());
}

TEST(AsyncMaterializationTest, StoreExhaustionSchedulesBackgroundRemat) {
  deepdive::serving_thread.AssertHeld();
  FactorGraph g = TwoComponentGraph(24);
  IncrementalEngine engine(&g);
  MaterializationOptions mopts = TestMaterialization();
  mopts.num_samples = 20;  // tiny store: one drifted update drains it
  mopts.async = true;
  mopts.remat_on_exhaustion = true;
  ASSERT_TRUE(engine.Materialize(mopts).ok());

  // A large new-feature delta collapses acceptance; the MH chain consumes
  // the whole store and falls back, which must schedule a background remat.
  GraphDelta delta;
  for (VarId v = 0; v < 4; ++v) {
    delta.new_groups.push_back(
        g.AddSimpleFactor(v, {}, g.AddWeight(3.0, /*learnable=*/true)));
  }
  auto outcome = engine.ApplyDelta(delta, TestEngine());
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(engine.MaterializationInFlight());

  ASSERT_TRUE(engine.WaitForMaterialization().ok());
  EXPECT_EQ(engine.snapshot()->generation, 2u);
  // The rebuilt snapshot covers the drifted graph: a fresh store and an
  // empty (fully rebased) cumulative delta.
  EXPECT_EQ(engine.snapshot()->store.remaining(), 20u);
  EXPECT_TRUE(engine.cumulative_delta().empty());

  // Post-remat analysis is the cheap 100%-acceptance path again, and its
  // answer matches the exact posterior of the updated graph (loose bound:
  // the rebuilt store holds only 20 samples).
  auto post = engine.ApplyDelta(GraphDelta{}, TestEngine());
  ASSERT_TRUE(post.ok());
  EXPECT_DOUBLE_EQ(post->acceptance_rate, 1.0);
  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_NEAR(post->marginals[v], exact->marginals[v], 0.3) << "var " << v;
  }
}

TEST(AsyncMaterializationTest, AcceptanceFloorSchedulesBackgroundRemat) {
  deepdive::serving_thread.AssertHeld();
  FactorGraph g = TwoComponentGraph(25);
  IncrementalEngine engine(&g);
  MaterializationOptions mopts = TestMaterialization();
  mopts.async = true;
  mopts.remat_acceptance_floor = 1.01;  // any real chain is below this
  ASSERT_TRUE(engine.Materialize(mopts).ok());

  auto outcome = engine.ApplyDelta(AddFeatureFactor(&g, 1, 2, 0.5), TestEngine());
  ASSERT_TRUE(outcome.ok());
  ASSERT_GE(outcome->acceptance_rate, 0.0);
  EXPECT_TRUE(engine.MaterializationInFlight());
  ASSERT_TRUE(engine.WaitForMaterialization().ok());
  EXPECT_EQ(engine.snapshot()->generation, 2u);
}

TEST(AsyncMaterializationTest, UpdateCountSchedulesBackgroundRemat) {
  deepdive::serving_thread.AssertHeld();
  FactorGraph g = TwoComponentGraph(26);
  IncrementalEngine engine(&g);
  MaterializationOptions mopts = TestMaterialization();
  mopts.async = true;
  mopts.remat_after_updates = 2;
  ASSERT_TRUE(engine.Materialize(mopts).ok());

  ASSERT_TRUE(engine.ApplyDelta(AddFeatureFactor(&g, 0, 1, 0.3), TestEngine()).ok());
  EXPECT_FALSE(engine.MaterializationInFlight());  // 1 update < 2
  ASSERT_TRUE(engine.ApplyDelta(AddFeatureFactor(&g, 5, 6, -0.3), TestEngine()).ok());
  EXPECT_TRUE(engine.MaterializationInFlight());  // 2nd update fires the trigger

  ASSERT_TRUE(engine.WaitForMaterialization().ok());
  EXPECT_EQ(engine.snapshot()->generation, 2u);
  // Counter rebased: the next update is the first against the new snapshot.
  ASSERT_TRUE(engine.ApplyDelta(AddFeatureFactor(&g, 2, 3, 0.2), TestEngine()).ok());
  EXPECT_FALSE(engine.MaterializationInFlight());
}

TEST(AsyncMaterializationTest, FailedBackgroundBuildSurfacesInWaitAndKeepsServing) {
  deepdive::serving_thread.AssertHeld();
  FactorGraph g = TwoComponentGraph(27);
  IncrementalEngine engine(&g);
  ASSERT_TRUE(engine.Materialize(TestMaterialization()).ok());

  MaterializationOptions bad = TestMaterialization();
  bad.async = true;
  bad.load_sample_store = "/nonexistent/materialization.bin";
  ASSERT_TRUE(engine.MaterializeAsync(bad).ok());
  EXPECT_EQ(engine.WaitForMaterialization().code(), StatusCode::kNotFound);

  // The old snapshot keeps serving.
  EXPECT_EQ(engine.snapshot()->generation, 1u);
  auto outcome = engine.ApplyDelta(AddFeatureFactor(&g, 1, 2, 0.4), TestEngine());
  ASSERT_TRUE(outcome.ok());
  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_NEAR(outcome->marginals[v], exact->marginals[v], 0.12) << "var " << v;
  }
}

TEST(AsyncMaterializationTest, FailedBuildDisarmsTriggersUntilErrorObserved) {
  deepdive::serving_thread.AssertHeld();
  FactorGraph g = TwoComponentGraph(33);
  IncrementalEngine engine(&g);
  MaterializationOptions mopts = TestMaterialization();
  mopts.async = true;
  mopts.remat_after_updates = 1;  // would fire on every update
  ASSERT_TRUE(engine.Materialize(mopts).ok());

  // Force a failing build (its error must not be clobbered by auto-remats).
  MaterializationOptions bad = mopts;
  bad.load_sample_store = "/nonexistent/materialization.bin";
  ASSERT_TRUE(engine.MaterializeAsync(bad).ok());

  // Updates keep being served; whether the failing build is still in flight
  // or already failed, the armed remat trigger must NOT fire on top of it
  // (no silent retry storm, no clobbered status).
  ASSERT_TRUE(engine.ApplyDelta(AddFeatureFactor(&g, 0, 1, 0.3), TestEngine()).ok());
  EXPECT_EQ(engine.WaitForMaterialization().code(), StatusCode::kNotFound);
  EXPECT_FALSE(engine.MaterializationInFlight());

  // Observing the error re-arms the triggers: the next update schedules a
  // fresh (resampling, not store-loading) rebuild that succeeds.
  ASSERT_TRUE(engine.ApplyDelta(AddFeatureFactor(&g, 5, 6, 0.3), TestEngine()).ok());
  EXPECT_TRUE(engine.MaterializationInFlight());
  ASSERT_TRUE(engine.WaitForMaterialization().ok());
  EXPECT_EQ(engine.snapshot()->generation, 2u);
  EXPECT_FALSE(engine.snapshot()->stats.store_loaded);
}

TEST(AsyncMaterializationTest, BudgetStarvedBuildDoesNotClobberSavedStore) {
  deepdive::serving_thread.AssertHeld();
  // A build whose time budget expires during burn-in collects zero samples;
  // it must not truncate a previously saved good store.
  const std::string path = ::testing::TempDir() + "/starved_save_store.bin";
  FactorGraph g = LongChainGraph(34);
  {
    IncrementalEngine engine(&g);
    MaterializationOptions good = TestMaterialization();
    good.num_samples = 50;
    good.save_sample_store = path;
    ASSERT_TRUE(engine.Materialize(good).ok());
  }
  {
    IncrementalEngine engine(&g);
    MaterializationOptions starved = TestMaterialization();
    starved.gibbs_burn_in = 2000000000;
    starved.time_budget_seconds = 0.05;
    starved.save_sample_store = path;
    ASSERT_TRUE(engine.Materialize(starved).ok());
    EXPECT_EQ(engine.snapshot()->stats.samples_collected, 0u);
  }
  auto loaded = SampleStore::Load(path, g.NumVariables());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 50u);  // the good store survived
  std::remove(path.c_str());
}

TEST(AsyncMaterializationTest, SwapUnderConcurrentApplyDeltaSequence) {
  deepdive::serving_thread.AssertHeld();
  // Real concurrency, no gates: a sequence of updates races the background
  // build. Whatever interleaving the scheduler produces, every update must
  // be served from a coherent snapshot and the drained engine must end on a
  // fresh generation. (This test also runs under TSan in CI.)
  FactorGraph g = TwoComponentGraph(28);
  IncrementalEngine engine(&g);
  MaterializationOptions mopts = TestMaterialization();
  ASSERT_TRUE(engine.Materialize(mopts).ok());

  MaterializationOptions remat = TestMaterialization();
  remat.async = true;
  ASSERT_TRUE(engine.MaterializeAsync(remat).ok());

  double w = 0.2;
  for (int u = 0; u < 8; ++u) {
    const VarId head = static_cast<VarId>((u * 3) % 8);
    const VarId body = static_cast<VarId>(4 * (head / 4) + (head + 1) % 4);
    auto outcome =
        engine.ApplyDelta(AddFeatureFactor(&g, head, body, w), TestEngine());
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    for (double m : outcome->marginals) {
      EXPECT_GE(m, 0.0);
      EXPECT_LE(m, 1.0);
    }
    w = -w;
  }

  ASSERT_TRUE(engine.WaitForMaterialization().ok());
  EXPECT_EQ(engine.snapshot()->generation, 2u);
  auto post = engine.ApplyDelta(GraphDelta{}, TestEngine());
  ASSERT_TRUE(post.ok());
}

TEST(AsyncMaterializationTest, SwapUnderConcurrentUpdatesWithReplicatedBuild) {
  deepdive::serving_thread.AssertHeld();
  // The no-gates race again, with the background build running the
  // replicated sampler (its replica pool + per-replica Hogwild pools) while
  // the serving thread applies updates. Primarily a TSan target. The graph's
  // one component is above the exact-draw cut-off, so the chain runs. The
  // build's publish waits for the loop's updates (its chain does not), so
  // no update is served from the new store and it ends full.
  FactorGraph g = LongChainGraph(35);
  // 2 Hogwild workers per replica.
  IncrementalEngine engine(
      &g, {.num_threads = 4, .num_replicas = 2, .sync_every_sweeps = 30});
  MaterializationOptions mopts = TestMaterialization();
  ASSERT_TRUE(engine.Materialize(mopts).ok());

  std::promise<void> updates_done;
  std::shared_future<void> done = updates_done.get_future().share();
  MaterializationOptions remat = mopts;
  remat.async = true;
  remat.on_before_publish = [done] { done.wait(); };
  ASSERT_TRUE(engine.MaterializeAsync(remat).ok());

  double w = 0.2;
  for (int u = 0; u < 6; ++u) {
    const VarId head = static_cast<VarId>((u * 3) % 8);
    const VarId body = static_cast<VarId>(4 * (head / 4) + (head + 1) % 4);
    auto outcome =
        engine.ApplyDelta(AddFeatureFactor(&g, head, body, w), TestEngine());
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    for (double m : outcome->marginals) {
      EXPECT_GE(m, 0.0);
      EXPECT_LE(m, 1.0);
    }
    w = -w;
  }
  updates_done.set_value();

  ASSERT_TRUE(engine.WaitForMaterialization().ok());
  EXPECT_EQ(engine.snapshot()->generation, 2u);
  EXPECT_EQ(engine.snapshot()->store.remaining(), 4000u);
}

TEST(AsyncMaterializationTest, DestructorCancelsInFlightBuild) {
  deepdive::serving_thread.AssertHeld();
  FactorGraph g = TwoComponentGraph(29);
  {
    IncrementalEngine engine(&g);
    MaterializationOptions huge = TestMaterialization();
    huge.num_samples = 500000000;  // would take minutes without cancellation
    huge.async = true;
    ASSERT_TRUE(engine.MaterializeAsync(huge).ok());
    // Destruction must cancel the chain and join quickly (the suite-level
    // ctest timeout is the failure mode if it does not).
  }
  SUCCEED();
}

TEST(AsyncMaterializationTest, ColdAsyncStartServesRerunBeforeFirstSwap) {
  deepdive::serving_thread.AssertHeld();
  // With async initialization, updates can outrun the very first snapshot.
  // An empty delta must NOT hit the materialized-marginals fast path (there
  // is no materialization yet — that would answer uniform 0.5); it has to
  // fall through to a full rerun.
  FactorGraph g = TwoComponentGraph(31);
  IncrementalEngine engine(&g);

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  MaterializationOptions mopts = TestMaterialization();
  mopts.async = true;
  mopts.on_before_publish = [released] { released.wait(); };
  ASSERT_TRUE(engine.MaterializeAsync(mopts).ok());

  auto outcome = engine.ApplyDelta(GraphDelta{}, TestEngine());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->snapshot_generation, 0u);
  EXPECT_EQ(outcome->strategy, Strategy::kRerun);
  auto exact = inference::ExactInference(g);
  ASSERT_TRUE(exact.ok());
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_NEAR(outcome->marginals[v], exact->marginals[v], 0.12) << "var " << v;
  }

  release.set_value();
  ASSERT_TRUE(engine.WaitForMaterialization().ok());
  EXPECT_EQ(engine.snapshot()->generation, 1u);
}

TEST(AsyncMaterializationTest, TriggeredRematResamplesInsteadOfReloadingStore) {
  deepdive::serving_thread.AssertHeld();
  // A materialization bootstrapped from a persisted store must not replay
  // that (stale, original-Pr(0)) store when a drift-triggered remat fires —
  // the rebuild has to sample the current graph.
  const std::string path = ::testing::TempDir() + "/remat_reload_store.bin";
  FactorGraph g_save = TwoComponentGraph(32);
  IncrementalEngine saver(&g_save);
  MaterializationOptions save_opts = TestMaterialization();
  save_opts.num_samples = 20;
  save_opts.save_sample_store = path;
  ASSERT_TRUE(saver.Materialize(save_opts).ok());

  FactorGraph g = TwoComponentGraph(32);
  IncrementalEngine engine(&g);
  MaterializationOptions mopts = TestMaterialization();
  mopts.num_samples = 20;
  mopts.async = true;
  mopts.remat_on_exhaustion = true;
  mopts.load_sample_store = path;
  ASSERT_TRUE(engine.Materialize(mopts).ok());
  EXPECT_TRUE(engine.snapshot()->stats.store_loaded);

  // Drain the tiny store with a drifted update; the remat it triggers must
  // build a sampled (not loaded) snapshot.
  GraphDelta delta;
  for (VarId v = 0; v < 4; ++v) {
    delta.new_groups.push_back(
        g.AddSimpleFactor(v, {}, g.AddWeight(3.0, /*learnable=*/true)));
  }
  ASSERT_TRUE(engine.ApplyDelta(delta, TestEngine()).ok());
  EXPECT_TRUE(engine.MaterializationInFlight());
  ASSERT_TRUE(engine.WaitForMaterialization().ok());
  EXPECT_EQ(engine.snapshot()->generation, 2u);
  EXPECT_FALSE(engine.snapshot()->stats.store_loaded);
  std::remove(path.c_str());
}

TEST(AsyncMaterializationTest, SaveThenLoadSkipsSamplingChain) {
  deepdive::serving_thread.AssertHeld();
  const std::string path = ::testing::TempDir() + "/async_mat_store.bin";
  FactorGraph g_save = TwoComponentGraph(30);
  IncrementalEngine saver(&g_save);
  MaterializationOptions save_opts = TestMaterialization();
  save_opts.num_samples = 500;
  save_opts.save_sample_store = path;
  ASSERT_TRUE(saver.Materialize(save_opts).ok());
  EXPECT_FALSE(saver.snapshot()->stats.store_loaded);

  FactorGraph g_load = TwoComponentGraph(30);
  IncrementalEngine loader(&g_load);
  MaterializationOptions load_opts = TestMaterialization();
  load_opts.num_samples = 7;  // ignored: the loaded store defines the samples
  load_opts.load_sample_store = path;
  ASSERT_TRUE(loader.Materialize(load_opts).ok());
  const auto loaded = loader.snapshot();
  const auto saved = saver.snapshot();
  EXPECT_TRUE(loaded->stats.store_loaded);
  EXPECT_EQ(loaded->stats.samples_collected, 500u);
  ASSERT_EQ(loaded->materialized_marginals.size(),
            saved->materialized_marginals.size());
  for (size_t v = 0; v < saved->materialized_marginals.size(); ++v) {
    EXPECT_EQ(loaded->materialized_marginals[v], saved->materialized_marginals[v])
        << "var " << v;
  }

  // A differently-shaped graph must reject the store instead of replaying
  // mis-sized proposals.
  FactorGraph g_wrong;
  g_wrong.AddVariables(5);
  IncrementalEngine wrong(&g_wrong);
  EXPECT_EQ(wrong.Materialize(load_opts).code(), StatusCode::kInvalidArgument);

  std::remove(path.c_str());
}

}  // namespace
}  // namespace deepdive::incremental
