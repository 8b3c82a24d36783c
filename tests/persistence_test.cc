// Persistence round-trips: factor-graph snapshots and sample stores, plus a
// randomized (fuzz-style) round-trip sweep — materializations must survive a
// process restart bit-for-bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <utility>

#include "factor/compiled_graph.h"
#include "factor/factor_graph.h"
#include "factor/graph_io.h"
#include "incremental/sample_store.h"
#include "inference/exact.h"
#include "util/random.h"

namespace deepdive {
namespace {

using factor::FactorGraph;
using factor::Semantics;
using factor::VarId;

FactorGraph RandomGraph(uint64_t seed) {
  FactorGraph g;
  Rng rng(seed);
  const size_t n = 2 + rng.UniformInt(12);
  g.AddVariables(n);
  for (VarId v = 0; v < n; ++v) {
    if (rng.Bernoulli(0.3)) g.SetEvidence(v, rng.Bernoulli(0.5));
  }
  const size_t groups = 1 + rng.UniformInt(10);
  for (size_t i = 0; i < groups; ++i) {
    const VarId head = static_cast<VarId>(rng.UniformInt(n));
    const auto w = rng.Bernoulli(0.5)
                       ? g.AddWeight(rng.Uniform(-2, 2), rng.Bernoulli(0.5),
                                     "w" + std::to_string(i))
                       : g.GetOrCreateTiedWeight("tied/" + std::to_string(i % 3));
    const auto sem = static_cast<Semantics>(rng.UniformInt(3));
    const auto grp = g.AddGroup(static_cast<uint32_t>(i), head, w, sem);
    const size_t clauses = rng.UniformInt(4);
    for (size_t c = 0; c < clauses; ++c) {
      std::vector<factor::Literal> lits;
      const size_t n_lits = rng.UniformInt(3);
      for (size_t l = 0; l < n_lits; ++l) {
        const VarId v = static_cast<VarId>(rng.UniformInt(n));
        if (v == head) continue;
        bool dup = false;
        for (const auto& lit : lits) dup |= lit.var == v;
        if (!dup) lits.push_back({v, rng.Bernoulli(0.3)});
      }
      const auto cid = g.AddClause(grp, lits);
      if (rng.Bernoulli(0.15)) g.DeactivateClause(cid);
    }
    if (rng.Bernoulli(0.1)) g.DeactivateGroup(grp);
  }
  return g;
}

class GraphRoundTripFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GraphRoundTripFuzz, SaveLoadPreservesStructureAndDistribution) {
  const std::string path =
      ::testing::TempDir() + "/fuzz_graph_" + std::to_string(GetParam()) + ".bin";
  FactorGraph g = RandomGraph(GetParam());
  ASSERT_TRUE(factor::SaveGraph(g, path).ok());
  auto loaded = factor::LoadGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The v2 format compacts inactive groups/clauses out at save time, so the
  // loaded graph is structurally equal to the compiled round-trip of the
  // original, not to the original itself when it carries retractions.
  EXPECT_TRUE(factor::GraphsEqual(factor::CompiledGraph::Compile(g).Decompile(),
                                  *loaded));

  // Compaction must not change the distribution: the loaded graph's exact
  // marginals match the original's (inactive elements contribute nothing).
  auto e1 = inference::ExactInference(g, 16);
  auto e2 = inference::ExactInference(*loaded, 16);
  if (e1.ok() && e2.ok()) {
    for (VarId v = 0; v < g.NumVariables(); ++v) {
      EXPECT_NEAR(e1->marginals[v], e2->marginals[v], 1e-12);
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphRoundTripFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                           14, 15, 16));

TEST(SampleStorePersistenceTest, RoundTrip) {
  const std::string path = ::testing::TempDir() + "/store_roundtrip.bin";
  incremental::SampleStore store;
  Rng rng(5);
  for (int s = 0; s < 50; ++s) {
    BitVector bits(77);
    for (size_t i = 0; i < 77; ++i) bits.Set(i, rng.Bernoulli(0.4));
    store.Add(std::move(bits));
  }
  ASSERT_TRUE(store.Save(path).ok());
  auto loaded = incremental::SampleStore::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 50u);
  EXPECT_EQ(loaded->num_vars(), 77u);
  for (size_t s = 0; s < 50; ++s) {
    EXPECT_EQ(loaded->sample(s), store.sample(s)) << "sample " << s;
  }
  EXPECT_EQ(loaded->remaining(), 50u);  // cursor starts fresh
  std::remove(path.c_str());
}

TEST(SampleStorePersistenceTest, EmptyStoreRoundTrips) {
  const std::string path = ::testing::TempDir() + "/store_empty.bin";
  incremental::SampleStore store;
  ASSERT_TRUE(store.Save(path).ok());
  auto loaded = incremental::SampleStore::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
  std::remove(path.c_str());
}

TEST(SampleStorePersistenceTest, RejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/store_garbage.bin";
  FILE* f = fopen(path.c_str(), "wb");
  fputs("garbage", f);
  fclose(f);
  EXPECT_FALSE(incremental::SampleStore::Load(path).ok());
  std::remove(path.c_str());
  EXPECT_EQ(incremental::SampleStore::Load("/nonexistent.bin").status().code(),
            StatusCode::kNotFound);
}

TEST(SampleStorePersistenceTest, LoadValidatesExpectedWidth) {
  const std::string path = ::testing::TempDir() + "/store_width_check.bin";
  incremental::SampleStore store;
  store.Add(BitVector(77, true));
  ASSERT_TRUE(store.Save(path).ok());

  EXPECT_TRUE(incremental::SampleStore::Load(path, 77).ok());
  EXPECT_TRUE(incremental::SampleStore::Load(path).ok());  // 0 = unchecked
  const auto mismatched = incremental::SampleStore::Load(path, 64);
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// A header is checked against the bytes that follow it before anything is
// allocated: one sample of 2^62 variables once threw std::bad_alloc, and
// 10^11 zero-width samples were still loading after 10 s.
TEST(SampleStorePersistenceTest, RejectsHeadersTheFileCannotHold) {
  const std::string path = ::testing::TempDir() + "/store_bad_header.bin";
  incremental::SampleStore store;
  store.Add(BitVector(16, true));
  ASSERT_TRUE(store.Save(path).ok());
  const auto rewrite_header = [&](uint64_t count, uint64_t width) {
    FILE* f = fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(fseek(f, sizeof(uint64_t), SEEK_SET), 0);
    ASSERT_EQ(fwrite(&count, sizeof(count), 1, f), 1u);
    ASSERT_EQ(fwrite(&width, sizeof(width), 1, f), 1u);
    fclose(f);
  };
  for (const auto& [count, width] :
       {std::pair<uint64_t, uint64_t>{1, uint64_t{1} << 62}, {100000000000, 0},
        {2, 16}, {1, 8}, {uint64_t{1} << 61, 16}}) {
    rewrite_header(count, width);
    EXPECT_EQ(incremental::SampleStore::Load(path).status().code(),
              StatusCode::kInvalidArgument)
        << count << " samples of width " << width;
  }
  rewrite_header(1, 16);
  EXPECT_TRUE(incremental::SampleStore::Load(path).ok());
  std::remove(path.c_str());
}

TEST(SampleStorePersistenceTest, ZeroWidthSamplesAreNotSaved) {
  const std::string path = ::testing::TempDir() + "/store_zero_width.bin";
  incremental::SampleStore store;
  store.Add(BitVector(0));
  EXPECT_EQ(store.Save(path).code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SampleStorePersistenceTest, NonMultipleOf8Width) {
  // Widths straddling byte boundaries must round-trip exactly.
  for (size_t width : {1u, 7u, 8u, 9u, 63u, 64u, 65u}) {
    const std::string path =
        ::testing::TempDir() + "/store_w" + std::to_string(width) + ".bin";
    incremental::SampleStore store;
    BitVector bits(width, true);
    if (width > 2) bits.Set(width / 2, false);
    store.Add(bits);
    ASSERT_TRUE(store.Save(path).ok());
    auto loaded = incremental::SampleStore::Load(path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->sample(0), bits) << "width " << width;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace deepdive
