#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>
#include <vector>

#include "factor/compiled_graph.h"
#include "factor/factor_graph.h"
#include "inference/exact.h"
#include "inference/gibbs.h"
#include "inference/parallel_gibbs.h"
#include "inference/world.h"
#include "util/bitvector.h"
#include "util/random.h"

namespace deepdive::inference {
namespace {

using factor::ClauseId;
using factor::CompiledGraph;
using factor::FactorGraph;
using factor::GroupId;
using factor::Semantics;
using factor::VarId;
using factor::WeightId;

/// Random small graph: a mix of priors and grouped multi-clause factors.
FactorGraph RandomGraph(uint64_t seed, size_t num_vars, size_t num_groups,
                        Semantics semantics, size_t evidence_count = 0) {
  FactorGraph g;
  Rng rng(seed);
  g.AddVariables(num_vars);
  for (size_t i = 0; i < num_groups; ++i) {
    const VarId head = static_cast<VarId>(rng.UniformInt(num_vars));
    const WeightId w = g.AddWeight(rng.Uniform(-1.0, 1.0), false);
    const GroupId grp = g.AddGroup(static_cast<uint32_t>(i), head, w, semantics);
    const size_t clauses = 1 + rng.UniformInt(3);
    for (size_t c = 0; c < clauses; ++c) {
      std::vector<factor::Literal> lits;
      const size_t n_lits = rng.UniformInt(3);
      for (size_t l = 0; l < n_lits; ++l) {
        VarId v = static_cast<VarId>(rng.UniformInt(num_vars));
        if (v == head) continue;
        bool dup = false;
        for (const auto& lit : lits) dup |= lit.var == v;
        if (dup) continue;
        lits.push_back({v, rng.Bernoulli(0.3)});
      }
      g.AddClause(grp, lits);
    }
  }
  for (size_t e = 0; e < evidence_count; ++e) {
    g.SetEvidence(static_cast<VarId>(rng.UniformInt(num_vars)), rng.Bernoulli(0.5));
  }
  return g;
}

/// Random graph of 2-12 variables for the exact checks: every semantics,
/// shared weights, priors, multi-clause groups whose clauses may repeat a
/// variable (x twice, or x and !x), evidence, and retracted clauses and
/// groups.
FactorGraph RepeatedLiteralGraph(uint64_t seed) {
  FactorGraph g;
  Rng rng(seed);
  const size_t n = 2 + rng.UniformInt(11);
  g.AddVariables(n);
  for (VarId v = 0; v < n; ++v) {
    if (rng.Bernoulli(0.2)) g.SetEvidence(v, rng.Bernoulli(0.5));
  }
  std::vector<WeightId> weights;
  const size_t groups = 1 + rng.UniformInt(10);
  for (size_t i = 0; i < groups; ++i) {
    const VarId head = static_cast<VarId>(rng.UniformInt(n));
    if (weights.empty() || rng.Bernoulli(0.7)) {
      weights.push_back(g.AddWeight(rng.Uniform(-2.0, 2.0), false));
    }
    const WeightId w = weights[rng.UniformInt(weights.size())];
    const auto semantics = static_cast<Semantics>(rng.UniformInt(3));
    const GroupId grp = g.AddGroup(static_cast<uint32_t>(i), head, w, semantics);
    const size_t clauses = rng.UniformInt(4);
    for (size_t c = 0; c < clauses; ++c) {
      std::vector<factor::Literal> lits;
      const size_t n_lits = rng.UniformInt(4);
      for (size_t l = 0; l < n_lits; ++l) {
        const VarId v = static_cast<VarId>(rng.UniformInt(n));
        if (v != head) lits.push_back({v, rng.Bernoulli(0.4)});
      }
      if (!lits.empty() && rng.Bernoulli(0.3)) {
        const factor::Literal x = lits[rng.UniformInt(lits.size())];
        lits.insert(lits.begin() + static_cast<ptrdiff_t>(rng.UniformInt(lits.size() + 1)),
                    {x.var, !x.negated});
      }
      const ClauseId cid = g.AddClause(grp, lits);
      if (rng.Bernoulli(0.1)) g.DeactivateClause(cid);
    }
    if (rng.Bernoulli(0.1)) g.DeactivateGroup(grp);
  }
  return g;
}

/// Whether an active clause of `g` holds some x and !x.
bool HasBothSignsClause(const FactorGraph& g) {
  for (GroupId grp = 0; grp < g.NumGroups(); ++grp) {
    if (!g.group(grp).active) continue;
    for (ClauseId cid : g.group(grp).clauses) {
      if (!g.clause(cid).active) continue;
      const auto& lits = g.clause(cid).literals;
      for (const auto& a : lits) {
        for (const auto& b : lits) {
          if (a.var == b.var && a.negated != b.negated) return true;
        }
      }
    }
  }
  return false;
}

// The world lives on the compacted image: a retracted group and a retracted
// clause are gone from it, and each compiled group maps back to its source.
TEST(WorldTest, StatsMatchBruteForceAfterRandomFlips) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    FactorGraph g = RandomGraph(seed, 8, 10, Semantics::kLinear);
    g.DeactivateGroup(0);
    g.DeactivateClause(static_cast<ClauseId>(g.NumClauses() - 1));
    const CompiledGraph compiled = CompiledGraph::Compile(g);
    World world(&compiled);
    Rng rng(seed + 100);
    world.InitValues(&rng, true);
    for (int step = 0; step < 50; ++step) {
      const VarId v = static_cast<VarId>(rng.UniformInt(8));
      world.Flip(v, rng.Bernoulli(0.5));
      // Brute-force group stats.
      auto value_of = [&](VarId u) { return world.value(u); };
      for (GroupId grp = 0; grp < compiled.NumGroups(); ++grp) {
        ASSERT_EQ(world.GroupSat(grp),
                  g.SatisfiedClauses(compiled.OriginalGroupId(grp), value_of))
            << "seed " << seed << " step " << step;
      }
      ASSERT_NEAR(world.TotalLogWeight(), g.TotalLogWeight(value_of), 1e-9);
    }
  }
}

TEST(WorldTest, EvidenceForcedOnInit) {
  FactorGraph g;
  g.AddVariables(3);
  g.SetEvidence(0, true);
  g.SetEvidence(1, false);
  const CompiledGraph compiled = CompiledGraph::Compile(g);
  World world(&compiled);
  Rng rng(5);
  world.InitValues(&rng, true);
  EXPECT_TRUE(world.value(0));
  EXPECT_FALSE(world.value(1));
}

TEST(WorldTest, BitsRoundTrip) {
  const CompiledGraph compiled =
      CompiledGraph::Compile(RandomGraph(9, 10, 5, Semantics::kRatio));
  World world(&compiled);
  Rng rng(17);
  world.InitValues(&rng, true);
  const BitVector bits = world.ToBits();
  World other(&compiled);
  other.LoadBits(bits);
  for (VarId v = 0; v < 10; ++v) EXPECT_EQ(world.value(v), other.value(v));
  EXPECT_NEAR(world.TotalLogWeight(), other.TotalLogWeight(), 1e-12);
}

TEST(WorldTest, LoadBitsPrefixFills) {
  FactorGraph g;
  g.AddVariables(4);
  const CompiledGraph compiled = CompiledGraph::Compile(g);
  World world(&compiled);
  BitVector bits(2);
  bits.Set(0, true);
  world.LoadBitsPrefix(bits, /*fill=*/true);
  EXPECT_TRUE(world.value(0));
  EXPECT_FALSE(world.value(1));
  EXPECT_TRUE(world.value(2));
  EXPECT_TRUE(world.value(3));
}

TEST(WorldTest, WeightFeature) {
  FactorGraph g;
  const VarId a = g.AddVariable();
  const VarId b = g.AddVariable();
  const WeightId w = g.AddWeight(0.0, true);
  g.AddSimpleFactor(a, {}, w, Semantics::kLinear);
  g.AddSimpleFactor(b, {}, w, Semantics::kLinear);
  const CompiledGraph compiled = CompiledGraph::Compile(g);
  World world(&compiled);
  world.Flip(a, true);  // b stays false
  EXPECT_DOUBLE_EQ(world.WeightFeature(w), 1.0 - 1.0);
  world.Flip(b, true);
  EXPECT_DOUBLE_EQ(world.WeightFeature(w), 2.0);
}

TEST(GibbsTest, ConditionalLogOddsMatchesExactOnPair) {
  // h with prior w1 and pairwise factor w2 * sign(h) * 1{b}.
  FactorGraph g;
  const VarId h = g.AddVariable();
  const VarId b = g.AddVariable();
  const WeightId w1 = g.AddWeight(0.7, false);
  const WeightId w2 = g.AddWeight(-0.4, false);
  g.AddSimpleFactor(h, {}, w1);
  g.AddSimpleFactor(h, {{b, false}}, w2);

  const CompiledGraph compiled = CompiledGraph::Compile(g);
  World world(&compiled);
  world.Flip(b, true);
  GibbsSampler sampler(&compiled);
  // W(h=1) - W(h=0) = 2*(0.7 + -0.4) = 0.6.
  EXPECT_NEAR(sampler.ConditionalLogOdds(world, h), 0.6, 1e-12);
  world.Flip(b, false);
  EXPECT_NEAR(sampler.ConditionalLogOdds(world, h), 2 * 0.7, 1e-12);

  // For b: body membership of the h-headed group. h currently false:
  // dW = w2 * (-1) * (g(1) - g(0)) = 0.4.
  world.Flip(h, false);
  EXPECT_NEAR(sampler.ConditionalLogOdds(world, b), 0.4, 1e-12);
  world.Flip(h, true);
  EXPECT_NEAR(sampler.ConditionalLogOdds(world, b), -0.4, 1e-12);
}

// The conditional is W(v=1) - W(v=0) in any world, also when a clause holds
// v twice or both v and !v (never satisfied).
TEST(GibbsTest, ConditionalMatchesLogWeightDifferenceWithRepeatedLiterals) {
  size_t graphs_with_both_signs = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    const FactorGraph g = RepeatedLiteralGraph(seed);
    graphs_with_both_signs += HasBothSignsClause(g) ? 1 : 0;
    const CompiledGraph compiled = CompiledGraph::Compile(g);
    World world(&compiled);
    Rng rng(seed + 1000);
    std::vector<bool> values(g.NumVariables());
    for (VarId v = 0; v < g.NumVariables(); ++v) {
      values[v] = rng.Bernoulli(0.5);
      world.Flip(v, values[v]);
    }
    GibbsSampler sampler(&compiled);
    for (VarId v = 0; v < g.NumVariables(); ++v) {
      auto log_weight_with = [&](bool x) {
        values[v] = x;
        return g.TotalLogWeight([&](VarId u) { return static_cast<bool>(values[u]); });
      };
      const double expected = log_weight_with(true) - log_weight_with(false);
      values[v] = world.value(v);
      EXPECT_NEAR(sampler.ConditionalLogOdds(world, v), expected, 1e-9)
          << "seed " << seed << " var " << v;
    }
  }
  EXPECT_GE(graphs_with_both_signs, 50u);
}

// gtest names each instance by the raw bytes of its case, so the case spells
// out its padding: left implicit, those bytes are uninitialized memory and the
// test names change from run to run.
struct GibbsVsExactCase {
  uint64_t seed;
  Semantics semantics;
  uint8_t padding[7];
  size_t evidence;
};
static_assert(std::has_unique_object_representations_v<GibbsVsExactCase>);

class GibbsVsExact : public ::testing::TestWithParam<GibbsVsExactCase> {};

TEST_P(GibbsVsExact, MarginalsConverge) {
  const auto& param = GetParam();
  FactorGraph g = RandomGraph(param.seed, 7, 9, param.semantics, param.evidence);
  auto exact = ExactInference(g);
  ASSERT_TRUE(exact.ok());

  const CompiledGraph compiled = CompiledGraph::Compile(g);
  GibbsSampler sampler(&compiled);
  GibbsOptions options;
  options.burn_in_sweeps = 300;
  options.sample_sweeps = 6000;
  options.seed = param.seed * 7 + 1;
  const auto result = sampler.EstimateMarginals(options);
  for (VarId v = 0; v < g.NumVariables(); ++v) {
    EXPECT_NEAR(result.marginals[v], exact->marginals[v], 0.04)
        << "var " << v << " seed " << param.seed << " semantics "
        << SemanticsName(param.semantics);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GibbsVsExact,
    ::testing::Values(GibbsVsExactCase{1, Semantics::kLinear, {}, 0},
                      GibbsVsExactCase{2, Semantics::kLinear, {}, 2},
                      GibbsVsExactCase{3, Semantics::kRatio, {}, 0},
                      GibbsVsExactCase{4, Semantics::kRatio, {}, 2},
                      GibbsVsExactCase{5, Semantics::kLogical, {}, 0},
                      GibbsVsExactCase{6, Semantics::kLogical, {}, 2},
                      GibbsVsExactCase{7, Semantics::kRatio, {}, 1},
                      GibbsVsExactCase{8, Semantics::kLinear, {}, 1}));

TEST(GibbsTest, EvidenceNeverResampled) {
  FactorGraph g;
  const VarId a = g.AddVariable();
  const WeightId w = g.AddWeight(5.0, false);  // strongly pulls a to true
  g.AddSimpleFactor(a, {}, w);
  g.SetEvidence(a, false);
  const CompiledGraph compiled = CompiledGraph::Compile(g);
  GibbsSampler sampler(&compiled);
  GibbsOptions options;
  options.sample_sweeps = 50;
  const auto result = sampler.EstimateMarginals(options);
  EXPECT_DOUBLE_EQ(result.marginals[a], 0.0);
}

TEST(GibbsTest, SampleEvidenceModeFreesEvidence) {
  FactorGraph g;
  const VarId a = g.AddVariable();
  const WeightId w = g.AddWeight(5.0, false);
  g.AddSimpleFactor(a, {}, w);
  g.SetEvidence(a, false);
  const CompiledGraph compiled = CompiledGraph::Compile(g);
  GibbsSampler sampler(&compiled);
  GibbsOptions options;
  options.sample_sweeps = 100;
  options.sample_evidence = true;
  const auto result = sampler.EstimateMarginals(options);
  EXPECT_GT(result.marginals[a], 0.9);  // the strong prior wins
}

TEST(GibbsTest, DrawSamplesShapeAndDeterminism) {
  const CompiledGraph compiled =
      CompiledGraph::Compile(RandomGraph(11, 6, 6, Semantics::kLinear));
  const ParallelGibbsSampler sampler(&compiled, 1);
  GibbsOptions options;
  options.burn_in_sweeps = 10;
  options.seed = 33;
  auto draw = [&] {
    std::vector<BitVector> samples;
    sampler.SampleChain(options, 5, 2, [&](const BitVector& bits) {
      samples.push_back(bits);
      return true;
    });
    return samples;
  };
  const auto s1 = draw();
  const auto s2 = draw();
  ASSERT_EQ(s1.size(), 5u);
  EXPECT_EQ(s1[0].size(), 6u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(s1[i], s2[i]);
}

// The Gray-code walk on the compiled world against the FactorGraph reference:
// a random subset of the query variables is held at random values (evidence
// in the reference), and the rest are enumerated from a random start.
TEST(ExactTest, EnumerationMatchesExactInference) {
  size_t checked = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    const FactorGraph g = RepeatedLiteralGraph(seed);
    const CompiledGraph compiled = CompiledGraph::Compile(g);
    Rng rng(seed + 2000);
    FactorGraph reference = g;
    World world(&compiled);
    std::vector<VarId> vars;
    for (VarId v = 0; v < g.NumVariables(); ++v) {
      if (g.IsEvidence(v)) continue;
      const bool value = rng.Bernoulli(0.5);
      world.Flip(v, value);
      if (rng.Bernoulli(0.25)) {
        reference.SetEvidence(v, value);
      } else {
        vars.push_back(v);
      }
    }
    auto exact = ExactInference(reference);
    ASSERT_TRUE(exact.ok());
    const BitVector start = world.ToBits();
    const double start_weight = world.TotalLogWeight();
    std::vector<double> marginals(g.NumVariables(), -1.0);
    GibbsScratch scratch;
    EnumerateMarginals(&world, vars, &scratch, &marginals);
    for (VarId v : vars) {
      EXPECT_NEAR(marginals[v], exact->marginals[v], 1e-12) << "seed " << seed << " var " << v;
      ++checked;
    }
    EXPECT_EQ(world.ToBits(), start) << "seed " << seed;
    EXPECT_EQ(world.TotalLogWeight(), start_weight) << "seed " << seed;
  }
  EXPECT_GT(checked, 1000u);
}

// Strong priors put log-weights near 1800 above the start world, past where
// exp overflows, so the walk must normalise by the running maximum. Variable
// 9 has a weak prior and leans on variable 0, so its marginal stays inside
// (0, 1).
TEST(ExactTest, EnumerationNormalisesLargeLogWeights) {
  FactorGraph g;
  g.AddVariables(10);
  for (VarId v = 0; v < 9; ++v) {
    g.AddSimpleFactor(v, {}, g.AddWeight(v % 3 == 0 ? -100.0 : 100.0, false));
  }
  g.AddSimpleFactor(9, {}, g.AddWeight(0.5, false));
  g.AddSimpleFactor(9, {{0, true}}, g.AddWeight(1.0, false));
  auto exact = ExactInference(g);
  ASSERT_TRUE(exact.ok());
  const CompiledGraph compiled = CompiledGraph::Compile(g);
  World world(&compiled);
  std::vector<VarId> vars(10);
  for (VarId v = 0; v < 10; ++v) vars[v] = v;
  std::vector<double> marginals(10, -1.0);
  GibbsScratch scratch;
  EnumerateMarginals(&world, vars, &scratch, &marginals);
  for (VarId v = 0; v < 10; ++v) {
    EXPECT_NEAR(marginals[v], exact->marginals[v], 1e-12) << "var " << v;
  }
  EXPECT_GT(marginals[9], 0.5);
  EXPECT_LT(marginals[9], 0.99);
}

TEST(ExactTest, RejectsTooManyVariables) {
  FactorGraph g;
  g.AddVariables(30);
  EXPECT_FALSE(ExactInference(g, 24).ok());
}

TEST(ExactTest, TwoIndependentPriors) {
  FactorGraph g;
  const VarId a = g.AddVariable();
  const VarId b = g.AddVariable();
  g.AddSimpleFactor(a, {}, g.AddWeight(0.5, false));
  g.AddSimpleFactor(b, {}, g.AddWeight(-1.0, false));
  auto exact = ExactInference(g);
  ASSERT_TRUE(exact.ok());
  // P(v=1) = e^w / (e^w + e^-w) = sigmoid(2w).
  EXPECT_NEAR(exact->marginals[a], 1.0 / (1.0 + std::exp(-1.0)), 1e-9);
  EXPECT_NEAR(exact->marginals[b], 1.0 / (1.0 + std::exp(2.0)), 1e-9);
  // World probabilities sum to 1.
  double total = 0;
  for (double p : exact->world_probs) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

}  // namespace
}  // namespace deepdive::inference
