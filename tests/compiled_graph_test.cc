// CompiledGraph: flat CSR compilation, compaction semantics, binary snapshot
// round-trips (mmap and buffered), corruption rejection, and — the load-bearing
// contract — inference and learning on the compiled kernels bit-identical to
// golden values recorded from the FactorGraph path at num_threads = 1.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "factor/compiled_graph.h"
#include "factor/factor_graph.h"
#include "factor/graph_delta.h"
#include "factor/graph_io.h"
#include "incremental/snapshot.h"
#include "incremental/variational.h"
#include "inference/compiled_inference.h"
#include "inference/exact.h"
#include "inference/gibbs.h"
#include "inference/learner.h"
#include "inference/parallel_gibbs.h"
#include "inference/replicated_gibbs.h"
#include "util/bitvector.h"
#include "util/random.h"

namespace deepdive {
namespace {

using factor::ClauseId;
using factor::CompiledAppendix;
using factor::CompiledGraph;
using factor::FactorGraph;
using factor::GroupId;
using factor::Semantics;
using factor::VarId;
using factor::WeightId;

// Mixed workload: evidence, tied weights, every semantics, empty clauses
// (priors), plus DRed-style retractions of clauses and whole groups.
FactorGraph MixedGraph(uint64_t seed) {
  FactorGraph g;
  Rng rng(seed);
  const size_t n = 3 + rng.UniformInt(10);
  g.AddVariables(n);
  for (VarId v = 0; v < n; ++v) {
    if (rng.Bernoulli(0.3)) g.SetEvidence(v, rng.Bernoulli(0.5));
  }
  const size_t groups = 2 + rng.UniformInt(8);
  for (size_t i = 0; i < groups; ++i) {
    const VarId head = static_cast<VarId>(rng.UniformInt(n));
    const auto w = rng.Bernoulli(0.5)
                       ? g.AddWeight(rng.Uniform(-2, 2), rng.Bernoulli(0.5),
                                     "w" + std::to_string(i))
                       : g.GetOrCreateTiedWeight("tied/" + std::to_string(i % 3));
    const auto sem = static_cast<Semantics>(rng.UniformInt(3));
    const auto grp = g.AddGroup(static_cast<uint32_t>(i), head, w, sem);
    const size_t clauses = rng.UniformInt(4);  // 0 clauses = prior factor
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
      if (rng.Bernoulli(0.2)) g.DeactivateClause(cid);
    }
    if (rng.Bernoulli(0.15)) g.DeactivateGroup(grp);
  }
  return g;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good()) << path;
  std::vector<uint8_t> bytes(static_cast<size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!bytes.empty()) {
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
}

TEST(CompiledGraphTest, AccessorsMatchSourceGraph) {
  FactorGraph g;
  g.AddVariables(4);
  g.SetEvidence(1, true);
  g.SetEvidence(2, false);
  const WeightId w0 = g.AddWeight(0.75, true, "w0");
  const WeightId w1 = g.GetOrCreateTiedWeight("FE/tied");
  const GroupId g0 = g.AddGroup(7, /*head=*/0, w0, Semantics::kRatio);
  const ClauseId c0 = g.AddClause(g0, {{1, false}, {3, true}});
  const GroupId g1 = g.AddGroup(9, /*head=*/3, w1, Semantics::kLogical);
  g.AddClause(g1, {{0, false}});

  const CompiledGraph compiled = CompiledGraph::Compile(g);
  EXPECT_EQ(compiled.NumVariables(), 4u);
  EXPECT_EQ(compiled.NumWeights(), 2u);
  EXPECT_EQ(compiled.NumGroups(), 2u);
  EXPECT_EQ(compiled.NumClauses(), 2u);

  EXPECT_FALSE(compiled.IsEvidence(0));
  EXPECT_TRUE(compiled.IsEvidence(1));
  EXPECT_TRUE(compiled.EvidenceValue(1).value());
  EXPECT_FALSE(compiled.EvidenceValue(2).value());
  EXPECT_FALSE(compiled.EvidenceValue(3).has_value());

  EXPECT_DOUBLE_EQ(compiled.WeightValue(w0), 0.75);
  EXPECT_TRUE(compiled.WeightLearnable(w0));
  EXPECT_EQ(compiled.WeightDescription(w0), "w0");
  EXPECT_EQ(compiled.WeightDescription(w1), "FE/tied");

  const auto& cg0 = compiled.group(0);
  EXPECT_EQ(cg0.head, 0u);
  EXPECT_EQ(cg0.weight, w0);
  EXPECT_EQ(cg0.rule_id, 7u);
  EXPECT_EQ(cg0.semantics, Semantics::kRatio);
  EXPECT_EQ(compiled.OriginalGroupId(0), g0);
  EXPECT_EQ(compiled.OriginalClauseId(0), c0);

  const auto lits = compiled.ClauseLiterals(0);
  ASSERT_EQ(lits.size(), 2u);
  EXPECT_EQ(lits[0].var, 1u);
  EXPECT_EQ(lits[0].negated, 0u);
  EXPECT_EQ(lits[1].var, 3u);
  EXPECT_EQ(lits[1].negated, 1u);

  // Variable 0 heads group 0 and appears in group 1's clause body.
  const auto heads = compiled.HeadGroups(0);
  ASSERT_EQ(heads.size(), 1u);
  EXPECT_EQ(heads[0], 0u);
  const auto body = compiled.BodyRefs(0);
  ASSERT_EQ(body.size(), 1u);
  EXPECT_EQ(body[0].clause, 1u);
  EXPECT_EQ(body[0].negated, 0u);

  // Tied weight w1 backs group 1 only.
  const auto wg = compiled.GroupsForWeight(w1);
  ASSERT_EQ(wg.size(), 1u);
  EXPECT_EQ(wg[0], 1u);
}

TEST(CompiledGraphTest, CompactionDropsInactiveAndPreservesOrder) {
  FactorGraph g;
  g.AddVariables(3);
  const WeightId w = g.AddWeight(1.0, false, "w");
  const GroupId g0 = g.AddGroup(0, 0, w, Semantics::kLinear);
  g.AddClause(g0, {{1, false}});
  const GroupId g1 = g.AddGroup(1, 1, w, Semantics::kLinear);
  const ClauseId c1 = g.AddClause(g1, {{2, false}});
  g.AddClause(g1, {{0, true}});
  const GroupId g2 = g.AddGroup(2, 2, w, Semantics::kLinear);
  g.AddClause(g2, {{0, false}});
  g.DeactivateClause(c1);
  g.DeactivateGroup(g0);

  const CompiledGraph compiled = CompiledGraph::Compile(g);
  // g0 dropped entirely (with its clause); c1 dropped from g1.
  ASSERT_EQ(compiled.NumGroups(), 2u);
  ASSERT_EQ(compiled.NumClauses(), 2u);
  EXPECT_EQ(compiled.OriginalGroupId(0), g1);
  EXPECT_EQ(compiled.OriginalGroupId(1), g2);
  // Relative clause order within and across groups is preserved.
  const auto g1_clauses = compiled.GroupClauses(0);
  ASSERT_EQ(g1_clauses.size(), 1u);
  EXPECT_EQ(compiled.ClauseGroup(g1_clauses[0]), 0u);
  // Variables and weights are never compacted.
  EXPECT_EQ(compiled.NumVariables(), 3u);
  EXPECT_EQ(compiled.NumWeights(), 1u);
}

TEST(CompiledGraphTest, DecompileIsIdempotentAfterCompaction) {
  for (uint64_t seed : {3u, 11u, 29u}) {
    const FactorGraph g = MixedGraph(seed);
    FactorGraph once = CompiledGraph::Compile(g).Decompile();
    FactorGraph twice = CompiledGraph::Compile(once).Decompile();
    EXPECT_TRUE(factor::GraphsEqual(once, twice)) << "seed " << seed;
  }
}

// ---- golden values --------------------------------------------------------
//
// Each value below was recorded at num_threads = 1 while every world, sampler
// and learner also ran on FactorGraph, where it equalled both the FactorGraph
// output and the compiled output. The kernels now run only on CompiledGraph;
// these pin them to those results bit for bit. Hashes are factor::Fnv1aHash
// over an output's doubles, or over its bits as one byte each.

uint64_t HashDoubles(const std::vector<double>& values) {
  return factor::Fnv1aHash(values.data(), values.size() * sizeof(double));
}

uint64_t HashBits(const std::vector<BitVector>& samples) {
  std::vector<uint8_t> bytes;
  for (const BitVector& sample : samples) {
    for (size_t i = 0; i < sample.size(); ++i) bytes.push_back(sample.Get(i) ? 1 : 0);
  }
  return factor::Fnv1aHash(bytes.data(), bytes.size());
}

TEST(CompiledGraphTest, SequentialMarginalsBitIdenticalAcrossSeeds) {
  const struct {
    uint64_t seed;
    uint64_t marginals;
  } kGolden[] = {{1, 0x1ba8ed7d9e597459ULL},  {2, 0xb1f6df650015889eULL},
                 {5, 0x793f91dbf69e14ccULL},  {9, 0x0ace91e0d27ca436ULL},
                 {17, 0x07e73b0adf529dc4ULL}, {23, 0xdb32ee3ef1084476ULL}};
  inference::GibbsOptions options;
  options.burn_in_sweeps = 10;
  options.sample_sweeps = 40;
  for (const auto& golden : kGolden) {
    const CompiledGraph compiled = CompiledGraph::Compile(MixedGraph(golden.seed));
    options.seed = golden.seed * 31 + 1;
    const auto result = inference::GibbsSampler(&compiled).EstimateMarginals(options);
    EXPECT_EQ(HashDoubles(result.marginals), golden.marginals) << "seed " << golden.seed;
  }
}

// Pairwise-heavy: every variable sits in the bodies of several groups, so a
// conditional sums many group terms and their floating-point order shows in
// its bits (marginals, which only count draws, rarely see it).
FactorGraph CoupledGraph(uint64_t seed) {
  constexpr size_t kVars = 40;
  FactorGraph g;
  Rng rng(seed);
  g.AddVariables(kVars);
  for (VarId v = 0; v < kVars; v += 7) g.SetEvidence(v, rng.Bernoulli(0.5));
  for (size_t i = 0; i < 4 * kVars; ++i) {
    const auto head = static_cast<VarId>(rng.UniformInt(kVars));
    const auto body = static_cast<VarId>((head + 1 + rng.UniformInt(kVars - 1)) % kVars);
    const WeightId w = g.AddWeight(rng.Uniform(-1.5, 1.5), false);
    const auto sem = static_cast<Semantics>(rng.UniformInt(3));
    const GroupId grp = g.AddGroup(static_cast<uint32_t>(i), head, w, sem);
    g.AddClause(grp, {{body, rng.Bernoulli(0.3)}});
    if (i % 11 == 0) g.DeactivateGroup(grp);
  }
  return g;
}

// Every variable's conditional log-odds before each of five sweeps.
TEST(CompiledGraphTest, ConditionalLogOddsMatchGoldenValue) {
  std::vector<double> log_odds;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const CompiledGraph compiled = CompiledGraph::Compile(CoupledGraph(seed));
    const inference::GibbsSampler sampler(&compiled);
    inference::World world(&compiled);
    Rng rng(seed + 1000);
    world.InitValues(&rng, true);
    for (int sweep = 0; sweep < 5; ++sweep) {
      for (VarId v = 0; v < compiled.NumVariables(); ++v) {
        log_odds.push_back(sampler.ConditionalLogOdds(world, v));
      }
      sampler.Sweep(&world, &rng);
    }
  }
  EXPECT_EQ(HashDoubles(log_odds), 0xe951a4ea0fb0bcfbULL);
}

TEST(CompiledGraphTest, PriorOnlyGroupsMatchGoldenMarginals) {
  // Groups with zero clauses (pure priors) exercise the head-groups loop with
  // an empty group-clause range.
  FactorGraph g;
  g.AddVariables(3);
  g.AddGroup(0, 0, g.AddWeight(0.8, false, "p0"), Semantics::kLinear);
  g.AddGroup(1, 1, g.AddWeight(-0.4, false, "p1"), Semantics::kLogical);
  g.SetEvidence(2, true);
  const CompiledGraph compiled = CompiledGraph::Compile(g);

  inference::GibbsOptions options;
  options.burn_in_sweeps = 5;
  options.sample_sweeps = 50;
  options.seed = 77;
  const auto result = inference::GibbsSampler(&compiled).EstimateMarginals(options);
  EXPECT_EQ(HashDoubles(result.marginals), 0x0d680ed90befc1dbULL);
}

// Parity of the replicated sampler with its FactorGraph instantiation, through
// the value recorded from it.
TEST(CompiledGraphTest, ReplicatedSamplerParity) {
  const CompiledGraph compiled = CompiledGraph::Compile(MixedGraph(13));
  inference::GibbsOptions options;
  options.burn_in_sweeps = 8;
  options.sample_sweeps = 24;
  options.seed = 5;
  // Two replicas, one worker each: deterministic.
  const auto result =
      inference::ReplicatedGibbsSampler(
          &compiled, {.num_threads = 2, .num_replicas = 2, .sync_every_sweeps = 8})
          .EstimateMarginals(options);
  EXPECT_EQ(HashDoubles(result.marginals), 0xb8be7ecf1d6d9394ULL);
}

// The production whole-graph path (compile, then the replicated sampler).
TEST(CompiledGraphTest, EstimateMarginalsAutoRoutesBitIdentically) {
  const FactorGraph g = MixedGraph(21);
  inference::GibbsOptions options;
  options.burn_in_sweeps = 6;
  options.sample_sweeps = 20;
  options.seed = 3;
  const auto result = inference::EstimateMarginalsAuto(g, options);
  EXPECT_EQ(HashDoubles(result.marginals), 0x324ad2d1c7a6471fULL);
}

// Learned weights and the final EvidenceLoss of the two-chain and the
// replicated learner.
TEST(CompiledGraphTest, LearnerMatchesGoldenWeightsAndLoss) {
  const struct {
    size_t replicas;
    uint64_t weights;
    uint64_t loss;
  } kGolden[] = {{1, 0x6d5d5abf88980ca0ULL, 0xdd46109c04af10e1ULL},
                 {2, 0x7b31aba1a3021f2aULL, 0x2b1d8aa786d4070fULL}};
  for (const auto& golden : kGolden) {
    FactorGraph g = MixedGraph(6);
    inference::LearnerOptions options;
    options.epochs = 8;
    options.seed = 19;
    inference::Learner learner(&g, {.num_replicas = golden.replicas});
    learner.Learn(options);
    std::vector<double> weights;
    for (WeightId w = 0; w < g.NumWeights(); ++w) weights.push_back(g.WeightValue(w));
    EXPECT_EQ(HashDoubles(weights), golden.weights) << "replicas " << golden.replicas;
    EXPECT_EQ(HashDoubles({learner.EvidenceLoss()}), golden.loss)
        << "replicas " << golden.replicas;
  }
}

// The snapshot's sample store, drawn from its compiled image. Every component
// of MixedGraph(8) is small enough to be enumerated, so the store holds exact
// draws from the component tables.
TEST(CompiledGraphTest, MaterializationKernelParity) {
  const FactorGraph g = MixedGraph(8);
  incremental::MaterializationOptions options;
  options.num_samples = 40;
  options.gibbs_burn_in = 10;
  options.seed = 4;
  auto snapshot = incremental::BuildMaterializationSnapshot(g, options);
  ASSERT_TRUE(snapshot.ok());
  const incremental::SampleStore& store = (*snapshot)->store;
  std::vector<BitVector> samples;
  for (size_t i = 0; i < store.size(); ++i) samples.push_back(store.sample(i));
  EXPECT_EQ(samples.size(), options.num_samples);
  EXPECT_EQ(HashBits(samples), 0x58679114e4e20f20ULL);
}

// The variational update's sweep (IncrementalEngine::RunVariational) starts
// from fixed warm values, burns in, then sums indicators over sample sweeps.
constexpr size_t kVariationalBurnIn = 7;
constexpr size_t kVariationalSamples = 23;
constexpr uint64_t kVariationalSeed = 41;

bool WarmValue(const CompiledGraph& graph, VarId v) {
  const auto ev = graph.EvidenceValue(v);
  return ev.has_value() ? *ev : v % 3 == 0;
}

// The variational update's inference graph as a FactorGraph: the builder the
// engine ran on every variational write before it spliced the delta onto the
// compiled approximation. Compiling its result is the splice's reference.
FactorGraph ReferenceVariationalGraph(const FactorGraph& original,
                                      const FactorGraph& approx,
                                      const factor::GraphDelta& delta) {
  FactorGraph out;
  // Clone the approximation (variables, evidence, weights, groups, clauses).
  if (original.NumVariables() > 0) out.AddVariables(original.NumVariables());
  for (VarId v = 0; v < approx.NumVariables(); ++v) {
    out.SetEvidence(v, approx.EvidenceValue(v));
  }
  std::vector<WeightId> approx_wmap(approx.NumWeights());
  for (WeightId w = 0; w < approx.NumWeights(); ++w) {
    approx_wmap[w] = out.AddWeight(approx.weight(w).value, approx.weight(w).learnable,
                                   approx.weight(w).description);
  }
  for (GroupId g = 0; g < approx.NumGroups(); ++g) {
    const factor::FactorGroup& group = approx.group(g);
    if (!group.active) continue;
    const GroupId ng = out.AddGroup(group.rule_id, group.head,
                                    approx_wmap[group.weight], group.semantics);
    for (ClauseId cid : group.clauses) {
      const factor::Clause& clause = approx.clause(cid);
      if (clause.active) out.AddClause(ng, clause.literals);
    }
  }

  // Append delta factors from the original graph (copying their weights).
  std::map<WeightId, WeightId> orig_wmap;
  auto map_weight = [&](WeightId w) {
    auto it = orig_wmap.find(w);
    if (it != orig_wmap.end()) return it->second;
    const WeightId nw = out.AddWeight(original.weight(w).value,
                                      original.weight(w).learnable,
                                      original.weight(w).description);
    orig_wmap.emplace(w, nw);
    return nw;
  };
  auto copy_group = [&](GroupId g, const std::vector<ClauseId>* only_clauses) {
    const factor::FactorGroup& group = original.group(g);
    if (!group.active) return;  // added then retracted within the window
    const GroupId ng = out.AddGroup(group.rule_id, group.head,
                                    map_weight(group.weight), group.semantics);
    if (only_clauses != nullptr) {
      for (ClauseId cid : *only_clauses) out.AddClause(ng, original.clause(cid).literals);
      return;
    }
    for (ClauseId cid : group.clauses) {
      const factor::Clause& clause = original.clause(cid);
      if (clause.active) out.AddClause(ng, clause.literals);
    }
  };
  for (GroupId g : delta.new_groups) copy_group(g, nullptr);
  for (const factor::GraphDelta::GroupMod& mod : delta.modified_groups) {
    if (!mod.added.empty()) copy_group(mod.group, &mod.added);
  }
  for (const factor::GraphDelta::EvidenceChange& ec : delta.evidence_changes) {
    out.SetEvidence(ec.var, ec.new_value);
  }
  return out;
}

void ExpectSameImage(const CompiledGraph& actual, const CompiledGraph& expected,
                     const std::string& label) {
  ASSERT_EQ(actual.image_bytes(), expected.image_bytes()) << label;
  EXPECT_EQ(std::memcmp(actual.image_data(), expected.image_data(),
                        expected.image_bytes()),
            0)
      << label;
}

// The graph shape the variational update path sweeps: the pairwise
// approximation of a materialized graph plus a delta with new groups (every
// semantics, multi-clause ratio groups, one added then deactivated), clauses
// added to an existing group, and an evidence flip. `image` is the engine's
// spliced image of the update, and `vars` the sweep list.
void MakeVariationalUpdateGraph(uint64_t seed, CompiledGraph* image,
                                std::vector<VarId>* vars) {
  FactorGraph g = MixedGraph(seed);
  incremental::VariationalOptions vopts;
  vopts.num_samples = 60;
  vopts.gibbs_burn_in = 10;
  vopts.fit_epochs = 30;
  vopts.lambda = 0.02;
  vopts.seed = seed;
  auto m = incremental::VariationalMaterialization::Materialize(
      g, CompiledGraph::Compile(g), vopts);
  ASSERT_TRUE(m.ok()) << m.status().ToString();

  factor::GraphDelta delta;
  Rng rng(seed + 100);
  const size_t n = g.NumVariables();
  auto pick_other = [&](VarId head) {
    return static_cast<VarId>((head + 1 + rng.UniformInt(n - 1)) % n);
  };
  for (size_t i = 0; i < 6; ++i) {
    const VarId head = static_cast<VarId>(rng.UniformInt(n));
    const auto sem = static_cast<Semantics>(i % 3);
    const GroupId grp =
        g.AddGroup(static_cast<uint32_t>(100 + i), head,
                   g.AddWeight(rng.Uniform(-1.5, 1.5), true, "new" + std::to_string(i)),
                   sem);
    for (size_t c = 0; c < 1 + i % 3; ++c) {
      g.AddClause(grp, {{pick_other(head), rng.Bernoulli(0.4)}});
    }
    if (i == 4) g.DeactivateGroup(grp);
    delta.new_groups.push_back(grp);
  }
  for (GroupId grp = 0; grp < g.NumGroups(); ++grp) {
    if (!g.group(grp).active) continue;
    const VarId head = g.group(grp).head;
    delta.modified_groups.push_back(
        {grp, {g.AddClause(grp, {{pick_other(head), false}})}, {}});
    break;
  }
  const VarId flipped = static_cast<VarId>(rng.UniformInt(n));
  const auto old_value = g.EvidenceValue(flipped);
  const std::optional<bool> new_value = !old_value.value_or(false);
  g.SetEvidence(flipped, new_value);
  delta.evidence_changes.push_back({flipped, old_value, new_value});

  *image = incremental::BuildVariationalInferenceImage(g, *m, delta);
  vars->clear();
  for (VarId v = 0; v < image->NumVariables(); ++v) {
    if (!image->IsEvidence(v) && v % 4 != 1) vars->push_back(v);
  }
  ASSERT_FALSE(vars->empty()) << "seed " << seed;
}

constexpr uint64_t kVariationalUpdateSeeds[] = {3, 11, 29};

// Splice's contract on any compiled base, compacted ones included: the image
// equals Compile of Decompile(base) extended through the FactorGraph API,
// with appended groups on base and appended weights, clause-less groups,
// repeated literals, evidence set and cleared, and variables past the base.
TEST(CompiledGraphTest, SpliceEqualsCompileOfExtendedDecompile) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    const CompiledGraph base = CompiledGraph::Compile(MixedGraph(seed));
    FactorGraph extended = base.Decompile();
    Rng rng(seed + 300);
    CompiledAppendix appendix;
    appendix.num_variables = base.NumVariables() + rng.UniformInt(3);
    const size_t n = appendix.num_variables;
    if (n > extended.NumVariables()) extended.AddVariables(n - extended.NumVariables());
    const std::vector<std::string> descriptions = {"appended/0", "", "appended/2"};
    for (const std::string& description : descriptions) {
      const double value = rng.Uniform(-1, 1);
      const bool learnable = rng.Bernoulli(0.5);
      appendix.weights.push_back({value, learnable, description});
      extended.AddWeight(value, learnable, description);
    }
    for (size_t i = rng.UniformInt(7); i > 0; --i) {
      const auto head = static_cast<VarId>(rng.UniformInt(n));
      const auto weight = static_cast<WeightId>(rng.UniformInt(extended.NumWeights()));
      const auto sem = static_cast<Semantics>(rng.UniformInt(3));
      const auto rule = static_cast<uint32_t>(50 + i);
      appendix.AddGroup({head, weight, rule, sem});
      const GroupId grp = extended.AddGroup(rule, head, weight, sem);
      for (size_t c = rng.UniformInt(3); c > 0; --c) {
        std::vector<factor::Literal> lits;
        for (size_t l = rng.UniformInt(4); l > 0; --l) {
          const auto v = static_cast<VarId>(rng.UniformInt(n));
          if (v != head) lits.push_back({v, rng.Bernoulli(0.3)});
        }
        appendix.AddClause(lits);
        extended.AddClause(grp, lits);
      }
    }
    for (size_t i = rng.UniformInt(5); i > 0; --i) {
      const auto v = static_cast<VarId>(rng.UniformInt(n));
      const std::optional<bool> value =
          rng.Bernoulli(0.3) ? std::nullopt : std::optional<bool>(rng.Bernoulli(0.5));
      appendix.evidence.emplace_back(v, value);
      extended.SetEvidence(v, value);
    }
    ExpectSameImage(CompiledGraph::Splice(base, appendix),
                    CompiledGraph::Compile(extended), "seed " + std::to_string(seed));
  }
}

// The engine's variational image equals the compile of the reference
// builder's graph, byte for byte, while a cumulative delta grows by Merge:
// new groups on a shared, an original and fresh weights; a new group and a
// new group's clause retracted later; a new group deactivated with no
// removal record; clauses added to existing groups, coalesced across
// updates, cancelled, and on a group removed later; evidence set, flipped
// and cleared on one variable; variables past the approximation's width.
TEST(CompiledGraphTest, VariationalImageMatchesReferenceBuild) {
  using factor::GraphDelta;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    FactorGraph g = MixedGraph(seed);
    incremental::VariationalOptions vopts;
    vopts.num_samples = 40;
    vopts.gibbs_burn_in = 5;
    vopts.fit_epochs = 10;
    vopts.lambda = 0.02;
    vopts.seed = seed;
    auto m = incremental::VariationalMaterialization::Materialize(
        g, CompiledGraph::Compile(g), vopts);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    const FactorGraph approx = m->compiled_approx().Decompile();
    GraphDelta cumulative;
    auto expect_matches = [&](const std::string& step) {
      const FactorGraph reference = ReferenceVariationalGraph(g, approx, cumulative);
      ExpectSameImage(incremental::BuildVariationalInferenceImage(g, *m, cumulative),
                      CompiledGraph::Compile(reference),
                      "seed " + std::to_string(seed) + ", " + step);
    };
    expect_matches("empty delta");

    Rng rng(seed + 700);
    std::vector<GroupId> originals;  // active groups of the materialized graph
    for (GroupId grp = 0; grp < g.NumGroups(); ++grp) {
      if (g.group(grp).active) originals.push_back(grp);
    }
    auto add_clause = [&](GroupId grp) {
      std::vector<factor::Literal> lits;
      for (size_t l = 1 + rng.UniformInt(2); l > 0; --l) {
        const auto v = static_cast<VarId>(rng.UniformInt(g.NumVariables()));
        if (v != g.group(grp).head) lits.push_back({v, rng.Bernoulli(0.3)});
      }
      return g.AddClause(grp, lits);
    };
    auto add_group = [&](WeightId w, size_t clauses, GraphDelta* d) {
      const GroupId grp = g.AddGroup(
          static_cast<uint32_t>(200 + g.NumGroups()),
          static_cast<VarId>(rng.UniformInt(g.NumVariables())), w,
          static_cast<Semantics>(rng.UniformInt(3)));
      for (size_t c = 0; c < clauses; ++c) add_clause(grp);
      d->new_groups.push_back(grp);
      return grp;
    };
    auto set_evidence = [&](VarId v, std::optional<bool> value, GraphDelta* d) {
      d->evidence_changes.push_back({v, g.EvidenceValue(v), value});
      g.SetEvidence(v, value);
    };

    // Update 1: three variables past the approximation; two new groups on a
    // shared new weight, one on an original weight, one prior on a fresh
    // weight; a clause added to up to two original groups; evidence set.
    GraphDelta d1;
    const VarId first_new = g.AddVariables(3);
    for (VarId v = first_new; v < g.NumVariables(); ++v) d1.new_variables.push_back(v);
    const WeightId shared = g.AddWeight(rng.Uniform(-1, 1), true, "shared");
    const GroupId a = add_group(shared, 2, &d1);
    const GroupId b = add_group(shared, 1, &d1);
    add_group(g.group(0).weight, 2, &d1);
    const WeightId fresh = g.AddWeight(rng.Uniform(-1, 1), false, "fresh");
    const GroupId prior = add_group(fresh, 0, &d1);
    std::vector<ClauseId> added_first;
    for (size_t i = 0; i < originals.size() && i < 2; ++i) {
      added_first.push_back(add_clause(originals[i]));
      d1.modified_groups.push_back({originals[i], {added_first.back()}, {}});
    }
    set_evidence(0, true, &d1);
    set_evidence(first_new + 1, false, &d1);
    cumulative.Merge(d1);
    expect_matches("update 1");

    // Update 2: b retracted and a clause of a retracted; a clause appended to
    // a (interleaved with later clauses); the prior deactivated with no
    // removal record; a second clause on the first original, and the second
    // original removed; a new group on the shared weight, whose value moves;
    // a fourth new variable; evidence flipped.
    GraphDelta d2;
    g.DeactivateGroup(b);
    d2.removed_groups.push_back(b);
    const ClauseId a_first = g.group(a).clauses[0];
    g.DeactivateClause(a_first);
    d2.modified_groups.push_back({a, {add_clause(a)}, {a_first}});
    g.DeactivateGroup(prior);
    if (!originals.empty()) {
      d2.modified_groups.push_back({originals[0], {add_clause(originals[0])}, {}});
    }
    if (originals.size() > 1) {
      g.DeactivateGroup(originals[1]);
      d2.removed_groups.push_back(originals[1]);
    }
    d2.new_variables.push_back(g.AddVariable());
    add_group(shared, 3, &d2);
    const double old_shared = g.WeightValue(shared);
    g.SetWeightValue(shared, old_shared + 0.5);
    d2.weight_changes.push_back({shared, old_shared, old_shared + 0.5});
    set_evidence(0, false, &d2);
    cumulative.Merge(d2);
    expect_matches("update 2");

    // Update 3: the first original's update-1 clause retracted (cancelling
    // its addition), an original clause retracted, evidence cleared.
    GraphDelta d3;
    if (!originals.empty()) {
      g.DeactivateClause(added_first[0]);
      d3.modified_groups.push_back({originals[0], {}, {added_first[0]}});
    }
    for (GroupId grp : originals) {
      if (grp == originals[0] || !g.group(grp).active) continue;
      for (ClauseId c : g.group(grp).clauses) {
        if (!g.clause(c).active) continue;
        g.DeactivateClause(c);
        d3.modified_groups.push_back({grp, {}, {c}});
        break;
      }
      break;
    }
    set_evidence(0, std::nullopt, &d3);
    cumulative.Merge(d3);
    expect_matches("update 3");

    cumulative.Merge(GraphDelta{});
    expect_matches("empty update");
  }
}

struct ChainStats {
  size_t visits = 0;
  size_t evaluated = 0;
};

// The engine's sequential variational sweep run twice from the same warm
// world and seed: through GibbsSampler::SweepVars and through
// CompiledGibbsChain. Requires equal worlds after every sweep, equal flip
// counts and bitwise-equal indicator sums; returns the chain's counts.
ChainStats ExpectChainMatchesSweepVars(const CompiledGraph& graph,
                                       const std::vector<VarId>& vars,
                                       const std::string& label) {
  inference::World world(&graph);
  for (VarId v = 0; v < graph.NumVariables(); ++v) world.Flip(v, WarmValue(graph, v));
  world.RecomputeStats();
  inference::CompiledGibbsChain chain(world);
  inference::GibbsSampler sampler(&graph);
  Rng plain_rng(kVariationalSeed);
  Rng chain_rng(kVariationalSeed);
  std::vector<double> plain_sums(graph.NumVariables(), 0.0);
  std::vector<double> chain_sums(graph.NumVariables(), 0.0);
  size_t plain_flips = 0;
  size_t chain_flips = 0;
  for (size_t i = 0; i < kVariationalBurnIn + kVariationalSamples; ++i) {
    plain_flips += sampler.SweepVars(&world, &plain_rng, vars);
    chain_flips += chain.SweepVars(&chain_rng, vars);
    EXPECT_EQ(chain.world().ToBits(), world.ToBits()) << label << " sweep " << i;
    if (i < kVariationalBurnIn) continue;
    for (VarId v : vars) {
      plain_sums[v] += world.value(v) ? 1.0 : 0.0;
      chain_sums[v] += chain.world().value(v) ? 1.0 : 0.0;
    }
  }
  EXPECT_EQ(chain_flips, plain_flips) << label;
  EXPECT_EQ(chain_sums, plain_sums) << label;
  EXPECT_GT(chain_flips, 0u) << label;  // parity of a frozen chain proves nothing
  return {chain.visits(), chain.conditionals_evaluated()};
}

TEST(CompiledGraphTest, CachedChainMatchesSweepVarsOnVariationalUpdates) {
  for (uint64_t seed : kVariationalUpdateSeeds) {
    CompiledGraph image;
    std::vector<VarId> vars;
    ASSERT_NO_FATAL_FAILURE(MakeVariationalUpdateGraph(seed, &image, &vars));
    ExpectChainMatchesSweepVars(image, vars, "seed " + std::to_string(seed));
  }
}

// MixedGraph plus the cases the cache must treat specially: evidence
// variables in the sweep list (skipped without drawing); a variable x
// repeated across the clauses of one group and, as x and !x, within one
// clause, so that its conditional reads its own value; and a group above the
// chain's size cap whose members meet in no other group, so only that group
// tells them about each other's flips.
TEST(CompiledGraphTest, CachedChainMatchesSweepVarsOnEdgeCases) {
  constexpr size_t kBig = inference::CompiledGibbsChain::kMaxCachedGroupSize;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    FactorGraph g = MixedGraph(seed);
    const VarId evidence = static_cast<VarId>(g.NumVariables());
    const VarId x = evidence + 1;
    const VarId y = evidence + 2;
    const VarId head = evidence + 3;
    const VarId big_head = evidence + 4;
    const VarId big_first = evidence + 5;
    g.AddVariables(5 + kBig);
    g.SetEvidence(evidence, true);
    g.AddSimpleFactor(head, {}, g.AddWeight(2.0, false));
    const GroupId repeated =
        g.AddGroup(900, head, g.AddWeight(1.3, false, "repeated"), Semantics::kLogical);
    g.AddClause(repeated, {{x, false}, {y, false}});
    g.AddClause(repeated, {{x, true}, {evidence, false}, {0, false}});
    const GroupId self_ratio =
        g.AddGroup(901, y, g.AddWeight(2.0, false, "self"), Semantics::kRatio);
    g.AddClause(self_ratio, {{x, false}, {x, true}, {head, false}});
    Rng rng(seed + 500);
    const GroupId big =
        g.AddGroup(902, big_head, g.AddWeight(0.4, false, "big"), Semantics::kLinear);
    for (size_t c = 0; c < kBig; ++c) {
      g.AddClause(big, {{static_cast<VarId>(big_first + c), rng.Bernoulli(0.5)},
                        {static_cast<VarId>(big_first + (c + 1) % kBig), rng.Bernoulli(0.5)}});
    }
    std::vector<VarId> vars(g.NumVariables());
    for (VarId v = 0; v < g.NumVariables(); ++v) vars[v] = v;
    ExpectChainMatchesSweepVars(CompiledGraph::Compile(g), vars,
                                "seed " + std::to_string(seed));
  }
}

// Strong couplings and priors make flips rare, so most visits must reuse a
// cached conditional; a chain that left every variable dirty would not.
TEST(CompiledGraphTest, CachedChainSkipsCleanConditionals) {
  FactorGraph g;
  constexpr size_t kVars = 200;
  g.AddVariables(kVars);
  Rng rng(77);
  for (VarId v = 0; v < kVars; ++v) {
    g.AddSimpleFactor(v, {}, g.AddWeight(rng.Bernoulli(0.5) ? 3.0 : -3.0, false));
    if (v + 1 < kVars) {
      g.AddSimpleFactor(v, {{static_cast<VarId>(v + 1), false}}, g.AddWeight(1.5, false));
    }
  }
  std::vector<VarId> vars(kVars);
  for (VarId v = 0; v < kVars; ++v) vars[v] = v;
  const ChainStats stats =
      ExpectChainMatchesSweepVars(CompiledGraph::Compile(g), vars, "strong weights");
  EXPECT_EQ(stats.visits, kVars * (kVariationalBurnIn + kVariationalSamples));
  EXPECT_LT(stats.evaluated, stats.visits / 2);
}

TEST(CompiledGraphIoTest, SaveLoadSaveIsByteStable) {
  const FactorGraph g = MixedGraph(10);
  const std::string p1 = TempPath("cg_stable_1.bin");
  const std::string p2 = TempPath("cg_stable_2.bin");
  ASSERT_TRUE(factor::SaveCompiledGraph(CompiledGraph::Compile(g), p1).ok());
  auto loaded = factor::LoadCompiledGraph(p1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(factor::SaveCompiledGraph(*loaded, p2).ok());
  EXPECT_EQ(ReadFileBytes(p1), ReadFileBytes(p2));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(CompiledGraphIoTest, MmapAndBufferedLoadsAgree) {
  const FactorGraph g = MixedGraph(12);
  const std::string path = TempPath("cg_mmap.bin");
  ASSERT_TRUE(factor::SaveGraph(g, path).ok());

  factor::GraphLoadOptions mmap_opts;
  mmap_opts.use_mmap = true;
  factor::GraphLoadOptions buffered_opts;
  buffered_opts.use_mmap = false;
  auto a = factor::LoadCompiledGraph(path, mmap_opts);
  auto b = factor::LoadCompiledGraph(path, buffered_opts);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->Checksum(), b->Checksum());

  inference::GibbsOptions options;
  options.burn_in_sweeps = 5;
  options.sample_sweeps = 20;
  options.seed = 2;
  const auto m1 = inference::GibbsSampler(&*a).EstimateMarginals(options);
  const auto m2 = inference::GibbsSampler(&*b).EstimateMarginals(options);
  for (size_t v = 0; v < m1.marginals.size(); ++v) {
    EXPECT_EQ(m1.marginals[v], m2.marginals[v]);
  }
  std::remove(path.c_str());
}

TEST(CompiledGraphIoTest, LoadedGraphMatchesOriginalDistribution) {
  for (uint64_t seed : {4u, 14u, 24u}) {
    const FactorGraph g = MixedGraph(seed);
    const std::string path = TempPath("cg_dist_" + std::to_string(seed) + ".bin");
    ASSERT_TRUE(factor::SaveGraph(g, path).ok());
    auto loaded = factor::LoadGraph(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(
        factor::GraphsEqual(CompiledGraph::Compile(g).Decompile(), *loaded));
    auto e1 = inference::ExactInference(g, 16);
    auto e2 = inference::ExactInference(*loaded, 16);
    ASSERT_TRUE(e1.ok() && e2.ok());
    for (VarId v = 0; v < g.NumVariables(); ++v) {
      EXPECT_NEAR(e1->marginals[v], e2->marginals[v], 1e-12) << "seed " << seed;
    }
    std::remove(path.c_str());
  }
}

TEST(CompiledGraphIoTest, EmptyGraphRoundTrips) {
  FactorGraph g;
  const std::string path = TempPath("cg_empty.bin");
  ASSERT_TRUE(factor::SaveGraph(g, path).ok());
  auto loaded = factor::LoadCompiledGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumVariables(), 0u);
  EXPECT_EQ(loaded->NumGroups(), 0u);
  std::remove(path.c_str());
}

TEST(CompiledGraphIoTest, RejectsTruncationAtEveryBoundary) {
  const FactorGraph g = MixedGraph(16);
  const std::string path = TempPath("cg_trunc_src.bin");
  ASSERT_TRUE(factor::SaveGraph(g, path).ok());
  const std::vector<uint8_t> full = ReadFileBytes(path);
  ASSERT_GT(full.size(), sizeof(factor::CompiledGraphHeader));

  const std::string tpath = TempPath("cg_trunc.bin");
  // Every prefix length in a stride, plus the interesting boundaries: empty,
  // partial header, exact header, one-short-of-full.
  std::vector<size_t> sizes = {0, 1, sizeof(factor::CompiledGraphHeader) / 2,
                               sizeof(factor::CompiledGraphHeader),
                               full.size() - 1};
  for (size_t s = 8; s < full.size(); s += 97) sizes.push_back(s);
  for (size_t size : sizes) {
    WriteFileBytes(tpath,
                   std::vector<uint8_t>(full.begin(), full.begin() + size));
    auto loaded = factor::LoadCompiledGraph(tpath);
    EXPECT_FALSE(loaded.ok()) << "truncated to " << size << " bytes";
  }
  // The untruncated file still loads.
  WriteFileBytes(tpath, full);
  EXPECT_TRUE(factor::LoadCompiledGraph(tpath).ok());
  std::remove(path.c_str());
  std::remove(tpath.c_str());
}

TEST(CompiledGraphIoTest, RejectsBitFlips) {
  const FactorGraph g = MixedGraph(18);
  const std::string path = TempPath("cg_flip_src.bin");
  ASSERT_TRUE(factor::SaveGraph(g, path).ok());
  const std::vector<uint8_t> full = ReadFileBytes(path);

  const std::string fpath = TempPath("cg_flip.bin");
  // Flip one bit at a spread of offsets across header and payload; deep
  // validation (checksum + bounds) must reject every one without crashing.
  for (size_t offset = 0; offset < full.size(); offset += 131) {
    std::vector<uint8_t> corrupt = full;
    corrupt[offset] ^= 0x10;
    WriteFileBytes(fpath, corrupt);
    auto loaded = factor::LoadCompiledGraph(fpath);
    EXPECT_FALSE(loaded.ok()) << "bit flip at offset " << offset;
  }
  std::remove(path.c_str());
  std::remove(fpath.c_str());
}

TEST(CompiledGraphIoTest, RejectsBadMagicVersionEndian) {
  const FactorGraph g = MixedGraph(20);
  const std::string path = TempPath("cg_hdr_src.bin");
  ASSERT_TRUE(factor::SaveGraph(g, path).ok());
  const std::vector<uint8_t> full = ReadFileBytes(path);
  const std::string hpath = TempPath("cg_hdr.bin");

  auto corrupt_u32 = [&](size_t offset, uint32_t value) {
    std::vector<uint8_t> bytes = full;
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    WriteFileBytes(hpath, bytes);
    return factor::LoadCompiledGraph(hpath);
  };
  auto corrupt_u64 = [&](size_t offset, uint64_t value) {
    std::vector<uint8_t> bytes = full;
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    WriteFileBytes(hpath, bytes);
    return factor::LoadCompiledGraph(hpath);
  };

  // Header layout: magic u64 @0, version u32 @8, endian u32 @12,
  // total_bytes u64 @16.
  EXPECT_FALSE(corrupt_u64(0, 0xdeadbeefULL).ok());
  EXPECT_FALSE(corrupt_u32(8, factor::kCompiledGraphVersion + 1).ok());
  EXPECT_FALSE(corrupt_u32(12, 0x04030201u).ok());
  EXPECT_FALSE(corrupt_u64(16, full.size() * 2).ok());

  // Also plain garbage and missing files.
  WriteFileBytes(hpath, {'n', 'o', 'p', 'e'});
  EXPECT_FALSE(factor::LoadCompiledGraph(hpath).ok());
  EXPECT_EQ(factor::LoadCompiledGraph("/nonexistent/graph.bin").status().code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
  std::remove(hpath.c_str());
}

}  // namespace
}  // namespace deepdive
