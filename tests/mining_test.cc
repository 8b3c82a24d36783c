// Incremental rule mining: the co-occurrence collector's incrementally
// maintained state equals a fresh rebuild after arbitrary updates, the
// candidate generator is deterministic and proposes bounded Horn clauses
// (copy and chain rules), and the miner promotes a planted rule through the
// engine's first-class rule-delta path — or rejects it with a bit-identical
// restore of the pre-trial state.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/deepdive.h"
#include "mining/candidates.h"
#include "mining/cooccurrence.h"
#include "mining/miner.h"
#include "util/thread_role.h"

namespace deepdive::mining {
namespace {

/// Planted-signal program: Pair co-occurs with mostly-positive Match labels,
/// so the miner should propose and promote "Match(a, b) :- Pair(a, b)".
constexpr char kPlantedProgram[] = R"(
  relation Pair(a: int, b: int).
  query relation Match(a: int, b: int).
  evidence MatchEv(a: int, b: int, l: bool) for Match.
  rule CAND: Match(a, b) :- Pair(a, b).
  factor PRIOR: Match(a, b) :- Pair(a, b) weight = -0.2 semantics = logical.
)";

std::vector<Tuple> PairRows() {
  std::vector<Tuple> rows;
  for (int i = 1; i <= 8; ++i) rows.push_back({Value(i), Value(i + 100)});
  return rows;
}

std::vector<Tuple> MatchEvRows() {
  // 7 positive labels, 1 negative: confidence (7+1)/(7+1+2) = 0.8.
  std::vector<Tuple> rows;
  for (int i = 1; i <= 7; ++i) {
    rows.push_back({Value(i), Value(i + 100), Value(true)});
  }
  rows.push_back({Value(8), Value(108), Value(false)});
  return rows;
}

std::unique_ptr<core::DeepDive> MakePlanted() REQUIRES(serving_thread) {
  auto dd = core::DeepDive::Create(kPlantedProgram, core::FastTestConfig());
  EXPECT_TRUE(dd.ok()) << dd.status().ToString();
  EXPECT_TRUE(dd.value()->LoadRows("Pair", PairRows()).ok());
  EXPECT_TRUE(dd.value()->LoadRows("MatchEv", MatchEvRows()).ok());
  EXPECT_TRUE(dd.value()->Initialize().ok());
  return std::move(dd).value();
}

void ExpectStatsEqual(const CooccurrenceStats& incremental,
                      const CooccurrenceStats& rebuilt) {
  auto check_relation = [&](const std::string& name) {
    SCOPED_TRACE("relation " + name);
    const auto* live = incremental.Relation(name);
    const auto* fresh = rebuilt.Relation(name);
    ASSERT_NE(live, nullptr);
    ASSERT_NE(fresh, nullptr);
    EXPECT_EQ(*live, *fresh);
    const Schema* schema = rebuilt.SchemaOf(name);
    ASSERT_NE(schema, nullptr);
    for (size_t c = 0; c < schema->columns().size(); ++c) {
      const auto* live_col = incremental.ColumnValues(name, c);
      const auto* fresh_col = rebuilt.ColumnValues(name, c);
      ASSERT_NE(live_col, nullptr);
      ASSERT_NE(fresh_col, nullptr);
      EXPECT_EQ(*live_col, *fresh_col) << "column " << c;
    }
  };
  for (const std::string& name : rebuilt.base_relations()) check_relation(name);
  for (const std::string& name : rebuilt.query_relations()) {
    check_relation(name);
    const auto* live = incremental.Labels(name);
    const auto* fresh = rebuilt.Labels(name);
    ASSERT_NE(live, nullptr);
    ASSERT_NE(fresh, nullptr);
    ASSERT_EQ(live->size(), fresh->size()) << "labels of " << name;
    auto it = fresh->begin();
    for (const auto& [tuple, counts] : *live) {
      EXPECT_EQ(tuple, it->first);
      EXPECT_EQ(counts.positive, it->second.positive);
      EXPECT_EQ(counts.negative, it->second.negative);
      ++it;
    }
  }
}

/// The collector's correctness invariant: after any stream of updates
/// (inserts AND DRed deletions, base and evidence relations alike), the
/// incrementally maintained state equals a fresh full-scan rebuild.
TEST(MiningTest, IncrementalStatsMatchFullRebuild) {
  deepdive::serving_thread.AssertHeld();
  auto dd = MakePlanted();

  CooccurrenceStats live;
  live.BindSchema(dd->program());
  live.Rebuild(*dd->db());
  dd->SetRelationDeltaListener(
      [&live](const engine::RelationDeltas& deltas) { live.Observe(deltas); });

  core::UpdateSpec grow;
  grow.label = "grow";
  grow.inserts["Pair"] = {{Value(9), Value(109)}, {Value(10), Value(110)}};
  grow.inserts["MatchEv"] = {{Value(9), Value(109), Value(true)}};
  ASSERT_TRUE(dd->ApplyUpdate(grow).ok());

  core::UpdateSpec shrink;
  shrink.label = "shrink";
  shrink.deletes["Pair"] = {{Value(8), Value(108)}};
  shrink.deletes["MatchEv"] = {{Value(8), Value(108), Value(false)}};
  ASSERT_TRUE(dd->ApplyUpdate(shrink).ok());

  dd->SetRelationDeltaListener(nullptr);
  EXPECT_GE(live.observed_batches(), 2u);

  CooccurrenceStats rebuilt;
  rebuilt.BindSchema(dd->program());
  rebuilt.Rebuild(*dd->db());
  ExpectStatsEqual(live, rebuilt);
}

TEST(MiningTest, GenerateCandidatesProposesPlantedCopyRule) {
  deepdive::serving_thread.AssertHeld();
  auto dd = MakePlanted();
  CooccurrenceStats stats;
  stats.BindSchema(dd->program());
  stats.Rebuild(*dd->db());

  const std::vector<Candidate> candidates =
      GenerateCandidates(stats, CandidateOptions());
  ASSERT_FALSE(candidates.empty());
  const Candidate& top = candidates.front();
  EXPECT_EQ(top.rule.head.predicate, "Match");
  ASSERT_EQ(top.rule.body.size(), 1u);
  EXPECT_EQ(top.rule.body.front().predicate, "Pair");
  EXPECT_EQ(top.support, 7);
  EXPECT_EQ(top.contradictions, 1);
  EXPECT_DOUBLE_EQ(top.confidence, 0.8);
  // Trial weights are fixed (learn-free trials must not perturb learning).
  EXPECT_FALSE(top.rule.weight.learnable);

  // Bit-reproducible candidate order (the determinism analyzer's contract).
  const std::vector<Candidate> again =
      GenerateCandidates(stats, CandidateOptions());
  ASSERT_EQ(candidates.size(), again.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(candidates[i].pattern, again[i].pattern);
    EXPECT_EQ(candidates[i].support, again[i].support);
  }
}

TEST(MiningTest, GenerateCandidatesProposesChainRules) {
  deepdive::serving_thread.AssertHeld();
  constexpr char kChainProgram[] = R"(
    relation Link1(x: int, y: int).
    relation Link2(y: int, z: int).
    query relation Path(x: int, z: int).
    evidence PathEv(x: int, z: int, l: bool) for Path.
    rule CAND: Path(x, z) :- Link1(x, y), Link2(y, z).
    factor PRIOR: Path(x, z) :- Link1(x, y), Link2(y, z)
      weight = 0.1 semantics = logical.
  )";
  auto dd = core::DeepDive::Create(kChainProgram, core::FastTestConfig());
  ASSERT_TRUE(dd.ok()) << dd.status().ToString();
  ASSERT_TRUE((*dd)
                  ->LoadRows("Link1", {{Value(1), Value(10)},
                                       {Value(2), Value(20)},
                                       {Value(3), Value(30)}})
                  .ok());
  ASSERT_TRUE((*dd)
                  ->LoadRows("Link2", {{Value(10), Value(100)},
                                       {Value(20), Value(200)},
                                       {Value(30), Value(300)}})
                  .ok());
  ASSERT_TRUE((*dd)
                  ->LoadRows("PathEv", {{Value(1), Value(100), Value(true)},
                                        {Value(2), Value(200), Value(true)},
                                        {Value(3), Value(300), Value(true)}})
                  .ok());
  ASSERT_TRUE((*dd)->Initialize().ok());

  CooccurrenceStats stats;
  stats.BindSchema((*dd)->program());
  stats.Rebuild(*(*dd)->db());
  const std::vector<Candidate> candidates =
      GenerateCandidates(stats, CandidateOptions());

  // The planted join is the only candidate with enough support: no Link
  // tuple appears verbatim in PathEv, so copy rules fail the floor, while
  // Link1 x Link2 derives every positively-labeled Path pair.
  const Candidate* chain = nullptr;
  for (const Candidate& candidate : candidates) {
    if (candidate.rule.body.size() == 2) {
      chain = &candidate;
      break;
    }
  }
  ASSERT_NE(chain, nullptr) << "no chain rule proposed";
  EXPECT_EQ(chain->rule.head.predicate, "Path");
  EXPECT_EQ(chain->rule.body[0].predicate, "Link1");
  EXPECT_EQ(chain->rule.body[1].predicate, "Link2");
  EXPECT_EQ(chain->support, 3);
  for (const Candidate& candidate : candidates) {
    EXPECT_LE(candidate.rule.body.size(), 2u);
  }
}

/// Acceptance: the miner promotes the planted rule end-to-end — candidate
/// generation from co-occurrence statistics, a learn-free trial through
/// AddRule (grounding only the candidate), scoring by evidence likelihood,
/// promotion into the live program.
TEST(MiningTest, MinerPromotesPlantedRule) {
  deepdive::serving_thread.AssertHeld();
  auto dd = MakePlanted();
  const uint64_t version_before = dd->program_version();
  const size_t rules_before = dd->NumRules();

  MinerOptions options;
  options.min_likelihood_gain = 1e-6;
  RuleMiner miner(dd.get(), options);
  auto report = miner.Mine(/*max_promotions=*/1);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_EQ(report->promoted.size(), 1u);
  EXPECT_EQ(report->promoted.front(), "mined_0");
  EXPECT_GE(report->candidates_considered, 1u);
  EXPECT_GE(report->candidates_trialed, 1u);
  ASSERT_FALSE(report->trials.empty());
  EXPECT_TRUE(report->trials.front().promoted);
  EXPECT_GT(report->trials.front().gain, 0.0);
  EXPECT_EQ(dd->NumRules(), rules_before + 1);
  EXPECT_GT(dd->program_version(), version_before);
  EXPECT_EQ(report->program_version_after, dd->program_version());

  // The promoted rule is a real program rule: retractable by its label.
  ASSERT_TRUE(dd->RetractRule("mined_0").ok());
  EXPECT_EQ(dd->NumRules(), rules_before);
}

/// A rejected trial must leave no trace: the learn-free AddRule followed by
/// RetractRule restores marginals and program identity bit-for-bit, and the
/// rejected pattern is not re-trialed while its statistics are unchanged.
TEST(MiningTest, RejectedTrialRestoresStateExactly) {
  deepdive::serving_thread.AssertHeld();
  auto dd = MakePlanted();
  const std::vector<double> marginals_before = dd->Query()->marginals;
  const uint64_t fingerprint_before = dd->RulesFingerprint();
  const size_t rules_before = dd->NumRules();

  MinerOptions options;
  options.min_likelihood_gain = 1e9;  // unreachable: every trial is rejected
  RuleMiner miner(dd.get(), options);
  auto report = miner.Mine(/*max_promotions=*/1);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->promoted.empty());
  EXPECT_GE(report->candidates_trialed, 1u);

  EXPECT_EQ(dd->NumRules(), rules_before);
  EXPECT_EQ(dd->RulesFingerprint(), fingerprint_before);
  const std::vector<double> after = dd->Query()->marginals;
  ASSERT_EQ(after.size(), marginals_before.size());
  for (size_t v = 0; v < after.size(); ++v) {
    EXPECT_EQ(marginals_before[v], after[v]) << "var " << v;
  }

  // Rejection memory: unchanged statistics mean no re-trial next pass.
  auto again = miner.Mine(/*max_promotions=*/1);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->candidates_trialed, 0u);

  // ...until the memory is cleared.
  miner.ForgetRejections();
  auto third = miner.Mine(/*max_promotions=*/1);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_GE(third->candidates_trialed, 1u);
}

}  // namespace
}  // namespace deepdive::mining
