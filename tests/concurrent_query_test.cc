// The versioned snapshot query API: ResultView/ResultPublisher semantics,
// DeepDive::Query(), epoch plumbing through UpdateReport, snapshot isolation
// of pinned views (materialized marginals included), and the concurrent
// reader/writer drill (N reader threads hammering Query() while the serving
// thread applies a stream of deltas and async remats swap snapshots). The
// concurrency-heavy cases also run under the ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/deepdive.h"
#include "incremental/engine.h"
#include "incremental/result_view.h"
#include "storage/schema.h"
#include "storage/text_io.h"
#include "util/thread_role.h"

namespace deepdive {
namespace {

using core::DeepDive;
using core::DeepDiveConfig;
using core::UpdateSpec;
using incremental::MaterializationOptions;
using incremental::ResultPublisher;
using incremental::ResultView;

// ---------------------------------------------------------------------------
// ResultView / ResultPublisher unit semantics.
// ---------------------------------------------------------------------------

TEST(ResultPublisherTest, StartsWithCheckedEmptyEpochZeroView) {
  deepdive::serving_thread.AssertHeld();
  ResultPublisher publisher;
  const auto view = publisher.Current();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->epoch, 0u);
  EXPECT_TRUE(view->marginals.empty());
  EXPECT_EQ(view->Fingerprint(), view->content_hash);
}

TEST(ResultPublisherTest, PublishStampsMonotoneEpochsAndChecksums) {
  deepdive::serving_thread.AssertHeld();
  ResultPublisher publisher;
  for (uint64_t i = 1; i <= 3; ++i) {
    auto view = std::make_shared<ResultView>();
    view->marginals = {0.25 * static_cast<double>(i), 0.5};
    EXPECT_EQ(publisher.next_epoch(), i);
    EXPECT_EQ(publisher.Publish(std::move(view)), i);
    const auto current = publisher.Current();
    EXPECT_EQ(current->epoch, i);
    EXPECT_EQ(current->Fingerprint(), current->content_hash);
    EXPECT_EQ(publisher.last_epoch(), i);
  }
  // Different (epoch, marginals) pairs checksum differently — the hash can
  // actually tell torn publications apart.
  auto a = std::make_shared<ResultView>();
  a->marginals = {0.75, 0.5};
  auto b = std::make_shared<ResultView>();
  b->marginals = {0.25, 0.5};
  publisher.Publish(a);
  const uint64_t hash_a = publisher.Current()->content_hash;
  publisher.Publish(b);
  EXPECT_NE(publisher.Current()->content_hash, hash_a);
}

TEST(ResultViewTest, MarginalLookupMatchesIndex) {
  deepdive::serving_thread.AssertHeld();
  ResultView view;
  view.marginals = {0.9, 0.1, 0.7};
  view.relations["R"] = {{{Value(1), Value(2)}, 0.9},
                         {{Value(2), Value(1)}, 0.1},
                         {{Value(3), Value(3)}, 0.7}};
  EXPECT_DOUBLE_EQ(view.MarginalOf("R", {Value(1), Value(2)}), 0.9);
  EXPECT_DOUBLE_EQ(view.MarginalOf("R", {Value(3), Value(3)}), 0.7);
  // Unknown tuple / relation: the 0.5 "unknown variable" convention.
  EXPECT_DOUBLE_EQ(view.MarginalOf("R", {Value(9), Value(9)}), 0.5);
  EXPECT_DOUBLE_EQ(view.MarginalOf("S", {Value(1), Value(2)}), 0.5);
  ASSERT_NE(view.Relation("R"), nullptr);
  EXPECT_EQ(view.Relation("R")->size(), 3u);
  EXPECT_EQ(view.Relation("S"), nullptr);
}

// The entry a scan that renders every tuple would find for `tsv`.
const std::pair<Tuple, double>* ScanTsv(const ResultView& view,
                                        const std::string& relation,
                                        const std::string& tsv) {
  for (const auto& entry : *view.Relation(relation)) {
    const auto line = FormatTsvLine(entry.first);
    if (line.ok() && *line == tsv) return &entry;
  }
  return nullptr;
}

// FindTsv parses and binary-searches, but answers exactly as the scan does:
// canonical text is found, non-canonical text (007, t, +1, 3.0) and a wrong
// arity are not, NULL matches \N, and doubles and a string column's \N
// (the string "\N" and NULL render alike) scan.
TEST(ResultViewTest, FindTsvMatchesRenderedScan) {
  deepdive::serving_thread.AssertHeld();
  ResultView view;
  view.query_relations = {"R", "S", "D"};
  view.query_schemas = {Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}}),
                        Schema({{"name", ValueType::kString}, {"flag", ValueType::kBool}}),
                        Schema({{"x", ValueType::kDouble}, {"y", ValueType::kInt}})};
  view.relations["R"] = {{{Value(1), Value(2)}, 0.1},
                         {{Value(-7), Value(7)}, 0.2},
                         {{Value::Null(), Value(2)}, 0.3},
                         {{Value(int64_t{1} << 40), Value(0)}, 0.4}};
  view.relations["S"] = {{{Value("007"), Value(true)}, 0.5},
                         {{Value("a b"), Value(false)}, 0.6},
                         {{Value("\\N"), Value(true)}, 0.7},
                         {{Value(""), Value::Null()}, 0.8},
                         {{Value("tab\tin"), Value(true)}, 0.9}};
  view.relations["D"] = {{{Value(0.1), Value(1)}, 0.15},
                         {{Value(3.0), Value(2)}, 0.25},
                         {{Value(1e-7), Value::Null()}, 0.35}};
  for (auto& [name, entries] : view.relations) {
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  const std::vector<std::pair<std::string, std::string>> requests = {
      {"R", "1\t2"},      {"R", "-7\t7"},     {"R", "\\N\t2"},   {"R", "1099511627776\t0"},
      {"R", "01\t2"},     {"R", "+1\t2"},     {"R", " 1\t2"},     {"R", "1\t2\t3"},
      {"R", "1"},         {"R", ""},          {"R", "2\t1"},      {"R", "x\t2"},
      {"S", "007\ttrue"}, {"S", "007\tt"},    {"S", "007\t1"},    {"S", "a b\tfalse"},
      {"S", "\\N\ttrue"}, {"S", "\t\\N"},   {"S", "\tfalse"},   {"S", "7\ttrue"},
      {"S", "tab\tin\ttrue"},                {"D", "0.1\t1"},    {"D", "3\t2"},
      {"D", "3.0\t2"},    {"D", "1e-07\t\\N"}, {"D", "1e-7\t\\N"}, {"D", "0.10\t1"}};
  size_t found = 0;
  for (const auto& [relation, tsv] : requests) {
    const auto* expected = ScanTsv(view, relation, tsv);
    EXPECT_EQ(view.FindTsv(relation, tsv), expected) << relation << " '" << tsv << "'";
    found += expected != nullptr ? 1 : 0;
  }
  EXPECT_EQ(found, 11u);
  EXPECT_EQ(view.FindTsv("T", "1\t2"), nullptr);
}

// ---------------------------------------------------------------------------
// DeepDive::Query semantics.
// ---------------------------------------------------------------------------

constexpr const char* kProgram = R"(
  relation Person(sent: int, mention: int).
  relation Phrase(m1: int, m2: int, words: string).
  query relation HasSpouse(m1: int, m2: int).
  evidence HasSpouseLabel(m1: int, m2: int, l: bool) for HasSpouse.
  rule CAND: HasSpouse(m1, m2) :-
    Person(s, m1), Person(s, m2), m1 != m2.
  factor FE1: HasSpouse(m1, m2) :- Phrase(m1, m2, w)
    weight = w(w) semantics = ratio.
)";

std::unique_ptr<DeepDive> MakeDeepDive(const DeepDiveConfig& config,
                                       size_t sentences = 3)
    REQUIRES(serving_thread) {
  auto dd = DeepDive::Create(kProgram, config);
  EXPECT_TRUE(dd.ok()) << dd.status().ToString();
  std::vector<Tuple> persons, phrases;
  for (size_t s = 1; s <= sentences; ++s) {
    const auto sent = static_cast<int64_t>(s);
    persons.push_back({Value(sent), Value(sent * 10)});
    persons.push_back({Value(sent), Value(sent * 10 + 1)});
    phrases.push_back({Value(sent * 10), Value(sent * 10 + 1),
                       Value(s % 2 ? "and his wife" : "met with")});
  }
  EXPECT_TRUE((*dd)->LoadRows("Person", persons).ok());
  EXPECT_TRUE((*dd)->LoadRows("Phrase", phrases).ok());
  EXPECT_TRUE((*dd)
                  ->LoadRows("HasSpouseLabel",
                             {{Value(10), Value(11), Value(true)}})
                  .ok());
  return std::move(dd).value();
}

TEST(DeepDiveQueryTest, QueryIsEmptyEpochZeroBeforeInitialize) {
  deepdive::serving_thread.AssertHeld();
  auto dd = MakeDeepDive(core::FastTestConfig());
  const auto view = dd->Query();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->epoch, 0u);
  EXPECT_DOUBLE_EQ(view->MarginalOf("HasSpouse", {Value(10), Value(11)}), 0.5);
  EXPECT_EQ(view->materialized_marginals, nullptr);
}

TEST(DeepDiveQueryTest, InitializePublishesViewOfServingSnapshot) {
  deepdive::serving_thread.AssertHeld();
  auto dd = MakeDeepDive(core::FastTestConfig());
  ASSERT_TRUE(dd->Initialize().ok());

  const auto view = dd->Query();
  EXPECT_EQ(view->epoch, 1u);
  EXPECT_EQ(view->report.label, "initialize");
  EXPECT_EQ(view->report.epoch, 1u);
  EXPECT_EQ(view->Fingerprint(), view->content_hash);

  // The materialization fields copy the engine's serving snapshot, and the
  // Pr(0) marginals are that snapshot's own vector, pinned, not copied.
  const auto snapshot = dd->incremental_engine()->snapshot();
  EXPECT_EQ(snapshot->generation, 1u);  // incremental mode materialized
  EXPECT_EQ(view->snapshot_generation, snapshot->generation);
  EXPECT_GT(view->materialization.samples_collected, 0u);
  EXPECT_EQ(view->materialization.samples_collected,
            snapshot->stats.samples_collected);
  EXPECT_EQ(view->samples_remaining, snapshot->store.remaining());
  EXPECT_EQ(view->materialized_marginals.get(),
            &snapshot->materialized_marginals);

  // The relation index answers for the marginal vector it was built from.
  const auto* entries = view->Relation("HasSpouse");
  ASSERT_NE(entries, nullptr);
  EXPECT_FALSE(entries->empty());
  for (const auto& [tuple, marginal] : *entries) {
    EXPECT_DOUBLE_EQ(view->MarginalOf("HasSpouse", tuple), marginal);
  }
}

TEST(DeepDiveQueryTest, PinnedViewSurvivesUpdateUnchanged) {
  deepdive::serving_thread.AssertHeld();
  auto dd = MakeDeepDive(core::FastTestConfig());
  ASSERT_TRUE(dd->Initialize().ok());

  const auto before = dd->Query();
  const std::vector<double> before_marginals = before->marginals;
  const uint64_t before_epoch = before->epoch;

  // New sentence + feature + a second spouse label: marginals move.
  UpdateSpec update;
  update.label = "U1";
  update.inserts["Person"] = {{Value(9), Value(90)}, {Value(9), Value(91)}};
  update.inserts["Phrase"] = {{Value(90), Value(91), Value("and his wife")}};
  auto report = dd->ApplyUpdate(update);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->epoch, 2u);

  // Snapshot isolation: the pinned view still reads its original epoch's
  // marginals, bit for bit.
  EXPECT_EQ(before->epoch, before_epoch);
  EXPECT_EQ(before->marginals, before_marginals);
  EXPECT_EQ(before->Fingerprint(), before->content_hash);
  // The new pair exists at epoch 2 but not in the pinned epoch-1 view.
  EXPECT_DOUBLE_EQ(before->MarginalOf("HasSpouse", {Value(90), Value(91)}), 0.5);
  const auto after = dd->Query();
  EXPECT_EQ(after->epoch, 2u);
  EXPECT_EQ(after->report.label, "U1");
  EXPECT_NE(after->MarginalOf("HasSpouse", {Value(90), Value(91)}), 0.5);
}

TEST(DeepDiveQueryTest, HistoryEpochsAreStrictlyIncreasing) {
  deepdive::serving_thread.AssertHeld();
  auto dd = MakeDeepDive(core::FastTestConfig());
  ASSERT_TRUE(dd->Initialize().ok());
  uint64_t last = 1;  // epoch 1 was Initialize
  for (int u = 0; u < 3; ++u) {
    UpdateSpec update;
    update.label = "A" + std::to_string(u);
    update.analysis_only = true;
    auto report = dd->ApplyUpdate(update);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->epoch, last + 1);
    last = report->epoch;
  }
  EXPECT_EQ(dd->Query()->epoch, last);
  EXPECT_EQ(dd->Query()->report.label, "A2");
}

TEST(DeepDiveQueryTest, RerunModePublishesViewsToo) {
  deepdive::serving_thread.AssertHeld();
  DeepDiveConfig config = core::FastTestConfig();
  config.mode = core::ExecutionMode::kRerun;
  auto dd = MakeDeepDive(config);
  ASSERT_TRUE(dd->Initialize().ok());
  const auto view = dd->Query();
  EXPECT_EQ(view->epoch, 1u);
  EXPECT_EQ(view->snapshot_generation, 0u);  // no materialization in Rerun
  EXPECT_EQ(view->materialized_marginals, nullptr);
  UpdateSpec update;
  update.label = "U1";
  update.inserts["Phrase"] = {{Value(20), Value(21), Value("wed")}};
  auto report = dd->ApplyUpdate(update);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->epoch, 2u);
  EXPECT_EQ(dd->Query()->epoch, 2u);
}

// ---------------------------------------------------------------------------
// The serving snapshot behind the views.
// ---------------------------------------------------------------------------

TEST(DeepDiveQueryTest, PinnedViewKeepsRetiredSnapshotAlive) {
  deepdive::serving_thread.AssertHeld();
  auto dd = MakeDeepDive(core::FastTestConfig());
  ASSERT_TRUE(dd->Initialize().ok());

  const auto pinned = dd->Query();
  ASSERT_NE(pinned->materialized_marginals, nullptr);
  const std::vector<double> pr0 = *pinned->materialized_marginals;
  const auto stats = pinned->materialization;
  ASSERT_EQ(pinned->snapshot_generation, 1u);

  // Rematerialize with a different seed and sample count: the engine swaps
  // snapshots and retires the old one, which now lives only through the
  // pinned view. The view still reads the old Pr(0) marginals and stats.
  MaterializationOptions remat = dd->config().materialization;
  remat.seed = 777;
  remat.num_samples = 500;
  ASSERT_TRUE(dd->incremental_engine()->Materialize(remat).ok());
  EXPECT_EQ(dd->incremental_engine()->snapshot()->generation, 2u);
  EXPECT_EQ(pinned->materialized_marginals.use_count(), 1);

  EXPECT_EQ(*pinned->materialized_marginals, pr0);
  EXPECT_EQ(pinned->materialization.samples_collected, stats.samples_collected);
  EXPECT_EQ(pinned->materialization.sample_bytes, stats.sample_bytes);
  EXPECT_EQ(pinned->snapshot_generation, 1u);
  EXPECT_EQ(pinned->Fingerprint(), pinned->content_hash);

  // The swap shows in the next publication.
  UpdateSpec analysis;
  analysis.label = "A1";
  analysis.analysis_only = true;
  ASSERT_TRUE(dd->ApplyUpdate(analysis).ok());
  const auto after = dd->Query();
  EXPECT_EQ(after->snapshot_generation, 2u);
  EXPECT_EQ(after->materialization.samples_collected, 500u);
  ASSERT_NE(after->materialized_marginals, nullptr);
  EXPECT_NE(after->materialized_marginals, pinned->materialized_marginals);
}

TEST(DeepDiveQueryTest, InstallOutsideUpdateShowsAtNextPublication) {
  deepdive::serving_thread.AssertHeld();
  DeepDiveConfig config = core::FastTestConfig();
  config.materialization.async = true;
  auto dd = MakeDeepDive(config);
  ASSERT_TRUE(dd->Initialize().ok());

  // Initialize returned before the background build installed anything.
  const auto initial = dd->Query();
  EXPECT_EQ(initial->snapshot_generation, 0u);
  EXPECT_EQ(initial->materialization.samples_collected, 0u);
  ASSERT_NE(initial->materialized_marginals, nullptr);
  EXPECT_TRUE(initial->materialized_marginals->empty());

  // The wait installs the snapshot in the engine; DeepDive publishes no view
  // for it.
  ASSERT_TRUE(dd->incremental_engine()->WaitForMaterialization().ok());
  const auto snapshot = dd->incremental_engine()->snapshot();
  EXPECT_EQ(snapshot->generation, 1u);
  EXPECT_GT(snapshot->stats.samples_collected, 0u);
  EXPECT_EQ(dd->Query(), initial);

  // The next update's view carries it.
  UpdateSpec analysis;
  analysis.label = "A1";
  analysis.analysis_only = true;
  auto report = dd->ApplyUpdate(analysis);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const auto after = dd->Query();
  EXPECT_EQ(after->epoch, report->epoch);
  EXPECT_EQ(after->snapshot_generation, 1u);
  EXPECT_EQ(after->materialization.samples_collected,
            snapshot->stats.samples_collected);
  EXPECT_EQ(after->materialized_marginals.get(),
            &snapshot->materialized_marginals);
  // Nothing drifted since the install, so the update is served from the
  // materialized marginals themselves.
  EXPECT_EQ(report->strategy, incremental::Strategy::kSampling);
  EXPECT_DOUBLE_EQ(report->acceptance_rate, 1.0);
}

// ---------------------------------------------------------------------------
// The concurrent reader/writer drill (also a TSan target): N reader threads
// hammer Query() while the serving thread applies a stream of updates and
// self-scheduled background remats swap snapshots underneath.
// ---------------------------------------------------------------------------

TEST(ConcurrentQueryTest, ReadersSeeConsistentViewsWhileUpdatesStream) {
  deepdive::serving_thread.AssertHeld();
  DeepDiveConfig config = core::FastTestConfig();
  config.materialization.num_samples = 300;
  config.materialization.gibbs_burn_in = 10;
  config.materialization.variational.num_samples = 40;
  config.materialization.variational.fit_epochs = 15;
  config.materialization.async = true;
  config.materialization.remat_after_updates = 2;  // force swaps mid-stream
  config.engine.mh_target_steps = 60;
  config.engine.gibbs.burn_in_sweeps = 5;
  config.engine.gibbs.sample_sweeps = 80;
  config.engine.rerun_gibbs.burn_in_sweeps = 5;
  config.engine.rerun_gibbs.sample_sweeps = 80;
  auto dd = MakeDeepDive(config, /*sentences=*/4);
  ASSERT_TRUE(dd->Initialize().ok());

  constexpr size_t kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  std::atomic<uint64_t> total_queries{0};
  // analysis:allow(raw-thread): reader threads are the subject under
  // test — they must be plain threads hammering Query(), not ThreadPool tasks.
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      uint64_t last_epoch = 0;
      uint64_t queries = 0;
      // ordering: relaxed — quit hint polled between queries; the join below
      // is the synchronization point for the tallies.
      while (!stop.load(std::memory_order_relaxed)) {
        const auto view = dd->Query();
        // Internal consistency: the epoch matches the marginal vector it
        // was published with (checksum), values are probabilities, and the
        // relation index answers its own entries.
        if (view->Fingerprint() != view->content_hash) {
          violation.store(true);
          break;
        }
        if (view->epoch < last_epoch) {
          violation.store(true);  // epochs must be monotone per reader
          break;
        }
        last_epoch = view->epoch;
        bool ok = true;
        for (const double m : view->marginals) {
          ok &= m >= 0.0 && m <= 1.0;
        }
        const auto* entries = view->Relation("HasSpouse");
        if (entries != nullptr && !entries->empty()) {
          const auto& probe = (*entries)[queries % entries->size()];
          ok &= view->MarginalOf("HasSpouse", probe.first) == probe.second;
        }
        if (view->materialized_marginals != nullptr) {
          // Reading the pinned snapshot's Pr(0) marginals must stay safe
          // across swaps (it keeps the retired snapshot alive).
          for (const double m : *view->materialized_marginals) {
            ok &= m >= 0.0 && m <= 1.0;
          }
        }
        if (!ok) {
          violation.store(true);
          break;
        }
        ++queries;
      }
      total_queries.fetch_add(queries);
    });
  }

  // The update stream: data inserts (structural deltas), a rule update, and
  // analysis steps, with remat_after_updates swapping snapshots underneath.
  uint64_t expected_epoch = 1;
  for (int u = 0; u < 8; ++u) {
    UpdateSpec update;
    update.label = "U" + std::to_string(u);
    if (u % 3 == 2) {
      update.analysis_only = true;
    } else {
      const auto m = static_cast<int64_t>(100 + u * 10);
      update.inserts["Person"] = {{Value(100 + u), Value(m)},
                                  {Value(100 + u), Value(m + 1)}};
      update.inserts["Phrase"] = {
          {Value(m), Value(m + 1), Value(u % 2 ? "and his wife" : "met with")}};
    }
    auto report = dd->ApplyUpdate(update);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->epoch, ++expected_epoch);
    if (u == 1 || u == 5) {
      // Install whatever build is in flight, so at least two snapshots
      // (the initial build and a remat the count trigger then schedules)
      // swap in while readers hold views pinning their predecessors.
      ASSERT_TRUE(dd->incremental_engine()->WaitForMaterialization().ok());
    }
  }
  ASSERT_TRUE(dd->incremental_engine()->WaitForMaterialization().ok());

  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_FALSE(violation.load());
  EXPECT_GT(total_queries.load(), 0u);
  // The final view reflects the whole stream.
  EXPECT_EQ(dd->Query()->epoch, expected_epoch);
  EXPECT_EQ(dd->Query()->report.label, "U7");
  EXPECT_GE(dd->Query()->snapshot_generation, 2u);
}

}  // namespace
}  // namespace deepdive
