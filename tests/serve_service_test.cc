// The service tier: TenantRegistry + TenantInstance. Multi-tenant isolation
// (two different programs, interleaved updates and queries, epochs and
// marginals never cross), admission control (queue saturation sheds one
// tenant without touching the other's serving path), writer lifecycle
// (stop/drain, failed initialization), and reader pins surviving tenant
// shutdown. The saturation drill also runs under the TSan CI job.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/deepdive.h"
#include "factor/compiled_graph.h"
#include "serve/comm/messages.h"
#include "serve/handlers/handlers.h"
#include "serve/service/flags.h"
#include "serve/service/registry.h"
#include "serve/service/tenant.h"
#include "util/bounded_queue.h"
#include "util/thread_pool.h"

namespace deepdive::serve::service {
namespace {

constexpr char kSpouseProgram[] = R"(
relation Person(sent: int, mention: int).
query relation HasSpouse(m1: int, m2: int).
evidence HasSpouseLabel(m1: int, m2: int, l: bool) for HasSpouse.
rule CAND: HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2), m1 != m2.
factor PRIOR: HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2), m1 != m2
  weight = 0.5 semantics = logical.
)";

constexpr char kVoteProgram[] = R"(
relation Endorses(src: int, dst: int).
query relation Trusted(p: int).
evidence TrustedLabel(p: int, l: bool) for Trusted.
rule CAND: Trusted(p) :- Endorses(s, p).
factor FE: Trusted(p) :- Endorses(s, p) weight = w(s) semantics = ratio.
)";

comm::TenantConfig FastConfig() {
  comm::TenantConfig config;
  config.epochs = 5;
  return config;
}

std::unique_ptr<TenantInstance> MakeSpouseTenant(
    comm::TenantConfig config = FastConfig()) {
  std::vector<comm::DataPayload> data;
  data.push_back({"Person", "1\t10\n1\t11\n"});
  data.push_back({"HasSpouseLabel", "10\t11\ttrue\n"});
  return std::make_unique<TenantInstance>("spouse", kSpouseProgram, config,
                                          std::move(data));
}

std::unique_ptr<TenantInstance> MakeVoteTenant(
    comm::TenantConfig config = FastConfig()) {
  std::vector<comm::DataPayload> data;
  data.push_back({"Endorses", "1\t100\n2\t100\n"});
  data.push_back({"TrustedLabel", "100\ttrue\n"});
  return std::make_unique<TenantInstance>("vote", kVoteProgram, config,
                                          std::move(data));
}

// ---------------------------------------------------------------------------
// Multi-tenant isolation.

TEST(TenantIsolationTest, TwoProgramsServeIndependently) {
  auto spouse = MakeSpouseTenant();
  auto vote = MakeVoteTenant();
  ASSERT_TRUE(spouse->WaitReady().ok());
  ASSERT_TRUE(vote->WaitReady().ok());

  // Each tenant's view holds exactly its own schema — no cross-pollination.
  const auto spouse_view = spouse->deepdive()->Query();
  const auto vote_view = vote->deepdive()->Query();
  EXPECT_EQ(spouse_view->epoch, 1u);
  EXPECT_EQ(vote_view->epoch, 1u);
  EXPECT_TRUE(spouse_view->relations.count("HasSpouse"));
  EXPECT_FALSE(spouse_view->relations.count("Trusted"));
  EXPECT_TRUE(vote_view->relations.count("Trusted"));
  EXPECT_FALSE(vote_view->relations.count("HasSpouse"));

  // An update to one tenant advances only that tenant's epoch; the other's
  // published view is untouched (same epoch, same content hash).
  const uint64_t vote_hash_before = vote->deepdive()->Query()->content_hash;
  comm::UpdateRequest grow;
  grow.inserts.push_back({"Person", "2\t20\n2\t21\n"});
  auto applied = spouse->Submit(std::move(grow));
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->epoch, 2u);
  EXPECT_EQ(spouse->deepdive()->Query()->epoch, 2u);
  const auto vote_after = vote->deepdive()->Query();
  EXPECT_EQ(vote_after->epoch, 1u);
  EXPECT_EQ(vote_after->content_hash, vote_hash_before);

  spouse->Stop();
  vote->Stop();
}

TEST(TenantIsolationTest, InterleavedUpdatesKeepPerTenantEpochsMonotone) {
  auto spouse = MakeSpouseTenant();
  auto vote = MakeVoteTenant();
  ASSERT_TRUE(spouse->WaitReady().ok());
  ASSERT_TRUE(vote->WaitReady().ok());

  // Interleave: spouse, vote, spouse, vote. Each tenant sees only its own
  // sequence (2, 3), never the other's.
  for (uint64_t round = 0; round < 2; ++round) {
    comm::UpdateRequest grow_spouse;
    grow_spouse.inserts.push_back(
        {"Person", std::to_string(round + 5) + "\t" +
                       std::to_string(50 + round) + "\n" +
                       std::to_string(round + 5) + "\t" +
                       std::to_string(60 + round) + "\n"});
    auto spouse_applied = spouse->Submit(std::move(grow_spouse));
    ASSERT_TRUE(spouse_applied.ok()) << spouse_applied.status().ToString();
    EXPECT_EQ(spouse_applied->epoch, round + 2);

    comm::UpdateRequest grow_vote;
    grow_vote.inserts.push_back(
        {"Endorses", "3\t" + std::to_string(200 + round) + "\n"});
    auto vote_applied = vote->Submit(std::move(grow_vote));
    ASSERT_TRUE(vote_applied.ok()) << vote_applied.status().ToString();
    EXPECT_EQ(vote_applied->epoch, round + 2);

    // Queries in between ride the lock-free pin path and see exactly the
    // epoch their tenant has published.
    EXPECT_EQ(spouse->deepdive()->Query()->epoch, round + 2);
    EXPECT_EQ(vote->deepdive()->Query()->epoch, round + 2);
  }
  EXPECT_EQ(spouse->GetStatus().updates_applied, 2u);
  EXPECT_EQ(vote->GetStatus().updates_applied, 2u);
}

// ---------------------------------------------------------------------------
// Admission control: saturating one tenant's queue must not touch the other.

TEST(TenantIsolationTest, QueueSaturationShedsWithoutAffectingOtherTenant) {
  comm::TenantConfig saturable = FastConfig();
  saturable.queue_capacity = 4;
  saturable.shed_watermark = 2;
  saturable.retry_after_ms = 77;
  auto spouse = MakeSpouseTenant(saturable);
  auto vote = MakeVoteTenant();
  ASSERT_TRUE(spouse->WaitReady().ok());
  ASSERT_TRUE(vote->WaitReady().ok());

  // Deterministic stall: the writer signals `entered` at the top of each
  // update job and then blocks on `release` — rendezvous channels, no sleeps.
  BoundedQueue<int> entered(8);
  BoundedQueue<int> release(8);
  spouse->SetPreUpdateHookForTest([&entered, &release] {
    entered.Push(0);
    release.Pop();
  });

  auto make_update = [](int i) {
    comm::UpdateRequest update;
    update.label = "stall#" + std::to_string(i);
    update.inserts.push_back(
        {"Person", std::to_string(80 + i) + "\t" + std::to_string(90 + i) +
                       "\n" + std::to_string(80 + i) + "\t" +
                       std::to_string(95 + i) + "\n"});
    return update;
  };

  ThreadPool submitters(3, /*inline_when_single=*/false);
  // U1 is popped by the writer, which then stalls inside the hook...
  submitters.Submit([&spouse, &make_update] {
    auto result = spouse->Submit(make_update(1));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  });
  ASSERT_TRUE(entered.Pop().has_value());  // ...confirmed: queue is empty.
  // U2/U3 fill the queue up to the shed watermark (depth 2).
  for (int i = 2; i <= 3; ++i) {
    submitters.Submit([&spouse, &make_update, i] {
      auto result = spouse->Submit(make_update(i));
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    });
  }
  while (spouse->GetStatus().queue_depth < 2) {
    // The two submitters above only block on their futures after a
    // successful TryPush; depth reaches 2 promptly.
    std::this_thread::yield();
  }

  // U4 must shed: structured Unavailable, counted, and non-blocking.
  auto shed = spouse->Submit(make_update(4));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(spouse->GetStatus().updates_shed, 1u);
  EXPECT_EQ(spouse->config().retry_after_ms, 77u);

  // The other tenant's serving path is untouched while spouse is saturated:
  // queries pin views and an update applies, start to finish.
  EXPECT_EQ(vote->deepdive()->Query()->epoch, 1u);
  comm::UpdateRequest vote_update;
  vote_update.inserts.push_back({"Endorses", "4\t300\n"});
  auto vote_applied = vote->Submit(std::move(vote_update));
  ASSERT_TRUE(vote_applied.ok()) << vote_applied.status().ToString();
  EXPECT_EQ(vote_applied->epoch, 2u);

  // Unstall: release U1, then U2 and U3 as the writer reaches them.
  for (int i = 0; i < 3; ++i) release.Push(0);
  submitters.Wait();
  while (entered.TryPop().has_value()) {
  }
  EXPECT_EQ(spouse->GetStatus().updates_applied, 3u);
  EXPECT_EQ(spouse->deepdive()->Query()->epoch, 4u);

  spouse->SetPreUpdateHookForTest(nullptr);
  spouse->Stop();
  vote->Stop();
}

// ---------------------------------------------------------------------------
// Lifecycle.

/// Submits one request of every type, each valid for a running spouse
/// tenant, and expects each to fail with `code`.
void ExpectEveryRequestRejected(TenantInstance* tenant, StatusCode code) {
  comm::UpdateRequest update;
  update.inserts.push_back({"Person", "7\t70\n7\t71\n"});
  EXPECT_EQ(tenant->Submit(update).status().code(), code);
  EXPECT_EQ(tenant->Submit(comm::SaveGraphRequest{::testing::TempDir() + "never.bin"})
                .status()
                .code(),
            code);
  EXPECT_EQ(tenant->Submit(comm::AddRuleRequest{"factor EXTRA: HasSpouse(m1, m2) :- "
                                                "Person(s, m1), Person(s, m2), m1 != m2 "
                                                "weight = 0.5 semantics = logical."})
                .status()
                .code(),
            code);
  EXPECT_EQ(tenant->Submit(comm::RetractRuleRequest{"PRIOR"}).status().code(), code);
  EXPECT_EQ(tenant->Submit(comm::MineRequest{}).status().code(), code);
  EXPECT_EQ(tenant->Submit(TenantInstance::DrainRequest{}).status().code(), code);
}

TEST(TenantInstanceTest, StopRejectsSubsequentWorkButKeepsPinsAlive) {
  auto spouse = MakeSpouseTenant();
  ASSERT_TRUE(spouse->WaitReady().ok());
  // A reader grabs the engine before shutdown...
  std::shared_ptr<const core::DeepDive> dd = spouse->deepdive();
  const auto pinned = dd->Query();
  const uint64_t pinned_epoch = pinned->epoch;

  spouse->Stop();
  EXPECT_EQ(spouse->deepdive(), nullptr);
  EXPECT_FALSE(spouse->GetStatus().ready);

  ExpectEveryRequestRejected(spouse.get(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(spouse->GetStatus().updates_shed, 0u);

  // ...and the pin outlives Stop(): the view stays fully readable.
  EXPECT_EQ(pinned->epoch, pinned_epoch);
  EXPECT_EQ(pinned->Fingerprint(), pinned->content_hash);
  EXPECT_FALSE(pinned->relations.empty());
}

TEST(TenantInstanceTest, FailedProgramReportsAndRejectsFast) {
  TenantInstance broken("broken", "this is not a deepdive program", FastConfig(),
                        {});
  const Status ready = broken.WaitReady();
  ASSERT_FALSE(ready.ok());
  EXPECT_TRUE(broken.GetStatus().failed);
  EXPECT_EQ(broken.deepdive(), nullptr);
  EXPECT_FALSE(broken.InitInfo().ok());

  // Jobs against a failed tenant fail fast instead of hanging, whatever
  // their type.
  ExpectEveryRequestRejected(&broken, StatusCode::kFailedPrecondition);
  EXPECT_EQ(broken.GetStatus().updates_applied, 0u);
  broken.Stop();
}

TEST(TenantInstanceTest, BadBaseDataFailsInitialization) {
  std::vector<comm::DataPayload> data;
  data.push_back({"Person", "not-a-number\toops\n"});
  TenantInstance bad("bad-data", kSpouseProgram, FastConfig(), std::move(data));
  const Status ready = bad.WaitReady();
  ASSERT_FALSE(ready.ok());
  // The parse error names relation and line for operators.
  EXPECT_NE(ready.message().find("Person:1"), std::string::npos)
      << ready.ToString();
  bad.Stop();
}

TEST(TenantInstanceTest, RejectedUpdateLeavesTheProgramUnchanged) {
  auto spouse = MakeSpouseTenant();
  ASSERT_TRUE(spouse->WaitReady().ok());
  const comm::TenantStatus before = spouse->GetStatus();

  // The update's rules declare the relation its row targets, and the row is
  // malformed: nothing may commit, the rules included.
  comm::UpdateRequest bad;
  bad.rules = R"(
relation Feature(a: int, b: int, f: string).
factor FEAT: HasSpouse(a, b) :- Feature(a, b, f) weight = w(f).
)";
  bad.inserts.push_back({"Feature", "1\tnot_an_int\tx\n"});
  comm::UpdateRequest good = bad;
  good.inserts[0].tsv = "10\t11\twife\n";
  const auto rejected = spouse->Submit(std::move(bad));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  const comm::TenantStatus after = spouse->GetStatus();
  EXPECT_EQ(after.epoch, before.epoch);
  EXPECT_EQ(after.program_version, before.program_version);
  EXPECT_EQ(after.rule_count, before.rule_count);
  EXPECT_EQ(after.updates_applied, before.updates_applied);

  // A well-formed row applies the rules and the data as one update: one
  // epoch.
  const auto applied = spouse->Submit(std::move(good));
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->epoch, before.epoch + 1);
  EXPECT_EQ(spouse->GetStatus().rule_count, before.rule_count + 1);
  spouse->Stop();
}

// A wire update carrying rules and the rows of the relation they declare is
// one ApplyUpdate: one epoch, and the graph of an in-process DeepDive given
// the same update.
TEST(TenantInstanceTest, UpdateWithRulesAndRowsIsOneApplyUpdate) {
  auto spouse = MakeSpouseTenant();
  ASSERT_TRUE(spouse->WaitReady().ok());
  const uint64_t epoch = spouse->GetStatus().epoch;
  comm::UpdateRequest request;
  request.rules = R"(
relation Feature(a: int, b: int, f: string).
factor FEAT: HasSpouse(a, b) :- Feature(a, b, f) weight = w(f).
)";
  request.inserts.push_back({"Feature", "10\t11\twife\n"});
  core::UpdateSpec spec;
  spec.add_rules = request.rules;
  spec.inserts["Feature"] = {{Value(10), Value(11), Value("wife")}};
  const auto applied = spouse->Submit(std::move(request));
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->epoch, epoch + 1);
  const std::string path = ::testing::TempDir() + "one_update_graph.bin";
  const auto saved = spouse->Submit(comm::SaveGraphRequest{path});
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  spouse->Stop();
  std::remove(path.c_str());

  // The tenant's engine settings (TenantInstance::BuildEngine) and rows.
  deepdive::serving_thread.AssertHeld();
  core::DeepDiveConfig config;
  config.seed = FastConfig().seed;
  config.learner.epochs = FastConfig().epochs;
  config.parallelism = {.num_threads = 1, .num_replicas = 1, .sync_every_sweeps = 50};
  auto dd = core::DeepDive::Create(kSpouseProgram, config);
  ASSERT_TRUE(dd.ok()) << dd.status().ToString();
  ASSERT_TRUE((*dd)->LoadRows("Person", {{Value(1), Value(10)}, {Value(1), Value(11)}}).ok());
  ASSERT_TRUE((*dd)->LoadRows("HasSpouseLabel", {{Value(10), Value(11), Value(true)}}).ok());
  ASSERT_TRUE((*dd)->Initialize().ok());
  const auto report = (*dd)->ApplyUpdate(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->epoch, applied->epoch);
  EXPECT_EQ(saved->checksum,
            factor::CompiledGraph::Compile((*dd)->ground().graph).Checksum());
}

// A wire update may not add a factor rule under a label already in use; the
// rejection leaves the tenant as it was.
TEST(TenantInstanceTest, RepeatedFactorLabelIsRejected) {
  auto spouse = MakeSpouseTenant();
  ASSERT_TRUE(spouse->WaitReady().ok());
  comm::UpdateRequest request;
  request.rules = R"(
factor FEAT: HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2), m1 != m2
  weight = 0.5 semantics = logical.
)";
  ASSERT_TRUE(spouse->Submit(request).ok());
  const comm::TenantStatus before = spouse->GetStatus();
  const auto rejected = spouse->Submit(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kAlreadyExists);
  const comm::TenantStatus after = spouse->GetStatus();
  EXPECT_EQ(after.epoch, before.epoch);
  EXPECT_EQ(after.program_version, before.program_version);
  EXPECT_EQ(after.rule_count, before.rule_count);
  EXPECT_EQ(after.rules_fingerprint, before.rules_fingerprint);
  EXPECT_EQ(after.updates_applied, before.updates_applied);
  spouse->Stop();
}

TEST(TenantInstanceTest, DrainReportsMaterializationState) {
  comm::TenantConfig config = FastConfig();
  config.async_materialize = true;
  auto spouse = MakeSpouseTenant(config);
  ASSERT_TRUE(spouse->WaitReady().ok());
  // No update has run, so the initial background build is installed inside
  // this drain, after the last published view: the report must come from
  // the engine's snapshot, not from Query().
  auto first = spouse->Submit(TenantInstance::DrainRequest{});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->snapshot_generation, 1u);
  EXPECT_GT(first->samples_collected, 0u);

  comm::UpdateRequest grow;
  grow.inserts.push_back({"Person", "3\t30\n3\t31\n"});
  ASSERT_TRUE(spouse->Submit(std::move(grow)).ok());
  auto drained = spouse->Submit(TenantInstance::DrainRequest{});
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  EXPECT_GT(drained->samples_collected, 0u);
  spouse->Stop();
}

// ---------------------------------------------------------------------------
// Writer verbs through the handler tier.

/// One request of each writer verb for `tenant`, each valid for a running
/// spouse tenant and independent of the others' order.
std::vector<comm::Request> WriterRequests(const std::string& tenant) {
  comm::UpdateRequest update;
  update.inserts.push_back({"Person", "7\t70\n7\t71\n"});
  std::vector<comm::Request> requests(5);
  requests[0].body = update;
  requests[1].body = comm::SaveGraphRequest{::testing::TempDir() + "writer_verbs.bin"};
  requests[2].body = comm::AddRuleRequest{
      "factor EXTRA: HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2), m1 != m2 "
      "weight = 0.5 semantics = logical."};
  requests[3].body = comm::RetractRuleRequest{"PRIOR"};
  requests[4].body = comm::MineRequest{};
  for (comm::Request& request : requests) request.tenant = tenant;
  return requests;
}

TEST(WriterVerbTest, FailedTenantAnswersEveryWriterVerbWithOneCode) {
  TenantRegistry registry;
  handlers::Dispatcher dispatcher(&registry);
  comm::Request create;
  create.body = comm::CreateTenantRequest{"broken", "this is not a deepdive program",
                                          FastConfig(), {}};
  ASSERT_FALSE(dispatcher.Dispatch(create).ok());
  ASSERT_TRUE(registry.Find("broken")->GetStatus().failed);

  for (const comm::Request& request : WriterRequests("broken")) {
    const comm::Response response = dispatcher.Dispatch(request);
    EXPECT_EQ(response.code, StatusCode::kFailedPrecondition)
        << comm::VerbName(request.verb()) << ": " << response.message;
    EXPECT_EQ(response.retry_after_ms, 0u) << comm::VerbName(request.verb());
  }
  registry.StopAll();
}

TEST(WriterVerbTest, OnlyAnUpdateShedsWithRetryAfter) {
  comm::TenantConfig saturable = FastConfig();
  saturable.queue_capacity = 6;
  saturable.shed_watermark = 1;
  saturable.retry_after_ms = 77;
  TenantRegistry registry;
  handlers::Dispatcher dispatcher(&registry);
  comm::Request create;
  create.body = comm::CreateTenantRequest{
      "spouse", kSpouseProgram, saturable,
      {{"Person", "1\t10\n1\t11\n"}, {"HasSpouseLabel", "10\t11\ttrue\n"}}};
  ASSERT_TRUE(dispatcher.Dispatch(create).ok());
  TenantInstance* spouse = registry.Find("spouse");

  // The writer stalls at the top of each update, as in the saturation drill.
  BoundedQueue<int> entered(8);
  BoundedQueue<int> release(8);
  spouse->SetPreUpdateHookForTest([&entered, &release] {
    entered.Push(0);
    release.Pop();
  });
  const std::vector<comm::Request> requests = WriterRequests("spouse");
  ThreadPool submitters(6, /*inline_when_single=*/false);
  auto dispatch_ok = [&dispatcher](const comm::Request& request) {
    const comm::Response response = dispatcher.Dispatch(request);
    EXPECT_TRUE(response.ok()) << comm::VerbName(request.verb()) << ": " << response.message;
    EXPECT_EQ(response.retry_after_ms, 0u) << comm::VerbName(request.verb());
  };
  // U1 stalls in the writer; U2 fills the queue to the watermark.
  submitters.Submit([&] { dispatch_ok(requests[0]); });
  ASSERT_TRUE(entered.Pop().has_value());
  submitters.Submit([&] { dispatch_ok(requests[0]); });
  while (spouse->GetStatus().queue_depth < 1) std::this_thread::yield();

  const comm::Response shed = dispatcher.Dispatch(requests[0]);
  EXPECT_EQ(shed.code, StatusCode::kUnavailable);
  EXPECT_EQ(shed.retry_after_ms, 77u);

  // Every other writer verb queues past the watermark instead of shedding.
  for (size_t i = 1; i < requests.size(); ++i) {
    submitters.Submit([&, i] { dispatch_ok(requests[i]); });
  }
  while (spouse->GetStatus().queue_depth < requests.size()) std::this_thread::yield();
  for (int i = 0; i < 2; ++i) release.Push(0);
  submitters.Wait();
  EXPECT_EQ(spouse->GetStatus().updates_applied, 2u);
  EXPECT_EQ(spouse->GetStatus().updates_shed, 1u);
  spouse->SetPreUpdateHookForTest(nullptr);
  registry.StopAll();
  std::remove((::testing::TempDir() + "writer_verbs.bin").c_str());
}

// ---------------------------------------------------------------------------
// Registry.

TEST(TenantRegistryTest, CreateFindAndDuplicateRejection) {
  TenantRegistry registry;
  comm::CreateTenantRequest create;
  create.name = "kb";
  create.program = kSpouseProgram;
  create.config = FastConfig();
  create.data.push_back({"Person", "1\t10\n1\t11\n"});
  auto tenant = registry.CreateTenant(create);
  ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
  ASSERT_TRUE((*tenant)->WaitReady().ok());
  EXPECT_EQ(registry.Find("kb"), *tenant);
  EXPECT_EQ(registry.Find("nope"), nullptr);

  auto duplicate = registry.CreateTenant(create);
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kAlreadyExists);

  comm::CreateTenantRequest nameless;
  nameless.program = kSpouseProgram;
  EXPECT_EQ(registry.CreateTenant(nameless).status().code(),
            StatusCode::kInvalidArgument);

  create.name = "kb2";
  ASSERT_TRUE(registry.CreateTenant(create).ok());
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"kb", "kb2"}));
  registry.StopAll();
  EXPECT_EQ(registry.Find("kb")->deepdive(), nullptr);
}

TEST(TenantRegistryTest, OutOfRangeEngineSettingsAreRejectedBeforeAnyThreadStarts) {
  // A wire client skips the flag parser; none of these values may start a
  // tenant. (Threads and replicas past their bounds would start thousands of
  // workers, so only the validator below sees those.)
  std::vector<comm::TenantConfig> bad(4, FastConfig());
  bad[0].epochs = 0;
  bad[1].epochs = 1000001;
  bad[2].replicas = 0;
  bad[3].sync_every = 1000000001;
  TenantRegistry registry;
  for (size_t i = 0; i < bad.size(); ++i) {
    comm::CreateTenantRequest create;
    create.name = "kb" + std::to_string(i);
    create.program = kSpouseProgram;
    create.config = bad[i];
    EXPECT_EQ(registry.CreateTenant(create).status().code(),
              StatusCode::kInvalidArgument)
        << create.name;
  }
  EXPECT_TRUE(registry.Names().empty());
}

// ---- engine flags ----------------------------------------------------------

/// Runs ConsumeEngineFlag over `args` (argv[0] is the program name) and
/// returns the config, or the first error.
StatusOr<comm::TenantConfig> ParseEngineFlags(std::vector<const char*> args) {
  args.insert(args.begin(), "tool");
  comm::TenantConfig config;
  const int argc = static_cast<int>(args.size());
  for (int i = 1; i < argc; ++i) {
    DD_ASSIGN_OR_RETURN(const bool consumed, ConsumeEngineFlag(argc, args.data(), &i, &config));
    if (!consumed) return Status::NotFound(std::string("not an engine flag: ") + args[i]);
  }
  return config;
}

TEST(EngineFlagsTest, EachFlagLandsInItsField) {
  auto config = ParseEngineFlags({"--seed", "18446744073709551615", "--epochs", "7",
                                  "--mode", "rerun", "--threads", "0", "--replicas", "3",
                                  "--sync-every", "25", "--async-materialize"});
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->seed, 18446744073709551615ULL);
  EXPECT_EQ(config->epochs, 7u);
  EXPECT_TRUE(config->rerun_mode);
  EXPECT_EQ(config->threads, 0u);
  EXPECT_EQ(config->replicas, 3u);
  EXPECT_EQ(config->sync_every, 25u);
  EXPECT_TRUE(config->async_materialize);

  auto incremental = ParseEngineFlags({"--mode", "rerun", "--mode", "incremental"});
  ASSERT_TRUE(incremental.ok());
  EXPECT_FALSE(incremental->rerun_mode);
  // The parallelism a tenant runs with is the wire's three values.
  const inference::Parallelism parallelism = ParallelismOf(*config);
  EXPECT_EQ(parallelism.num_threads, 0u);
  EXPECT_EQ(parallelism.num_replicas, 3u);
  EXPECT_EQ(parallelism.sync_every_sweeps, 25u);
}

TEST(EngineFlagsTest, MalformedValuesAreRejected) {
  const std::vector<std::vector<const char*>> bad = {
      {"--seed", "abc"},       {"--seed", "-1"},          {"--seed", "18446744073709551616"},
      {"--seed", " 5"},        {"--seed", ""},            {"--epochs", "0"},
      {"--epochs", "abc"},     {"--epochs", "4294967297"}, {"--epochs", "5x"},
      {"--threads", "4097"},   {"--threads", "-2"},       {"--replicas", "0"},
      {"--replicas", "257"},   {"--sync-every", "1000000001"}, {"--mode", "fast"},
      {"--seed"},              {"--threads"},
  };
  for (const auto& args : bad) {
    const auto config = ParseEngineFlags(args);
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument)
        << args[0] << " " << (args.size() > 1 ? args[1] : "(no value)");
  }
}

TEST(EngineFlagsTest, TenantConfigsMustStayWithinTheFlagBounds) {
  comm::TenantConfig edges = FastConfig();
  edges.epochs = 1000000;
  edges.threads = 4096;
  edges.replicas = 256;
  edges.sync_every = 1000000000;
  EXPECT_TRUE(ValidateTenantConfig(edges).ok());
  EXPECT_TRUE(ValidateTenantConfig(comm::TenantConfig{}).ok());

  std::vector<comm::TenantConfig> bad(2, FastConfig());
  bad[0].threads = 4097;
  bad[1].replicas = 257;
  for (const comm::TenantConfig& config : bad) {
    const Status status = ValidateTenantConfig(config);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  }
}

TEST(EngineFlagsTest, ProbabilitiesMustBeWholeFiniteValuesInTheUnitInterval) {
  for (const char* bad : {"abc", "0.5x", "", "nan", "-0.1", "1.5", "inf", " 0.5"}) {
    const auto p = ParseProbability("--threshold", bad);
    EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument) << "'" << bad << "'";
    EXPECT_NE(p.status().ToString().find("--threshold"), std::string::npos) << bad;
  }
  for (const auto& [text, value] :
       {std::pair<const char*, double>{"0", 0.0}, {"0.5", 0.5}, {"1", 1.0}}) {
    const auto p = ParseProbability("--min-confidence", text);
    ASSERT_TRUE(p.ok()) << text << ": " << p.status().ToString();
    EXPECT_EQ(*p, value);
  }
}

TEST(EngineFlagsTest, OtherFlagsAreNotConsumed) {
  const char* args[] = {"tool", "--tenant", "kb"};
  comm::TenantConfig config;
  int i = 1;
  auto consumed = ConsumeEngineFlag(3, args, &i, &config);
  ASSERT_TRUE(consumed.ok());
  EXPECT_FALSE(*consumed);
  EXPECT_EQ(i, 1);
}

}  // namespace
}  // namespace deepdive::serve::service
