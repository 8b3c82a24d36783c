// Online program evolution over the wire: codec round-trips for the
// add_rule / retract_rule / mine verbs and their results, program identity
// in the status verb, and the acceptance drill — a tenant whose program
// grows a planted rule end-to-end through the mine verb, dispatched exactly
// as a remote client would (encoded, decoded, routed through the handler
// tier into the writer thread).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/comm/messages.h"
#include "serve/handlers/handlers.h"
#include "serve/service/registry.h"
#include "serve/service/tenant.h"

namespace deepdive::serve {
namespace {

/// Planted-signal program: Pair co-occurs with mostly-positive Match labels.
constexpr char kPlantedProgram[] = R"(
relation Pair(a: int, b: int).
query relation Match(a: int, b: int).
evidence MatchEv(a: int, b: int, l: bool) for Match.
rule CAND: Match(a, b) :- Pair(a, b).
factor PRIOR: Match(a, b) :- Pair(a, b) weight = -0.2 semantics = logical.
)";

std::string PairTsv() {
  std::string tsv;
  for (int i = 1; i <= 8; ++i) {
    tsv += std::to_string(i) + "\t" + std::to_string(i + 100) + "\n";
  }
  return tsv;
}

std::string MatchEvTsv() {
  std::string tsv;
  for (int i = 1; i <= 7; ++i) {
    tsv += std::to_string(i) + "\t" + std::to_string(i + 100) + "\ttrue\n";
  }
  tsv += "8\t108\tfalse\n";
  return tsv;
}

/// Dispatches like a remote client: the request crosses the wire codec both
/// ways, so every end-to-end assertion also covers encode/decode fidelity.
comm::Response DispatchOverWire(const handlers::Dispatcher& dispatcher,
                                const comm::Request& request) {
  auto decoded = comm::DecodeRequest(comm::EncodeRequest(request));
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  const comm::Response response = dispatcher.Dispatch(*decoded);
  auto round = comm::DecodeResponse(comm::EncodeResponse(response));
  EXPECT_TRUE(round.ok()) << round.status().ToString();
  return *round;
}

void CreatePlantedTenant(const handlers::Dispatcher& dispatcher,
                         const std::string& name) {
  comm::CreateTenantRequest create;
  create.name = name;
  create.program = kPlantedProgram;
  create.config.epochs = 5;
  create.data.push_back({"Pair", PairTsv()});
  create.data.push_back({"MatchEv", MatchEvTsv()});
  comm::Request request;
  request.tenant = name;
  request.body = std::move(create);
  const comm::Response response = DispatchOverWire(dispatcher, request);
  ASSERT_TRUE(response.ok()) << response.message;
}

// ---------------------------------------------------------------------------
// Wire codec round-trips.

TEST(RuleVerbCodecTest, RequestsRoundTrip) {
  {
    comm::Request r;
    r.tenant = "kb";
    r.body = comm::AddRuleRequest{"factor F: A(x) :- B(x) weight = 1."};
    EXPECT_EQ(r.verb(), comm::Verb::kAddRule);
    auto decoded = comm::DecodeRequest(comm::EncodeRequest(r));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->tenant, "kb");
    EXPECT_EQ(std::get<comm::AddRuleRequest>(decoded->body).rule,
              "factor F: A(x) :- B(x) weight = 1.");
  }
  {
    comm::Request r;
    r.tenant = "kb";
    r.body = comm::RetractRuleRequest{"mined_3"};
    EXPECT_EQ(r.verb(), comm::Verb::kRetractRule);
    auto decoded = comm::DecodeRequest(comm::EncodeRequest(r));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(std::get<comm::RetractRuleRequest>(decoded->body).label,
              "mined_3");
  }
  {
    comm::Request r;
    r.tenant = "kb";
    comm::MineRequest mine;
    mine.max_promotions = 3;
    mine.min_support = 5;
    mine.min_confidence = 0.75;
    mine.max_body_atoms = 1;
    r.body = mine;
    EXPECT_EQ(r.verb(), comm::Verb::kMine);
    auto decoded = comm::DecodeRequest(comm::EncodeRequest(r));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const auto& body = std::get<comm::MineRequest>(decoded->body);
    EXPECT_EQ(body.max_promotions, 3u);
    EXPECT_EQ(body.min_support, 5);
    EXPECT_DOUBLE_EQ(body.min_confidence, 0.75);
    EXPECT_EQ(body.max_body_atoms, 1u);
  }
}

TEST(RuleVerbCodecTest, ResultsRoundTrip) {
  {
    comm::Response r;
    comm::AddRuleResult body;
    body.epoch = 4;
    body.label = "add_rule:FE1";
    body.strategy = "sampling";
    body.grounding_work = 17;
    body.grounding_seconds = 0.25;
    body.learning_seconds = 0.125;
    body.inference_seconds = 0.5;
    body.program_version = 3;
    body.rule_count = 5;
    body.rules_fingerprint = 0xFEEDFACEDEADBEEFull;
    r.body = body;
    auto decoded = comm::DecodeResponse(comm::EncodeResponse(r));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const auto& out = std::get<comm::AddRuleResult>(decoded->body);
    EXPECT_EQ(out.epoch, 4u);
    EXPECT_EQ(out.label, "add_rule:FE1");
    EXPECT_EQ(out.strategy, "sampling");
    EXPECT_EQ(out.grounding_work, 17u);
    EXPECT_DOUBLE_EQ(out.grounding_seconds, 0.25);
    EXPECT_DOUBLE_EQ(out.learning_seconds, 0.125);
    EXPECT_DOUBLE_EQ(out.inference_seconds, 0.5);
    EXPECT_EQ(out.program_version, 3u);
    EXPECT_EQ(out.rule_count, 5u);
    EXPECT_EQ(out.rules_fingerprint, 0xFEEDFACEDEADBEEFull);
  }
  {
    comm::Response r;
    comm::RetractRuleResult body;
    body.epoch = 5;
    body.strategy = "sampling";
    body.acceptance = 1.0;
    body.program_version = 4;
    body.rule_count = 4;
    body.rules_fingerprint = 42;
    r.body = body;
    auto decoded = comm::DecodeResponse(comm::EncodeResponse(r));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const auto& out = std::get<comm::RetractRuleResult>(decoded->body);
    EXPECT_EQ(out.epoch, 5u);
    EXPECT_DOUBLE_EQ(out.acceptance, 1.0);
    EXPECT_EQ(out.rule_count, 4u);
  }
  {
    comm::Response r;
    comm::MineResult body;
    body.epoch = 6;
    body.candidates_considered = 12;
    body.candidates_trialed = 4;
    body.promoted = {"mined_0", "mined_1"};
    body.program_version = 6;
    body.rule_count = 7;
    body.rules_fingerprint = 99;
    r.body = body;
    auto decoded = comm::DecodeResponse(comm::EncodeResponse(r));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const auto& out = std::get<comm::MineResult>(decoded->body);
    EXPECT_EQ(out.candidates_considered, 12u);
    EXPECT_EQ(out.candidates_trialed, 4u);
    EXPECT_EQ(out.promoted, (std::vector<std::string>{"mined_0", "mined_1"}));
    EXPECT_EQ(out.rules_fingerprint, 99u);
  }
  {
    comm::Response r;
    comm::StatusResult body;
    comm::TenantStatus tenant;
    tenant.name = "kb";
    tenant.ready = true;
    tenant.program_version = 7;
    tenant.rule_count = 3;
    tenant.rules_fingerprint = 0xABCDULL;
    body.tenants.push_back(tenant);
    r.body = std::move(body);
    auto decoded = comm::DecodeResponse(comm::EncodeResponse(r));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const auto& out = std::get<comm::StatusResult>(decoded->body);
    ASSERT_EQ(out.tenants.size(), 1u);
    EXPECT_EQ(out.tenants[0].program_version, 7u);
    EXPECT_EQ(out.tenants[0].rule_count, 3u);
    EXPECT_EQ(out.tenants[0].rules_fingerprint, 0xABCDULL);
  }
}

// ---------------------------------------------------------------------------
// End-to-end through the handler tier into the writer thread.

TEST(RuleVerbEndToEndTest, ProgramEvolvesOverTheWire) {
  service::TenantRegistry registry;
  handlers::Dispatcher dispatcher(&registry);
  CreatePlantedTenant(dispatcher, "kb");

  auto status_of = [&](const std::string& tenant) {
    comm::Request r;
    r.tenant = tenant;
    r.body = comm::StatusRequest{};
    const comm::Response response = DispatchOverWire(dispatcher, r);
    EXPECT_TRUE(response.ok()) << response.message;
    const auto& result = std::get<comm::StatusResult>(response.body);
    EXPECT_EQ(result.tenants.size(), 1u);
    return result.tenants.front();
  };

  const comm::TenantStatus before = status_of("kb");
  EXPECT_TRUE(before.ready);
  EXPECT_EQ(before.rule_count, 2u);  // CAND + PRIOR
  EXPECT_NE(before.rules_fingerprint, 0u);

  // add_rule: grounded against only the new rule's matches (8 Pair rows).
  comm::Request add;
  add.tenant = "kb";
  add.body =
      comm::AddRuleRequest{"factor FE1: Match(a, b) :- Pair(a, b) "
                           "weight = 0.8 semantics = logical."};
  const comm::Response added = DispatchOverWire(dispatcher, add);
  ASSERT_TRUE(added.ok()) << added.message;
  const auto& add_result = std::get<comm::AddRuleResult>(added.body);
  EXPECT_EQ(add_result.label, "add_rule:FE1");
  EXPECT_EQ(add_result.grounding_work, 8u);
  EXPECT_EQ(add_result.rule_count, 3u);
  EXPECT_GT(add_result.program_version, before.program_version);
  EXPECT_NE(add_result.rules_fingerprint, before.rules_fingerprint);

  const comm::TenantStatus grown = status_of("kb");
  EXPECT_EQ(grown.rule_count, 3u);
  EXPECT_EQ(grown.program_version, add_result.program_version);

  // retract_rule: exact journal restore — back to the original identity.
  comm::Request retract;
  retract.tenant = "kb";
  retract.body = comm::RetractRuleRequest{"FE1"};
  const comm::Response retracted = DispatchOverWire(dispatcher, retract);
  ASSERT_TRUE(retracted.ok()) << retracted.message;
  const auto& retract_result =
      std::get<comm::RetractRuleResult>(retracted.body);
  EXPECT_DOUBLE_EQ(retract_result.acceptance, 1.0);
  EXPECT_EQ(retract_result.rule_count, 2u);
  EXPECT_EQ(retract_result.rules_fingerprint, before.rules_fingerprint);

  // Unknown label surfaces as a structured error, not a dead tenant.
  comm::Request bad;
  bad.tenant = "kb";
  bad.body = comm::RetractRuleRequest{"no_such_rule"};
  const comm::Response rejected = DispatchOverWire(dispatcher, bad);
  EXPECT_FALSE(rejected.ok());
  EXPECT_TRUE(status_of("kb").ready);

  registry.StopAll();
}

/// Acceptance drill: the miner promotes a planted rule from synthetic
/// co-occurrence data, end-to-end through the mine wire verb.
TEST(RuleVerbEndToEndTest, MineVerbPromotesPlantedRule) {
  service::TenantRegistry registry;
  handlers::Dispatcher dispatcher(&registry);
  CreatePlantedTenant(dispatcher, "kb");

  comm::Request mine;
  mine.tenant = "kb";
  mine.body = comm::MineRequest{};  // default thresholds fit the planted data
  const comm::Response mined = DispatchOverWire(dispatcher, mine);
  ASSERT_TRUE(mined.ok()) << mined.message;
  const auto& result = std::get<comm::MineResult>(mined.body);
  EXPECT_GE(result.candidates_considered, 1u);
  EXPECT_GE(result.candidates_trialed, 1u);
  ASSERT_EQ(result.promoted.size(), 1u);
  EXPECT_EQ(result.promoted.front(), "mined_0");
  EXPECT_EQ(result.rule_count, 3u);

  // The promoted rule is a first-class program rule: visible in status and
  // retractable over the wire like any hand-written one.
  comm::Request retract;
  retract.tenant = "kb";
  retract.body = comm::RetractRuleRequest{"mined_0"};
  const comm::Response retracted = DispatchOverWire(dispatcher, retract);
  ASSERT_TRUE(retracted.ok()) << retracted.message;
  EXPECT_EQ(std::get<comm::RetractRuleResult>(retracted.body).rule_count, 2u);

  // A second pass remembers the rejection-free promotion history: the same
  // pattern is not re-promoted under a duplicate label after retraction.
  comm::Request again;
  again.tenant = "kb";
  again.body = comm::MineRequest{};
  const comm::Response remined = DispatchOverWire(dispatcher, again);
  ASSERT_TRUE(remined.ok()) << remined.message;

  registry.StopAll();
}

}  // namespace
}  // namespace deepdive::serve
