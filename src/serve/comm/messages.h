#ifndef DEEPDIVE_SERVE_COMM_MESSAGES_H_
#define DEEPDIVE_SERVE_COMM_MESSAGES_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "util/status.h"

namespace deepdive::serve::comm {

/// The serving stack's verb set. One verb per request body type;
/// serve/handlers' Dispatch visits each body onto its typed handler. Values
/// are wire-stable: never renumber, only append.
enum class Verb : uint8_t {
  kQuery = 1,         // pin a result view, look up a relation/tuple
  kApplyUpdate = 2,   // enqueue one update on the tenant's writer thread
  kExport = 3,        // TSV export of query relations from one pinned view
  kStatus = 4,        // tenant (or server-wide) serving statistics
  kCreateTenant = 5,  // admin: host a new KB instance
  kListTenants = 6,   // admin: tenant names only
  kSaveGraph = 7,     // admin: compiled-graph snapshot via the writer thread
  kShutdown = 8,      // admin: graceful daemon drain
  kAddRule = 9,       // first-class rule addition on the writer thread
  kRetractRule = 10,  // first-class rule retraction (journal-exact when possible)
  kMine = 11,         // one incremental rule-mining pass on the writer thread
};

const char* VerbName(Verb verb);

/// One relation's worth of TSV rows (the unit of data both at tenant
/// creation and inside updates). Rows travel as raw TSV text and are parsed
/// against the tenant's schema on its writer thread — the only place the
/// program is legal to read.
struct DataPayload {
  std::string relation;
  std::string tsv;
};

/// Engine configuration a tenant is created with; mirrors the deepdive_cli
/// run flags so the daemon and the in-process CLI cannot drift.
struct TenantConfig {
  bool rerun_mode = false;  // false = incremental (the full system)
  uint64_t seed = 42;
  uint32_t epochs = 60;
  uint32_t threads = 1;
  uint32_t replicas = 1;
  uint32_t sync_every = 50;
  bool async_materialize = false;
  /// Server-side sample-store paths (overnight-materialization reuse);
  /// empty = disabled. Only meaningful in incremental mode.
  std::string save_materialization;
  std::string load_materialization;
  /// Per-tenant update-queue admission control: TryPush sheds once the
  /// queue depth reaches `shed_watermark` (0 = capacity); shed responses
  /// carry `retry_after_ms`.
  uint32_t queue_capacity = 64;
  uint32_t shed_watermark = 48;
  uint32_t retry_after_ms = 100;
};

struct QueryRequest {
  std::string relation;
  /// Optional tuple, TSV-encoded. Empty = relation-level query (entry count
  /// above `threshold`); set = marginal lookup of that tuple.
  std::string tuple_tsv;
  double threshold = 0.0;
};

struct UpdateRequest {
  std::string label;
  /// DSL rule fragment (may declare new relations); empty = data-only.
  std::string rules;
  std::vector<DataPayload> inserts;
};

struct ExportRequest {
  /// Relations to export; empty = every query relation, in declaration
  /// order, each chunk answered from the same pinned view.
  std::vector<std::string> relations;
  double threshold = 0.0;
};

struct StatusRequest {};

struct CreateTenantRequest {
  std::string name;
  std::string program;  // DDL source
  TenantConfig config;
  std::vector<DataPayload> data;  // base rows loaded before Initialize
};

struct ListTenantsRequest {};

struct SaveGraphRequest {
  std::string path;  // server-side file path for the compiled snapshot
};

struct ShutdownRequest {};

/// First-class rule addition: `rule` is a DSL fragment with exactly one
/// labeled factor rule over already-declared relations. Grounded alone on
/// the tenant's writer thread (work proportional to the rule's matches).
struct AddRuleRequest {
  std::string rule;
};

struct RetractRuleRequest {
  std::string label;
};

/// One rule-mining pass: propose candidates from the tenant's co-occurrence
/// statistics, trial each through the engine, promote up to
/// `max_promotions`. The thresholds parameterize the candidate generator.
struct MineRequest {
  uint64_t max_promotions = 1;
  int64_t min_support = 2;
  double min_confidence = 0.6;
  uint32_t max_body_atoms = 2;
};

/// One request envelope: target tenant (empty for server-wide/admin verbs)
/// plus the verb-specific body. The variant index is the wire verb tag.
struct Request {
  std::string tenant;
  std::variant<QueryRequest, UpdateRequest, ExportRequest, StatusRequest,
               CreateTenantRequest, ListTenantsRequest, SaveGraphRequest,
               ShutdownRequest, AddRuleRequest, RetractRuleRequest,
               MineRequest>
      body;

  Verb verb() const;
};

struct QueryResult {
  uint64_t epoch = 0;
  /// Tuple lookups: whether the tuple was found, and its marginal (0.5 when
  /// unknown — the same convention as ResultView::MarginalOf).
  bool found = false;
  double marginal = 0.5;
  /// Relation-level queries: entries at or above the request threshold.
  uint64_t entries = 0;
};

struct UpdateResult {
  uint64_t epoch = 0;
  std::string label;
  std::string strategy;
  double grounding_seconds = 0.0;
  double learning_seconds = 0.0;
  double inference_seconds = 0.0;
  uint64_t affected_vars = 0;
};

struct ExportChunk {
  std::string relation;
  std::string tsv;  // "<marginal>\t<cols...>" lines, threshold applied
};

struct ExportResult {
  uint64_t epoch = 0;  // every chunk came from this one pinned view
  std::vector<ExportChunk> chunks;
};

struct TenantStatus {
  std::string name;
  bool ready = false;          // Initialize finished OK
  bool failed = false;         // Initialize (or the serve loop) errored
  uint64_t epoch = 0;          // latest published result-view epoch
  uint64_t num_variables = 0;  // size of the view's marginal vector
  uint64_t updates_applied = 0;
  uint64_t updates_shed = 0;
  uint32_t queue_depth = 0;
  uint32_t queue_capacity = 0;
  uint32_t shed_watermark = 0;
  /// Program-evolution identity, read from the latest published view: bumped
  /// on every rule addition/retraction, plus the rule count and the FNV-1a
  /// fingerprint over the canonical rule text (replica-comparable).
  uint64_t program_version = 0;
  uint64_t rule_count = 0;
  uint64_t rules_fingerprint = 0;
};

struct StatusResult {
  std::vector<TenantStatus> tenants;
};

struct CreateTenantResult {
  uint64_t epoch = 0;
  uint64_t num_variables = 0;
  uint64_t num_factors = 0;
};

struct ListTenantsResult {
  std::vector<std::string> names;
};

struct SaveGraphResult {
  uint64_t checksum = 0;
  uint64_t image_bytes = 0;
  /// Marginals fingerprint of the snapshot (evidence clamped), computed on
  /// the writer thread with the tenant's sampling configuration — the same
  /// identity line `load-graph` recomputes to prove a cold start reproduces
  /// this process's inference bit-for-bit.
  uint64_t fingerprint = 0;
};

struct AddRuleResult {
  uint64_t epoch = 0;
  std::string label;
  std::string strategy;
  /// Groundings emitted while adding the rule — the proportional-work
  /// witness (equals the rule's match count, never the whole program's).
  uint64_t grounding_work = 0;
  double grounding_seconds = 0.0;
  double learning_seconds = 0.0;
  double inference_seconds = 0.0;
  uint64_t program_version = 0;
  uint64_t rule_count = 0;
  uint64_t rules_fingerprint = 0;
};

struct RetractRuleResult {
  uint64_t epoch = 0;
  /// "sampling" with acceptance 1.0 when the rule journal restored the
  /// pre-add state exactly; otherwise the incremental strategy that re-ran.
  std::string strategy;
  double acceptance = -1.0;
  uint64_t program_version = 0;
  uint64_t rule_count = 0;
  uint64_t rules_fingerprint = 0;
};

struct MineResult {
  uint64_t epoch = 0;
  uint64_t candidates_considered = 0;
  uint64_t candidates_trialed = 0;
  /// Labels of the rules promoted into the program, in promotion order.
  std::vector<std::string> promoted;
  uint64_t program_version = 0;
  uint64_t rule_count = 0;
  uint64_t rules_fingerprint = 0;
};

struct EmptyResult {};

/// One response envelope. `code`/`message` mirror util/status.h; a shed
/// update answers kUnavailable with `retry_after_ms` > 0 — the structured
/// retry-after contract of the admission controller. The body variant is
/// EmptyResult on errors and for bodyless verbs (shutdown).
struct Response {
  StatusCode code = StatusCode::kOk;
  std::string message;
  uint32_t retry_after_ms = 0;
  std::variant<EmptyResult, QueryResult, UpdateResult, ExportResult,
               StatusResult, CreateTenantResult, ListTenantsResult,
               SaveGraphResult, AddRuleResult, RetractRuleResult, MineResult>
      body;

  bool ok() const { return code == StatusCode::kOk; }
  Status ToStatus() const {
    return ok() ? Status::OK() : Status(code, message);
  }

  static Response Error(const Status& status) {
    Response response;
    response.code = status.code();
    response.message = status.message();
    return response;
  }
};

/// Codec between the typed envelopes and frame payloads. Decoding is fully
/// bounds-checked (WireReader) and rejects unknown verbs/tags and trailing
/// bytes, so a hostile frame degrades into a Status, never UB.
std::string EncodeRequest(const Request& request);
StatusOr<Request> DecodeRequest(std::string_view payload);
std::string EncodeResponse(const Response& response);
StatusOr<Response> DecodeResponse(std::string_view payload);

}  // namespace deepdive::serve::comm

#endif  // DEEPDIVE_SERVE_COMM_MESSAGES_H_
