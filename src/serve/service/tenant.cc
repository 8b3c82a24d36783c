#include "serve/service/tenant.h"

#include <cstdio>
#include <optional>
#include <sstream>
#include <utility>

#include "factor/graph_io.h"
#include "incremental/optimizer.h"
#include "inference/compiled_inference.h"
#include "storage/text_io.h"
#include "util/string_util.h"

namespace deepdive::serve::service {
namespace {

/// Parses one relation's TSV payload against `program`'s schema — the
/// writer-thread half of the data path (rows travel as raw text precisely so
/// that nothing outside the serving thread needs the program).
StatusOr<std::vector<Tuple>> ParseRows(const dsl::Program& program,
                                       const std::string& relation,
                                       const std::string& tsv)
    REQUIRES(serving_thread) {
  const dsl::RelationDecl* decl = program.FindRelation(relation);
  if (decl == nullptr) {
    return Status::NotFound("unknown relation '" + relation + "'");
  }
  std::istringstream in(tsv);
  std::vector<Tuple> rows;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    auto tuple = ParseTsvLine(decl->schema, line);
    if (!tuple.ok()) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: %s", relation.c_str(), line_number,
                    tuple.status().message().c_str()));
    }
    rows.push_back(std::move(tuple).value());
  }
  return rows;
}

}  // namespace

inference::Parallelism ParallelismOf(const comm::TenantConfig& config) {
  return {.num_threads = config.threads,
          .num_replicas = config.replicas,
          .sync_every_sweeps = config.sync_every};
}

TenantInstance::TenantInstance(std::string name, std::string program_source,
                               comm::TenantConfig config,
                               std::vector<comm::DataPayload> data)
    : name_(std::move(name)),
      program_source_(std::move(program_source)),
      config_(config),
      base_data_(std::move(data)),
      queue_(config_.queue_capacity == 0 ? 1 : config_.queue_capacity,
             config_.shed_watermark),
      writer_(std::make_unique<ThreadPool>(1, /*inline_when_single=*/false)) {
  writer_->Submit([this] { ServeLoop(); });
}

TenantInstance::~TenantInstance() { Stop(); }

Status TenantInstance::WaitReady() const {
  MutexLock lock(mu_);
  while (phase_ == Phase::kStarting) ready_cv_.Wait(mu_);
  if (phase_ == Phase::kFailed) return init_status_;
  if (phase_ == Phase::kStopped) {
    return Status::FailedPrecondition("tenant '" + name_ + "' is stopped");
  }
  return Status::OK();
}

StatusOr<comm::CreateTenantResult> TenantInstance::InitInfo() const {
  DD_RETURN_IF_ERROR(WaitReady());
  MutexLock lock(mu_);
  return init_info_;
}

std::shared_ptr<const core::DeepDive> TenantInstance::deepdive() const {
  MutexLock lock(mu_);
  return engine_;
}

Status TenantInstance::Enqueue(std::unique_ptr<Job> job, bool sheds) {
  if (sheds ? queue_.TryPush(std::move(job)) : queue_.Push(std::move(job))) {
    return Status::OK();
  }
  if (queue_.closed()) {
    return Status::FailedPrecondition("tenant '" + name_ + "' is stopped");
  }
  // ordering: relaxed — monotone shed counter, reported by GetStatus; the
  // rejection itself travels by return value.
  updates_shed_.fetch_add(1, std::memory_order_relaxed);
  return Status::Unavailable("update queue for tenant '" + name_ +
                             "' is at its admission watermark; retry later");
}

comm::TenantStatus TenantInstance::GetStatus() const {
  comm::TenantStatus status;
  status.name = name_;
  std::shared_ptr<const core::DeepDive> dd;
  {
    MutexLock lock(mu_);
    status.ready = phase_ == Phase::kReady;
    status.failed = phase_ == Phase::kFailed;
    dd = engine_;
  }
  if (dd != nullptr) {
    const auto view = dd->Query();
    status.epoch = view->epoch;
    status.num_variables = view->marginals.size();
    // Program identity travels inside the published view, so any thread can
    // report it without touching the serving-thread-only program() surface.
    status.program_version = view->program_version;
    status.rule_count = view->rule_count;
    status.rules_fingerprint = view->rules_fingerprint;
  }
  // ordering: relaxed — monotone counters; the status snapshot is
  // statistical, not a synchronization point.
  status.updates_applied = updates_applied_.load(std::memory_order_relaxed);
  status.updates_shed = updates_shed_.load(std::memory_order_relaxed);
  status.queue_depth = static_cast<uint32_t>(queue_.depth());
  status.queue_capacity = static_cast<uint32_t>(queue_.capacity());
  status.shed_watermark = static_cast<uint32_t>(queue_.shed_watermark());
  return status;
}

void TenantInstance::Stop() {
  queue_.Close();
  // Joining the pool waits for ServeLoop to drain queued jobs, finish any
  // background materialization, and unpublish the engine.
  writer_.reset();
}

void TenantInstance::SetPreUpdateHookForTest(std::function<void()> hook) {
  MutexLock lock(mu_);
  pre_update_hook_ = std::move(hook);
}

void TenantInstance::ServeLoop() {
  // Trusted root: this dedicated pool worker is the tenant's serving thread
  // for its entire life — the only thread that touches the engine's
  // REQUIRES(serving_thread) surface.
  serving_thread.AssertHeld();

  auto built = BuildEngine();
  if (!built.ok()) {
    {
      MutexLock lock(mu_);
      phase_ = Phase::kFailed;
      init_status_ = built.status();
    }
    ready_cv_.NotifyAll();
    // Keep consuming so queued/incoming jobs fail fast instead of hanging,
    // until the registry closes the queue.
    const Status rejection = Status::FailedPrecondition(
        "tenant '" + name_ + "' failed to initialize: " +
        built.status().message());
    while (std::optional<std::unique_ptr<Job>> job = queue_.Pop()) {
      (*job)->Reject(rejection);
    }
    return;
  }

  std::shared_ptr<core::DeepDive> dd = std::move(built).value();
  {
    comm::CreateTenantResult info;
    info.epoch = dd->Query()->epoch;
    info.num_variables = dd->ground().graph.NumVariables();
    info.num_factors = dd->ground().graph.NumActiveClauses();
    MutexLock lock(mu_);
    phase_ = Phase::kReady;
    init_info_ = info;
    engine_ = dd;
  }
  ready_cv_.NotifyAll();

  while (std::optional<std::unique_ptr<Job>> job = queue_.Pop()) {
    (*job)->Run(this, dd.get());
  }

  // The miner unregisters its relation-delta listener on destruction, so it
  // must go before the engine is unpublished (and on this thread).
  miner_.reset();

  // Queue closed and drained. Finish background materialization so no
  // engine-owned worker outlives this loop, then unpublish; readers holding
  // a shared_ptr keep the (now quiescent) engine alive until their last pin
  // drops.
  if (auto* engine = dd->incremental_engine(); engine != nullptr) {
    const Status drained = engine->WaitForMaterialization();
    if (!drained.ok()) {
      std::fprintf(stderr, "tenant %s: materialization drain failed: %s\n",
                   name_.c_str(), drained.ToString().c_str());
    }
  }
  {
    MutexLock lock(mu_);
    phase_ = Phase::kStopped;
    engine_.reset();
  }
  ready_cv_.NotifyAll();
}

StatusOr<std::shared_ptr<core::DeepDive>> TenantInstance::BuildEngine() {
  core::DeepDiveConfig config;
  config.mode = config_.rerun_mode ? core::ExecutionMode::kRerun
                                   : core::ExecutionMode::kIncremental;
  config.seed = config_.seed;
  config.learner.epochs = config_.epochs;
  config.parallelism = ParallelismOf(config_);
  config.materialization.async = config_.async_materialize;
  config.materialization.save_sample_store = config_.save_materialization;
  config.materialization.load_sample_store = config_.load_materialization;
  DD_ASSIGN_OR_RETURN(std::unique_ptr<core::DeepDive> dd,
                      core::DeepDive::Create(program_source_, config));
  for (const comm::DataPayload& payload : base_data_) {
    DD_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                        ParseRows(dd->program(), payload.relation, payload.tsv));
    DD_RETURN_IF_ERROR(dd->LoadRows(payload.relation, rows));
    std::fprintf(stderr, "tenant %s: loaded %zu rows into %s\n", name_.c_str(),
                 rows.size(), payload.relation.c_str());
  }
  base_data_.clear();
  DD_RETURN_IF_ERROR(dd->Initialize());
  return std::shared_ptr<core::DeepDive>(std::move(dd));
}

StatusOr<comm::UpdateResult> TenantInstance::Execute(
    core::DeepDive* dd, const comm::UpdateRequest& request) {
  std::function<void()> hook;
  {
    MutexLock lock(mu_);
    hook = pre_update_hook_;
  }
  if (hook) hook();
  core::UpdateSpec spec;
  if (request.label.empty()) {
    // ordering: relaxed — the writer thread is the only incrementer, so the
    // read is simply its own last value.
    spec.label = StrFormat(
        "update#%llu",
        static_cast<unsigned long long>(
            updates_applied_.load(std::memory_order_relaxed) + 1));
  } else {
    spec.label = request.label;
  }
  // Parse every payload before anything is applied, so a malformed row
  // leaves the program as it was. A relation the program lacks takes its
  // schema from the update's own rules; one ApplyUpdate then applies the
  // rules and the rows together.
  std::optional<dsl::Program> fragment;
  for (const comm::DataPayload& payload : request.inserts) {
    const dsl::Program* schema = &dd->program();
    if (schema->FindRelation(payload.relation) == nullptr &&
        !request.rules.empty()) {
      if (!fragment.has_value()) {
        DD_ASSIGN_OR_RETURN(fragment,
                            dsl::AnalyzeFragment(dd->program(), request.rules));
      }
      schema = &*fragment;
    }
    DD_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                        ParseRows(*schema, payload.relation, payload.tsv));
    spec.inserts[payload.relation] = std::move(rows);
  }
  spec.add_rules = request.rules;
  DD_ASSIGN_OR_RETURN(incremental::UpdateReport report, dd->ApplyUpdate(spec));
  // ordering: relaxed — monotone counter read by GetStatus; the waiting
  // submitter is synchronized by its job's promise.
  updates_applied_.fetch_add(1, std::memory_order_relaxed);
  comm::UpdateResult result;
  result.epoch = report.epoch;
  result.label = report.label;
  result.strategy = incremental::StrategyName(report.strategy);
  result.grounding_seconds = report.grounding_seconds;
  result.learning_seconds = report.learning_seconds;
  result.inference_seconds = report.inference_seconds;
  result.affected_vars = report.affected_vars;
  return result;
}

StatusOr<comm::SaveGraphResult> TenantInstance::Execute(
    core::DeepDive* dd, const comm::SaveGraphRequest& request) {
  const factor::CompiledGraph compiled =
      factor::CompiledGraph::Compile(dd->ground().graph);
  DD_RETURN_IF_ERROR(factor::SaveCompiledGraph(compiled, request.path));
  comm::SaveGraphResult result;
  result.checksum = compiled.Checksum();
  result.image_bytes = compiled.image_bytes();
  result.fingerprint = inference::CompiledMarginalsFingerprint(
      compiled, config_.seed, ParallelismOf(config_));
  return result;
}

StatusOr<TenantInstance::DrainReport> TenantInstance::Execute(
    core::DeepDive* dd, const DrainRequest& /*request*/) {
  DrainReport report;
  if (auto* engine = dd->incremental_engine(); engine != nullptr) {
    DD_RETURN_IF_ERROR(engine->WaitForMaterialization());
    // Read the engine, not Query(): a snapshot installed by this wait shows
    // in a view only after the next update.
    const auto snapshot = engine->snapshot();
    report.snapshot_generation = snapshot->generation;
    report.samples_collected = snapshot->stats.samples_collected;
  }
  return report;
}

StatusOr<comm::AddRuleResult> TenantInstance::Execute(
    core::DeepDive* dd, const comm::AddRuleRequest& request) {
  DD_ASSIGN_OR_RETURN(incremental::UpdateReport report,
                      dd->AddRule(request.rule));
  comm::AddRuleResult result;
  result.epoch = report.epoch;
  result.label = report.label;
  result.strategy = incremental::StrategyName(report.strategy);
  result.grounding_work = report.grounding_work;
  result.grounding_seconds = report.grounding_seconds;
  result.learning_seconds = report.learning_seconds;
  result.inference_seconds = report.inference_seconds;
  result.program_version = dd->program_version();
  result.rule_count = dd->NumRules();
  result.rules_fingerprint = dd->RulesFingerprint();
  return result;
}

StatusOr<comm::RetractRuleResult> TenantInstance::Execute(
    core::DeepDive* dd, const comm::RetractRuleRequest& request) {
  DD_ASSIGN_OR_RETURN(incremental::UpdateReport report,
                      dd->RetractRule(request.label));
  comm::RetractRuleResult result;
  result.epoch = report.epoch;
  result.strategy = incremental::StrategyName(report.strategy);
  result.acceptance = report.acceptance_rate;
  result.program_version = dd->program_version();
  result.rule_count = dd->NumRules();
  result.rules_fingerprint = dd->RulesFingerprint();
  return result;
}

StatusOr<comm::MineResult> TenantInstance::Execute(
    core::DeepDive* dd, const comm::MineRequest& r) {
  const bool thresholds_changed =
      miner_ != nullptr && (miner_request_.min_support != r.min_support ||
                            miner_request_.min_confidence != r.min_confidence ||
                            miner_request_.max_body_atoms != r.max_body_atoms);
  if (miner_ == nullptr || thresholds_changed) {
    mining::MinerOptions options;
    options.candidates.min_support = r.min_support;
    options.candidates.min_confidence = r.min_confidence;
    options.candidates.max_body_atoms = r.max_body_atoms;
    miner_ = std::make_unique<mining::RuleMiner>(dd, options);
    miner_request_ = r;
  }
  DD_ASSIGN_OR_RETURN(mining::MineReport report,
                      miner_->Mine(r.max_promotions));
  comm::MineResult result;
  result.epoch = dd->Query()->epoch;
  result.candidates_considered = report.candidates_considered;
  result.candidates_trialed = report.candidates_trialed;
  result.promoted = report.promoted;
  result.program_version = dd->program_version();
  result.rule_count = dd->NumRules();
  result.rules_fingerprint = dd->RulesFingerprint();
  return result;
}

}  // namespace deepdive::serve::service
