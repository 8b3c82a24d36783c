#ifndef DEEPDIVE_SERVE_SERVICE_TENANT_H_
#define DEEPDIVE_SERVE_SERVICE_TENANT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/deepdive.h"
#include "inference/parallelism.h"
#include "mining/miner.h"
#include "serve/comm/messages.h"
#include "util/bounded_queue.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace deepdive::serve::service {

/// The parallelism a tenant's DeepDive runs every stage with, from the wire's
/// threads, replicas and sync_every.
inference::Parallelism ParallelismOf(const comm::TenantConfig& config);

/// One hosted KB instance: a DeepDive engine owned by a dedicated writer
/// thread, fed by a bounded update queue with admission control.
///
/// Threading model (the service tier's whole point):
///   - The constructor spawns a single-worker ThreadPool whose worker runs
///     ServeLoop() for the tenant's entire life. That worker claims the
///     `serving_thread` role (the trusted root for this instance) and is the
///     ONLY thread that ever touches the DeepDive's REQUIRES(serving_thread)
///     surface — creation, LoadRows, Initialize, ApplyUpdate, snapshot
///     compilation, materialization drain, and destruction all happen there.
///   - SubmitUpdate / SaveGraph / Drain run on arbitrary connection threads:
///     they enqueue a job carrying a promise and block on its future. The
///     queue sheds at its watermark (Status::Unavailable — the caller turns
///     that into a retry-after response); admin jobs use the blocking Push
///     and are never shed.
///   - Query/WaitReady/GetStatus are the read plane: they touch only the
///     capability-free surfaces (Query(), WaitForView(), config()) through a
///     shared_ptr published once the tenant is ready, so readers are safe
///     against tenant shutdown (their pin keeps the engine alive).
///
/// TSA note: `serving_thread` is one global role, and thread-safety analysis
/// is function-local, so N tenants' writer threads may each assert it — the
/// annotation enforces "only code that claimed the role calls the writer
/// surface"; the structural guarantee that each DeepDive is touched by
/// exactly one writer comes from the queue (one consumer per instance).
class TenantInstance {
 public:
  /// Starts the writer thread; it builds the engine (program + base data +
  /// Initialize) asynchronously. Use WaitReady()/InitInfo() to rendezvous.
  TenantInstance(std::string name, std::string program_source,
                 comm::TenantConfig config,
                 std::vector<comm::DataPayload> data);

  /// Stops and joins the writer (Stop()).
  ~TenantInstance();

  TenantInstance(const TenantInstance&) = delete;
  TenantInstance& operator=(const TenantInstance&) = delete;

  /// Immutable after construction, so the reference is safe from any thread.
  const std::string& name() const { return name_; }
  const comm::TenantConfig& config() const { return config_; }

  /// Blocks until Initialize finished (either way); returns its outcome.
  Status WaitReady() const EXCLUDES(mu_);

  /// WaitReady + the creation summary (first-view epoch, graph size).
  StatusOr<comm::CreateTenantResult> InitInfo() const EXCLUDES(mu_);

  /// The engine, for the capability-free read plane (Query / WaitForView /
  /// config). Null until ready and after Stop(); holders keep the engine
  /// alive across a concurrent Stop, so pinned views never dangle.
  std::shared_ptr<const core::DeepDive> deepdive() const EXCLUDES(mu_);

  /// Enqueues one update for the writer thread and blocks until it has been
  /// applied (or rejected). Sheds with Status::Unavailable once the queue
  /// depth reaches the config watermark — the admission-control contract;
  /// callers attach config().retry_after_ms. FailedPrecondition after Stop.
  StatusOr<comm::UpdateResult> SubmitUpdate(comm::UpdateRequest request);

  /// Compiles + saves the current graph snapshot on the writer thread and
  /// returns its identity (checksum, size, marginals fingerprint). Admin
  /// job: blocks for queue space instead of shedding.
  StatusOr<comm::SaveGraphResult> SaveGraph(const std::string& path);

  /// Program evolution on the writer thread. Rule deltas are rare relative
  /// to data updates, so like admin jobs they block for queue space instead
  /// of shedding.
  StatusOr<comm::AddRuleResult> SubmitAddRule(comm::AddRuleRequest request);
  StatusOr<comm::RetractRuleResult> SubmitRetractRule(
      comm::RetractRuleRequest request);
  /// One rule-mining pass (candidate generation + engine trials). The miner
  /// and its co-occurrence statistics are created lazily on the writer
  /// thread at the first mine and kept incremental afterwards; a request
  /// with different thresholds rebuilds it.
  StatusOr<comm::MineResult> SubmitMine(comm::MineRequest request);

  /// Outcome of a Drain(): where the materialization pipeline ended up
  /// (both zero in rerun mode, which has no materialization).
  struct DrainReport {
    uint64_t snapshot_generation = 0;
    size_t samples_collected = 0;
  };

  /// Waits until the writer has drained background materialization, and
  /// surfaces any async build failure (the in-process CLI's pre-export
  /// barrier). Admin job, never shed.
  StatusOr<DrainReport> Drain();

  /// Serving statistics snapshot; callable from any thread at any phase.
  comm::TenantStatus GetStatus() const EXCLUDES(mu_);

  /// Closes the queue, lets the writer drain queued jobs and background
  /// materialization, then joins it and unpublishes the engine. Idempotent;
  /// call from the owning (registry) thread only.
  void Stop();

  /// Test hook: runs on the writer thread at the start of every update job
  /// (before ApplyUpdate). Lets saturation tests stall the consumer
  /// deterministically. Set before submitting updates.
  void SetPreUpdateHookForTest(std::function<void()> hook) EXCLUDES(mu_);

 private:
  enum class Phase { kStarting, kReady, kFailed, kStopped };

  struct Job {
    enum class Kind { kUpdate, kSaveGraph, kDrain, kAddRule, kRetractRule, kMine };
    Kind kind = Kind::kUpdate;
    comm::UpdateRequest update;
    std::string save_path;
    comm::AddRuleRequest add_rule;
    comm::RetractRuleRequest retract_rule;
    comm::MineRequest mine;
    std::promise<StatusOr<comm::UpdateResult>> update_done;
    std::promise<StatusOr<comm::SaveGraphResult>> save_done;
    std::promise<StatusOr<DrainReport>> drain_done;
    std::promise<StatusOr<comm::AddRuleResult>> add_rule_done;
    std::promise<StatusOr<comm::RetractRuleResult>> retract_rule_done;
    std::promise<StatusOr<comm::MineResult>> mine_done;
  };

  /// The writer thread's whole life: build + init the engine, publish
  /// readiness, consume jobs until the queue closes, drain, unpublish.
  void ServeLoop();

  StatusOr<std::shared_ptr<core::DeepDive>> BuildEngine()
      REQUIRES(serving_thread);
  StatusOr<comm::UpdateResult> ExecuteUpdate(core::DeepDive* dd,
                                             comm::UpdateRequest request)
      REQUIRES(serving_thread);
  StatusOr<comm::SaveGraphResult> ExecuteSaveGraph(core::DeepDive* dd,
                                                   const std::string& path)
      REQUIRES(serving_thread);
  StatusOr<DrainReport> ExecuteDrain(core::DeepDive* dd)
      REQUIRES(serving_thread);
  StatusOr<comm::AddRuleResult> ExecuteAddRule(core::DeepDive* dd,
                                               const comm::AddRuleRequest& r)
      REQUIRES(serving_thread);
  StatusOr<comm::RetractRuleResult> ExecuteRetractRule(
      core::DeepDive* dd, const comm::RetractRuleRequest& r)
      REQUIRES(serving_thread);
  StatusOr<comm::MineResult> ExecuteMine(core::DeepDive* dd,
                                         const comm::MineRequest& r)
      REQUIRES(serving_thread);
  /// Fulfils a job's promise with `status` (used to reject queued jobs when
  /// the tenant failed to initialize or is stopping).
  static void RejectJob(Job* job, const Status& status);

  const std::string name_;
  const std::string program_source_;
  const comm::TenantConfig config_;
  std::vector<comm::DataPayload> base_data_;  // consumed by BuildEngine

  BoundedQueue<Job> queue_;

  mutable Mutex mu_;
  mutable CondVar ready_cv_;
  Phase phase_ GUARDED_BY(mu_) = Phase::kStarting;
  Status init_status_ GUARDED_BY(mu_);
  comm::CreateTenantResult init_info_ GUARDED_BY(mu_);
  /// Published once ready; reset when the writer exits. shared_ptr (not the
  /// unique owner) so the read plane can hold the engine across Stop().
  std::shared_ptr<core::DeepDive> engine_ GUARDED_BY(mu_);
  std::function<void()> pre_update_hook_ GUARDED_BY(mu_);

  /// Writer-thread-only rule miner, created lazily by the first kMine job
  /// and destroyed by ServeLoop before the engine is unpublished (its
  /// destructor unregisters the engine's relation-delta listener).
  std::unique_ptr<mining::RuleMiner> miner_ GUARDED_BY(serving_thread);
  comm::MineRequest miner_request_ GUARDED_BY(serving_thread);

  /// Monotone serving counters, read by GetStatus from any thread.
  std::atomic<uint64_t> updates_applied_{0};
  std::atomic<uint64_t> updates_shed_{0};

  /// Single dedicated worker hosting ServeLoop (inline_when_single = false):
  /// the tenant's serving thread. Reset (joined) by Stop().
  std::unique_ptr<ThreadPool> writer_;
};

}  // namespace deepdive::serve::service

#endif  // DEEPDIVE_SERVE_SERVICE_TENANT_H_
