#ifndef DEEPDIVE_SERVE_SERVICE_TENANT_H_
#define DEEPDIVE_SERVE_SERVICE_TENANT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
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
///   - Submit runs on arbitrary connection threads: it enqueues one job,
///     the request with a promise, and blocks on its future. The writer runs
///     every job through the request's Execute overload. An update sheds at
///     the queue's watermark (Status::Unavailable — the caller turns that
///     into a retry-after response); every other request uses the blocking
///     Push and is never shed.
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

  /// A service-tier request, not a wire verb: waits until the writer has
  /// drained background materialization and surfaces any async build failure
  /// (the in-process CLI's pre-export barrier).
  struct DrainRequest {};

  /// What a DrainRequest reports: where the materialization pipeline ended
  /// up (both zero in rerun mode, which has no materialization).
  struct DrainReport {
    uint64_t snapshot_generation = 0;
    size_t samples_collected = 0;
  };

  /// The one write entry. Enqueues `request` (a comm::UpdateRequest,
  /// SaveGraphRequest, AddRuleRequest, RetractRuleRequest or MineRequest, or
  /// a DrainRequest) for the writer thread, blocks until it has run there,
  /// and returns what its Execute overload returned. Only an update sheds:
  /// once the queue depth reaches the config watermark it returns
  /// Status::Unavailable at once (the admission-control contract; callers
  /// attach config().retry_after_ms). Every other request blocks for queue
  /// space. FailedPrecondition after Stop, and for every request to a tenant
  /// whose initialization failed.
  template <typename Request>
  auto Submit(Request request);

  /// Serving statistics snapshot; callable from any thread at any phase.
  comm::TenantStatus GetStatus() const EXCLUDES(mu_);

  /// Closes the queue, lets the writer drain queued jobs and background
  /// materialization, then joins it and unpublishes the engine. Idempotent;
  /// call from the owning (registry) thread only.
  void Stop();

  /// Test hook: runs on the writer thread at the start of every update
  /// request (before ApplyUpdate). Lets saturation tests stall the consumer
  /// deterministically. Set before submitting updates.
  void SetPreUpdateHookForTest(std::function<void()> hook) EXCLUDES(mu_);

 private:
  enum class Phase { kStarting, kReady, kFailed, kStopped };

  /// One queued request. The writer thread Runs it, or the loop of a tenant
  /// whose initialization failed Rejects it; either fulfils the submitter's
  /// promise once.
  struct Job {
    Job() = default;
    Job(const Job&) = delete;
    Job& operator=(const Job&) = delete;
    virtual ~Job() = default;
    virtual void Run(TenantInstance* tenant, core::DeepDive* dd)
        REQUIRES(serving_thread) = 0;
    virtual void Reject(const Status& status) = 0;
  };

  /// The writer thread's whole life: build + init the engine, publish
  /// readiness, run jobs until the queue closes, drain, unpublish.
  void ServeLoop();

  StatusOr<std::shared_ptr<core::DeepDive>> BuildEngine()
      REQUIRES(serving_thread);

  /// Each request's work on the writer thread. The update overload also
  /// runs the pre-update test hook and counts updates_applied.
  StatusOr<comm::UpdateResult> Execute(core::DeepDive* dd,
                                       const comm::UpdateRequest& request)
      REQUIRES(serving_thread);
  StatusOr<comm::SaveGraphResult> Execute(
      core::DeepDive* dd, const comm::SaveGraphRequest& request)
      REQUIRES(serving_thread);
  StatusOr<comm::AddRuleResult> Execute(core::DeepDive* dd,
                                        const comm::AddRuleRequest& request)
      REQUIRES(serving_thread);
  StatusOr<comm::RetractRuleResult> Execute(
      core::DeepDive* dd, const comm::RetractRuleRequest& request)
      REQUIRES(serving_thread);
  StatusOr<comm::MineResult> Execute(core::DeepDive* dd,
                                     const comm::MineRequest& request)
      REQUIRES(serving_thread);
  StatusOr<DrainReport> Execute(core::DeepDive* dd, const DrainRequest& request)
      REQUIRES(serving_thread);

  /// A request and the promise of its Execute overload's result.
  template <typename Request>
  struct RequestJob final : Job {
    using Result = decltype(std::declval<TenantInstance&>().Execute(
        std::declval<core::DeepDive*>(), std::declval<const Request&>()));

    explicit RequestJob(Request r) : request(std::move(r)) {}
    void Run(TenantInstance* tenant, core::DeepDive* dd) override
        REQUIRES(serving_thread) {
      done.set_value(tenant->Execute(dd, request));
    }
    void Reject(const Status& status) override {
      done.set_value(Result(status));
    }

    Request request;
    std::promise<Result> done;
  };

  /// Queues `job`: TryPush when it `sheds` (counting the shed), else the
  /// blocking Push. OK once queued; Unavailable on a shed; FailedPrecondition
  /// once the queue is closed.
  Status Enqueue(std::unique_ptr<Job> job, bool sheds);

  const std::string name_;
  const std::string program_source_;
  const comm::TenantConfig config_;
  std::vector<comm::DataPayload> base_data_;  // consumed by BuildEngine

  BoundedQueue<std::unique_ptr<Job>> queue_;

  mutable Mutex mu_;
  mutable CondVar ready_cv_;
  Phase phase_ GUARDED_BY(mu_) = Phase::kStarting;
  Status init_status_ GUARDED_BY(mu_);
  comm::CreateTenantResult init_info_ GUARDED_BY(mu_);
  /// Published once ready; reset when the writer exits. shared_ptr (not the
  /// unique owner) so the read plane can hold the engine across Stop().
  std::shared_ptr<core::DeepDive> engine_ GUARDED_BY(mu_);
  std::function<void()> pre_update_hook_ GUARDED_BY(mu_);

  /// Writer-thread-only rule miner, created lazily by the first mine request
  /// (and rebuilt by one with different thresholds), then kept incremental;
  /// destroyed by ServeLoop before the engine is unpublished (its destructor
  /// unregisters the engine's relation-delta listener).
  std::unique_ptr<mining::RuleMiner> miner_ GUARDED_BY(serving_thread);
  comm::MineRequest miner_request_ GUARDED_BY(serving_thread);

  /// Monotone serving counters, read by GetStatus from any thread.
  std::atomic<uint64_t> updates_applied_{0};
  std::atomic<uint64_t> updates_shed_{0};

  /// Single dedicated worker hosting ServeLoop (inline_when_single = false):
  /// the tenant's serving thread. Reset (joined) by Stop().
  std::unique_ptr<ThreadPool> writer_;
};

template <typename Request>
auto TenantInstance::Submit(Request request) {
  using Result = typename RequestJob<Request>::Result;
  auto job = std::make_unique<RequestJob<Request>>(std::move(request));
  std::future<Result> done = job->done.get_future();
  const Status queued =
      Enqueue(std::move(job), std::is_same_v<Request, comm::UpdateRequest>);
  if (!queued.ok()) return Result(queued);
  return done.get();
}

}  // namespace deepdive::serve::service

#endif  // DEEPDIVE_SERVE_SERVICE_TENANT_H_
