#ifndef DEEPDIVE_SERVE_HANDLERS_HANDLERS_H_
#define DEEPDIVE_SERVE_HANDLERS_HANDLERS_H_

#include <functional>
#include <string>

#include "serve/comm/messages.h"
#include "util/status.h"

namespace deepdive::serve::service {
class TenantRegistry;
class TenantInstance;
}  // namespace deepdive::serve::service

namespace deepdive::serve::handlers {

/// The handlers tier: one Handle overload per request body type, which
/// Dispatch visits. Handlers speak only the comm::* request/result structs
/// and the service tier's tenant API — never the engine directly (enforced
/// by tools/static_analysis's layering DAG: nothing under serve/handlers or
/// serve/comm includes incremental/engine.h). Both transports share this
/// class: deepdive_serve's connection workers and deepdive_cli's in-process
/// run path dispatch the exact same Request values, so the daemon and the
/// CLI cannot drift.
///
/// Thread contract: Dispatch is called concurrently from any number of
/// connection threads. Query/export handlers ride the lock-free view-pin
/// path; the five writer verbs (update, save_graph, add_rule, retract_rule,
/// mine) share one handler that submits the body to the tenant's
/// admission-controlled queue (a shed update surfaces as
/// StatusCode::kUnavailable with retry_after_ms attached).
class Dispatcher {
 public:
  explicit Dispatcher(service::TenantRegistry* registry);

  /// Routes one request to the Handle overload of its body. Never throws;
  /// every failure is a Response whose code/message carry the Status.
  comm::Response Dispatch(const comm::Request& request) const;

  /// Invoked (on the dispatching thread) when a shutdown verb is accepted;
  /// must be fast and non-blocking — typically flips the daemon's drain
  /// flag. The shutdown response is still delivered to the client.
  void SetShutdownCallback(std::function<void()> callback) {
    shutdown_callback_ = std::move(callback);
  }

 private:
  comm::Response Handle(const std::string& tenant,
                        const comm::QueryRequest& body) const;
  comm::Response Handle(const std::string& tenant,
                        const comm::ExportRequest& body) const;
  comm::Response Handle(const std::string& tenant,
                        const comm::StatusRequest& body) const;
  comm::Response Handle(const std::string& tenant,
                        const comm::CreateTenantRequest& body) const;
  comm::Response Handle(const std::string& tenant,
                        const comm::ListTenantsRequest& body) const;
  comm::Response Handle(const std::string& tenant,
                        const comm::ShutdownRequest& body) const;
  /// The writer verbs: checks the body's required field (a path, a rule or
  /// a label), then submits it to the tenant's writer thread. A tenant that
  /// failed to initialize or has stopped answers every writer verb with
  /// FailedPrecondition; only a shed update answers kUnavailable.
  template <typename WriterBody>
  comm::Response Handle(const std::string& tenant,
                        const WriterBody& body) const;

  /// Looks up the tenant a read verb addresses and waits for its readiness
  /// signal (first published view) — the explicit rendezvous that replaced
  /// the old grace-window sleep.
  StatusOr<service::TenantInstance*> ReadyTenant(
      const std::string& tenant) const;

  service::TenantRegistry* registry_;  // not owned
  std::function<void()> shutdown_callback_;
};

}  // namespace deepdive::serve::handlers

#endif  // DEEPDIVE_SERVE_HANDLERS_HANDLERS_H_
