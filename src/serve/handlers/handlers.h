#ifndef DEEPDIVE_SERVE_HANDLERS_HANDLERS_H_
#define DEEPDIVE_SERVE_HANDLERS_HANDLERS_H_

#include <functional>
#include <map>

#include "serve/comm/messages.h"
#include "util/status.h"

namespace deepdive::serve::service {
class TenantRegistry;
class TenantInstance;
}  // namespace deepdive::serve::service

namespace deepdive::serve::handlers {

/// The handlers tier: a dispatch table mapping each wire verb onto its typed
/// handler. Handlers speak only the comm::* request/result structs and the
/// service tier's tenant API — never the engine directly (enforced by
/// tools/static_analysis's layering DAG: nothing under serve/handlers
/// or serve/comm includes incremental/engine.h). Both transports share this
/// class: deepdive_serve's connection workers and deepdive_cli's in-process
/// run path dispatch the exact same Request values, so the daemon and the
/// CLI cannot drift.
///
/// Thread contract: Dispatch is called concurrently from any number of
/// connection threads. Query/export handlers ride the lock-free view-pin
/// path; updates go through the tenant's admission-controlled queue (a shed
/// surfaces as StatusCode::kUnavailable with retry_after_ms attached).
class Dispatcher {
 public:
  explicit Dispatcher(service::TenantRegistry* registry);

  /// Routes one request to its verb handler. Never throws; every failure is
  /// a Response whose code/message carry the Status.
  comm::Response Dispatch(const comm::Request& request) const;

  /// Invoked (on the dispatching thread) when a shutdown verb is accepted;
  /// must be fast and non-blocking — typically flips the daemon's drain
  /// flag. The shutdown response is still delivered to the client.
  void SetShutdownCallback(std::function<void()> callback) {
    shutdown_callback_ = std::move(callback);
  }

 private:
  comm::Response HandleQuery(const comm::Request& request) const;
  comm::Response HandleUpdate(const comm::Request& request) const;
  comm::Response HandleExport(const comm::Request& request) const;
  comm::Response HandleStatus(const comm::Request& request) const;
  comm::Response HandleCreateTenant(const comm::Request& request) const;
  comm::Response HandleListTenants(const comm::Request& request) const;
  comm::Response HandleSaveGraph(const comm::Request& request) const;
  comm::Response HandleShutdown(const comm::Request& request) const;
  comm::Response HandleAddRule(const comm::Request& request) const;
  comm::Response HandleRetractRule(const comm::Request& request) const;
  comm::Response HandleMine(const comm::Request& request) const;

  /// Looks up the tenant a request addresses and waits for its readiness
  /// signal (first published view) — the explicit rendezvous that replaced
  /// the old grace-window sleep.
  StatusOr<service::TenantInstance*> ReadyTenant(
      const comm::Request& request) const;

  service::TenantRegistry* registry_;  // not owned
  std::function<void()> shutdown_callback_;
  /// The verb dispatch table; immutable after construction, so concurrent
  /// Dispatch calls read it without synchronization.
  std::map<comm::Verb, comm::Response (Dispatcher::*)(const comm::Request&)
                           const>
      table_;
};

}  // namespace deepdive::serve::handlers

#endif  // DEEPDIVE_SERVE_HANDLERS_HANDLERS_H_
