#ifndef DEEPDIVE_SERVE_SERVICE_REGISTRY_H_
#define DEEPDIVE_SERVE_SERVICE_REGISTRY_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/comm/messages.h"
#include "serve/service/tenant.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace deepdive::serve::service {

/// The service tier's root object: N independent KB instances by name, each
/// with its own writer thread and update queue, so one tenant's load (or
/// shed state) never touches another's. Tenants are created concurrently
/// from any thread and never removed while the registry lives — returned
/// pointers stay valid until StopAll()/destruction, which is why handlers
/// can hold a TenantInstance* across a request without refcounting.
class TenantRegistry {
 public:
  TenantRegistry() = default;
  ~TenantRegistry() { StopAll(); }

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Registers and starts a tenant. Returns immediately after spawning its
  /// writer thread (engine construction is asynchronous — rendezvous with
  /// WaitReady/InitInfo); fails on empty or duplicate names and, before any
  /// thread starts, on engine settings outside ValidateTenantConfig's bounds.
  StatusOr<TenantInstance*> CreateTenant(const comm::CreateTenantRequest& request)
      EXCLUDES(mu_);

  /// Looks up a tenant; nullptr when unknown.
  TenantInstance* Find(const std::string& name) const EXCLUDES(mu_);

  /// Tenant names in creation order (the order status reports iterate).
  std::vector<std::string> Names() const EXCLUDES(mu_);

  /// All tenants in creation order.
  std::vector<TenantInstance*> All() const EXCLUDES(mu_);

  /// Stops every tenant (queue close + writer join), keeping the instances
  /// so late readers fail softly instead of dangling. Idempotent.
  void StopAll() EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  /// Creation-ordered; entries are never erased, so TenantInstance pointers
  /// handed out by Find/All are stable for the registry's lifetime.
  std::vector<std::pair<std::string, std::unique_ptr<TenantInstance>>>
      tenants_ GUARDED_BY(mu_);
};

}  // namespace deepdive::serve::service

#endif  // DEEPDIVE_SERVE_SERVICE_REGISTRY_H_
