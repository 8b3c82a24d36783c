#include "serve/service/registry.h"

#include "serve/service/flags.h"

namespace deepdive::serve::service {

StatusOr<TenantInstance*> TenantRegistry::CreateTenant(
    const comm::CreateTenantRequest& request) {
  DD_RETURN_IF_ERROR(ValidateTenantConfig(request.config));
  if (request.name.empty()) {
    return Status::InvalidArgument("tenant name must not be empty");
  }
  // Construct outside the lock: the constructor spawns a thread, and holding
  // mu_ across that would serialize unrelated lookups behind it.
  auto instance = std::make_unique<TenantInstance>(
      request.name, request.program, request.config, request.data);
  TenantInstance* raw = instance.get();
  {
    MutexLock lock(mu_);
    for (const auto& [name, tenant] : tenants_) {
      if (name == request.name) {
        return Status::AlreadyExists("tenant '" + request.name +
                                     "' already exists");
      }
    }
    tenants_.emplace_back(request.name, std::move(instance));
  }
  return raw;
}

TenantInstance* TenantRegistry::Find(const std::string& name) const {
  MutexLock lock(mu_);
  for (const auto& [tenant_name, tenant] : tenants_) {
    if (tenant_name == name) return tenant.get();
  }
  return nullptr;
}

std::vector<std::string> TenantRegistry::Names() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) names.push_back(name);
  return names;
}

std::vector<TenantInstance*> TenantRegistry::All() const {
  MutexLock lock(mu_);
  std::vector<TenantInstance*> all;
  all.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) all.push_back(tenant.get());
  return all;
}

void TenantRegistry::StopAll() {
  // Snapshot under the lock, stop outside it: Stop() joins writer threads,
  // and a concurrent Find/status must not block on that.
  std::vector<TenantInstance*> all = All();
  for (TenantInstance* tenant : all) tenant->Stop();
}

}  // namespace deepdive::serve::service
