#include "serve/handlers/handlers.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "serve/service/registry.h"
#include "serve/service/tenant.h"
#include "storage/text_io.h"

namespace deepdive::serve::handlers {
namespace {

bool IsQueryRelationOf(const incremental::ResultView& view,
                       const std::string& relation) {
  return std::find(view.query_relations.begin(), view.query_relations.end(),
                   relation) != view.query_relations.end();
}

/// Renders one relation's export chunk from a pinned view — exactly the
/// lines incremental::WriteRelationTsv would print (same threshold filter,
/// same unprintable-tuple skip), so the daemon's export is byte-identical
/// to the in-process path.
std::string RenderRelationTsv(const incremental::ResultView& view,
                              const std::string& relation, double threshold) {
  std::string tsv;
  const auto* entries = view.Relation(relation);
  if (entries == nullptr) return tsv;
  for (const auto& [tuple, marginal] : *entries) {
    if (marginal < threshold) continue;
    auto line = FormatMarginalLine(marginal, tuple);
    if (!line.ok()) continue;  // unprintable tuple: same skip as FormatTsvLine
    tsv += *line;
    tsv += '\n';
  }
  return tsv;
}

/// The required field of a writer verb's body: update and mine have none.
template <typename WriterBody>
Status CheckRequiredField(const WriterBody& /*body*/) {
  return Status::OK();
}
Status CheckRequiredField(const comm::SaveGraphRequest& body) {
  return body.path.empty() ? Status::InvalidArgument("save_graph needs a path")
                           : Status::OK();
}
Status CheckRequiredField(const comm::AddRuleRequest& body) {
  return body.rule.empty()
             ? Status::InvalidArgument("add_rule needs a rule fragment")
             : Status::OK();
}
Status CheckRequiredField(const comm::RetractRuleRequest& body) {
  return body.label.empty()
             ? Status::InvalidArgument("retract_rule needs a label")
             : Status::OK();
}

}  // namespace

Dispatcher::Dispatcher(service::TenantRegistry* registry)
    : registry_(registry) {}

StatusOr<service::TenantInstance*> Dispatcher::ReadyTenant(
    const std::string& tenant) const {
  service::TenantInstance* instance = registry_->Find(tenant);
  if (instance == nullptr) {
    return Status::NotFound("unknown tenant '" + tenant + "'");
  }
  DD_RETURN_IF_ERROR(instance->WaitReady());
  return instance;
}

template <typename WriterBody>
comm::Response Dispatcher::Handle(const std::string& tenant,
                                  const WriterBody& body) const {
  if (Status missing = CheckRequiredField(body); !missing.ok()) {
    return comm::Response::Error(missing);
  }
  // No readiness wait: the writer thread runs queued jobs once the tenant is
  // ready, and rejects them if its initialization failed.
  service::TenantInstance* instance = registry_->Find(tenant);
  if (instance == nullptr) {
    return comm::Response::Error(
        Status::NotFound("unknown tenant '" + tenant + "'"));
  }
  auto result = instance->Submit(body);
  if (!result.ok()) {
    comm::Response response = comm::Response::Error(result.status());
    if (result.status().code() == StatusCode::kUnavailable) {
      // The admission controller shed this update: tell the client when to
      // come back instead of letting it hammer the queue.
      response.retry_after_ms = instance->config().retry_after_ms;
    }
    return response;
  }
  comm::Response response;
  response.body = std::move(result).value();
  return response;
}

comm::Response Dispatcher::Dispatch(const comm::Request& request) const {
  return std::visit(
      [&](const auto& body) { return Handle(request.tenant, body); },
      request.body);
}

comm::Response Dispatcher::Handle(const std::string& tenant,
                                  const comm::QueryRequest& body) const {
  if (body.relation.empty()) {
    return comm::Response::Error(
        Status::InvalidArgument("query needs a relation"));
  }
  auto instance = ReadyTenant(tenant);
  if (!instance.ok()) return comm::Response::Error(instance.status());
  const std::shared_ptr<const core::DeepDive> dd = (*instance)->deepdive();
  if (dd == nullptr) {
    return comm::Response::Error(
        Status::FailedPrecondition("tenant '" + tenant + "' is stopped"));
  }
  // One lock-free pin answers the whole request; the writer thread keeps
  // publishing newer epochs underneath without blocking us.
  const auto view = dd->Query();
  if (!IsQueryRelationOf(*view, body.relation)) {
    return comm::Response::Error(Status::InvalidArgument(
        "'" + body.relation + "' is not a query relation"));
  }
  comm::QueryResult result;
  result.epoch = view->epoch;
  const auto* entries = view->Relation(body.relation);
  if (body.tuple_tsv.empty()) {
    if (entries != nullptr) {
      for (const auto& [tuple, marginal] : *entries) {
        if (marginal >= body.threshold) ++result.entries;
      }
    }
  } else if (const auto* entry = view->FindTsv(body.relation, body.tuple_tsv)) {
    // Tuples travel as their TSV rendering; the view carries the schemas
    // that parse it (the program is serving-thread-only).
    result.found = true;
    result.marginal = entry->second;
  }
  comm::Response response;
  response.body = result;
  return response;
}

comm::Response Dispatcher::Handle(const std::string& tenant,
                                  const comm::ExportRequest& body) const {
  auto instance = ReadyTenant(tenant);
  if (!instance.ok()) return comm::Response::Error(instance.status());
  const std::shared_ptr<const core::DeepDive> dd = (*instance)->deepdive();
  if (dd == nullptr) {
    return comm::Response::Error(
        Status::FailedPrecondition("tenant '" + tenant + "' is stopped"));
  }
  // Every chunk comes from this one pinned view: the export is a consistent
  // snapshot even while updates keep publishing.
  const auto view = dd->Query();
  comm::ExportResult result;
  result.epoch = view->epoch;
  const std::vector<std::string>& relations =
      body.relations.empty() ? view->query_relations : body.relations;
  for (const std::string& relation : relations) {
    if (!IsQueryRelationOf(*view, relation)) {
      return comm::Response::Error(Status::InvalidArgument(
          "'" + relation + "' is not a query relation"));
    }
    comm::ExportChunk chunk;
    chunk.relation = relation;
    chunk.tsv = RenderRelationTsv(*view, relation, body.threshold);
    result.chunks.push_back(std::move(chunk));
  }
  comm::Response response;
  response.body = std::move(result);
  return response;
}

comm::Response Dispatcher::Handle(const std::string& tenant,
                                  const comm::StatusRequest& /*body*/) const {
  comm::StatusResult result;
  if (tenant.empty()) {
    for (service::TenantInstance* instance : registry_->All()) {
      result.tenants.push_back(instance->GetStatus());
    }
  } else {
    service::TenantInstance* instance = registry_->Find(tenant);
    if (instance == nullptr) {
      return comm::Response::Error(
          Status::NotFound("unknown tenant '" + tenant + "'"));
    }
    result.tenants.push_back(instance->GetStatus());
  }
  comm::Response response;
  response.body = std::move(result);
  return response;
}

comm::Response Dispatcher::Handle(const std::string& /*tenant*/,
                                  const comm::CreateTenantRequest& body) const {
  auto created = registry_->CreateTenant(body);
  if (!created.ok()) return comm::Response::Error(created.status());
  // Rendezvous with the new writer thread: the response carries the first
  // view's epoch and the grounded graph size, or the Initialize error (the
  // failed tenant stays registered and reports failed=1 in status).
  auto info = (*created)->InitInfo();
  if (!info.ok()) return comm::Response::Error(info.status());
  comm::Response response;
  response.body = std::move(info).value();
  return response;
}

comm::Response Dispatcher::Handle(
    const std::string& /*tenant*/,
    const comm::ListTenantsRequest& /*body*/) const {
  comm::ListTenantsResult result;
  result.names = registry_->Names();
  comm::Response response;
  response.body = std::move(result);
  return response;
}

comm::Response Dispatcher::Handle(const std::string& /*tenant*/,
                                  const comm::ShutdownRequest& /*body*/) const {
  if (shutdown_callback_) shutdown_callback_();
  comm::Response response;
  response.message = "draining";
  return response;
}

}  // namespace deepdive::serve::handlers
