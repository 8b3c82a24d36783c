#include "serve/handlers/handlers.h"

#include <algorithm>
#include <memory>
#include <string>
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

}  // namespace

Dispatcher::Dispatcher(service::TenantRegistry* registry)
    : registry_(registry) {
  table_[comm::Verb::kQuery] = &Dispatcher::HandleQuery;
  table_[comm::Verb::kApplyUpdate] = &Dispatcher::HandleUpdate;
  table_[comm::Verb::kExport] = &Dispatcher::HandleExport;
  table_[comm::Verb::kStatus] = &Dispatcher::HandleStatus;
  table_[comm::Verb::kCreateTenant] = &Dispatcher::HandleCreateTenant;
  table_[comm::Verb::kListTenants] = &Dispatcher::HandleListTenants;
  table_[comm::Verb::kSaveGraph] = &Dispatcher::HandleSaveGraph;
  table_[comm::Verb::kShutdown] = &Dispatcher::HandleShutdown;
  table_[comm::Verb::kAddRule] = &Dispatcher::HandleAddRule;
  table_[comm::Verb::kRetractRule] = &Dispatcher::HandleRetractRule;
  table_[comm::Verb::kMine] = &Dispatcher::HandleMine;
}

comm::Response Dispatcher::Dispatch(const comm::Request& request) const {
  const auto it = table_.find(request.verb());
  if (it == table_.end()) {
    return comm::Response::Error(Status::Unimplemented(
        std::string("no handler for verb ") + comm::VerbName(request.verb())));
  }
  return (this->*(it->second))(request);
}

StatusOr<service::TenantInstance*> Dispatcher::ReadyTenant(
    const comm::Request& request) const {
  service::TenantInstance* tenant = registry_->Find(request.tenant);
  if (tenant == nullptr) {
    return Status::NotFound("unknown tenant '" + request.tenant + "'");
  }
  DD_RETURN_IF_ERROR(tenant->WaitReady());
  return tenant;
}

comm::Response Dispatcher::HandleQuery(const comm::Request& request) const {
  const auto& body = std::get<comm::QueryRequest>(request.body);
  if (body.relation.empty()) {
    return comm::Response::Error(
        Status::InvalidArgument("query needs a relation"));
  }
  auto tenant = ReadyTenant(request);
  if (!tenant.ok()) return comm::Response::Error(tenant.status());
  const std::shared_ptr<const core::DeepDive> dd = (*tenant)->deepdive();
  if (dd == nullptr) {
    return comm::Response::Error(Status::FailedPrecondition(
        "tenant '" + request.tenant + "' is stopped"));
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

comm::Response Dispatcher::HandleUpdate(const comm::Request& request) const {
  service::TenantInstance* tenant = registry_->Find(request.tenant);
  if (tenant == nullptr) {
    return comm::Response::Error(
        Status::NotFound("unknown tenant '" + request.tenant + "'"));
  }
  auto result = tenant->SubmitUpdate(std::get<comm::UpdateRequest>(request.body));
  if (!result.ok()) {
    comm::Response response = comm::Response::Error(result.status());
    if (result.status().code() == StatusCode::kUnavailable) {
      // The admission controller shed this update: tell the client when to
      // come back instead of letting it hammer the queue.
      response.retry_after_ms = tenant->config().retry_after_ms;
    }
    return response;
  }
  comm::Response response;
  response.body = std::move(result).value();
  return response;
}

comm::Response Dispatcher::HandleExport(const comm::Request& request) const {
  const auto& body = std::get<comm::ExportRequest>(request.body);
  auto tenant = ReadyTenant(request);
  if (!tenant.ok()) return comm::Response::Error(tenant.status());
  const std::shared_ptr<const core::DeepDive> dd = (*tenant)->deepdive();
  if (dd == nullptr) {
    return comm::Response::Error(Status::FailedPrecondition(
        "tenant '" + request.tenant + "' is stopped"));
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

comm::Response Dispatcher::HandleStatus(const comm::Request& request) const {
  comm::StatusResult result;
  if (request.tenant.empty()) {
    for (service::TenantInstance* tenant : registry_->All()) {
      result.tenants.push_back(tenant->GetStatus());
    }
  } else {
    service::TenantInstance* tenant = registry_->Find(request.tenant);
    if (tenant == nullptr) {
      return comm::Response::Error(
          Status::NotFound("unknown tenant '" + request.tenant + "'"));
    }
    result.tenants.push_back(tenant->GetStatus());
  }
  comm::Response response;
  response.body = std::move(result);
  return response;
}

comm::Response Dispatcher::HandleCreateTenant(
    const comm::Request& request) const {
  const auto& body = std::get<comm::CreateTenantRequest>(request.body);
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

comm::Response Dispatcher::HandleListTenants(const comm::Request&) const {
  comm::ListTenantsResult result;
  result.names = registry_->Names();
  comm::Response response;
  response.body = std::move(result);
  return response;
}

comm::Response Dispatcher::HandleSaveGraph(const comm::Request& request) const {
  const auto& body = std::get<comm::SaveGraphRequest>(request.body);
  if (body.path.empty()) {
    return comm::Response::Error(
        Status::InvalidArgument("save_graph needs a path"));
  }
  auto tenant = ReadyTenant(request);
  if (!tenant.ok()) return comm::Response::Error(tenant.status());
  auto saved = (*tenant)->SaveGraph(body.path);
  if (!saved.ok()) return comm::Response::Error(saved.status());
  comm::Response response;
  response.body = std::move(saved).value();
  return response;
}

comm::Response Dispatcher::HandleAddRule(const comm::Request& request) const {
  const auto& body = std::get<comm::AddRuleRequest>(request.body);
  if (body.rule.empty()) {
    return comm::Response::Error(
        Status::InvalidArgument("add_rule needs a rule fragment"));
  }
  auto tenant = ReadyTenant(request);
  if (!tenant.ok()) return comm::Response::Error(tenant.status());
  auto result = (*tenant)->SubmitAddRule(body);
  if (!result.ok()) return comm::Response::Error(result.status());
  comm::Response response;
  response.body = std::move(result).value();
  return response;
}

comm::Response Dispatcher::HandleRetractRule(
    const comm::Request& request) const {
  const auto& body = std::get<comm::RetractRuleRequest>(request.body);
  if (body.label.empty()) {
    return comm::Response::Error(
        Status::InvalidArgument("retract_rule needs a label"));
  }
  auto tenant = ReadyTenant(request);
  if (!tenant.ok()) return comm::Response::Error(tenant.status());
  auto result = (*tenant)->SubmitRetractRule(body);
  if (!result.ok()) return comm::Response::Error(result.status());
  comm::Response response;
  response.body = std::move(result).value();
  return response;
}

comm::Response Dispatcher::HandleMine(const comm::Request& request) const {
  const auto& body = std::get<comm::MineRequest>(request.body);
  auto tenant = ReadyTenant(request);
  if (!tenant.ok()) return comm::Response::Error(tenant.status());
  auto result = (*tenant)->SubmitMine(body);
  if (!result.ok()) return comm::Response::Error(result.status());
  comm::Response response;
  response.body = std::move(result).value();
  return response;
}

comm::Response Dispatcher::HandleShutdown(const comm::Request&) const {
  if (shutdown_callback_) shutdown_callback_();
  comm::Response response;
  response.message = "draining";
  return response;
}

}  // namespace deepdive::serve::handlers
