#include "serve/comm/messages.h"

#include "serve/comm/wire.h"

namespace deepdive::serve::comm {
namespace {

void PutDataPayloads(WireWriter* w, const std::vector<DataPayload>& data) {
  w->PutU32(static_cast<uint32_t>(data.size()));
  for (const DataPayload& d : data) {
    w->PutString(d.relation);
    w->PutString(d.tsv);
  }
}

std::vector<DataPayload> GetDataPayloads(WireReader* r) {
  const uint32_t n = r->GetU32();
  std::vector<DataPayload> data;
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    DataPayload d;
    d.relation = r->GetString();
    d.tsv = r->GetString();
    data.push_back(std::move(d));
  }
  return data;
}

void PutStrings(WireWriter* w, const std::vector<std::string>& strings) {
  w->PutU32(static_cast<uint32_t>(strings.size()));
  for (const std::string& s : strings) w->PutString(s);
}

std::vector<std::string> GetStrings(WireReader* r) {
  const uint32_t n = r->GetU32();
  std::vector<std::string> strings;
  for (uint32_t i = 0; i < n && r->ok(); ++i) strings.push_back(r->GetString());
  return strings;
}

void PutTenantConfig(WireWriter* w, const TenantConfig& c) {
  w->PutBool(c.rerun_mode);
  w->PutU64(c.seed);
  w->PutU32(c.epochs);
  w->PutU32(c.threads);
  w->PutU32(c.replicas);
  w->PutU32(c.sync_every);
  w->PutBool(c.async_materialize);
  w->PutString(c.save_materialization);
  w->PutString(c.load_materialization);
  w->PutU32(c.queue_capacity);
  w->PutU32(c.shed_watermark);
  w->PutU32(c.retry_after_ms);
}

TenantConfig GetTenantConfig(WireReader* r) {
  TenantConfig c;
  c.rerun_mode = r->GetBool();
  c.seed = r->GetU64();
  c.epochs = r->GetU32();
  c.threads = r->GetU32();
  c.replicas = r->GetU32();
  c.sync_every = r->GetU32();
  c.async_materialize = r->GetBool();
  c.save_materialization = r->GetString();
  c.load_materialization = r->GetString();
  c.queue_capacity = r->GetU32();
  c.shed_watermark = r->GetU32();
  c.retry_after_ms = r->GetU32();
  return c;
}

}  // namespace

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kQuery:
      return "query";
    case Verb::kApplyUpdate:
      return "apply_update";
    case Verb::kExport:
      return "export";
    case Verb::kStatus:
      return "status";
    case Verb::kCreateTenant:
      return "create_tenant";
    case Verb::kListTenants:
      return "list_tenants";
    case Verb::kSaveGraph:
      return "save_graph";
    case Verb::kShutdown:
      return "shutdown";
    case Verb::kAddRule:
      return "add_rule";
    case Verb::kRetractRule:
      return "retract_rule";
    case Verb::kMine:
      return "mine";
  }
  return "unknown";
}

Verb Request::verb() const {
  // The variant order IS the verb numbering (kQuery = 1 = index 0 + 1).
  return static_cast<Verb>(body.index() + 1);
}

std::string EncodeRequest(const Request& request) {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(request.verb()));
  w.PutString(request.tenant);
  std::visit(
      [&w](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, QueryRequest>) {
          w.PutString(body.relation);
          w.PutString(body.tuple_tsv);
          w.PutDouble(body.threshold);
        } else if constexpr (std::is_same_v<T, UpdateRequest>) {
          w.PutString(body.label);
          w.PutString(body.rules);
          PutDataPayloads(&w, body.inserts);
        } else if constexpr (std::is_same_v<T, ExportRequest>) {
          PutStrings(&w, body.relations);
          w.PutDouble(body.threshold);
        } else if constexpr (std::is_same_v<T, CreateTenantRequest>) {
          w.PutString(body.name);
          w.PutString(body.program);
          PutTenantConfig(&w, body.config);
          PutDataPayloads(&w, body.data);
        } else if constexpr (std::is_same_v<T, SaveGraphRequest>) {
          w.PutString(body.path);
        } else if constexpr (std::is_same_v<T, AddRuleRequest>) {
          w.PutString(body.rule);
        } else if constexpr (std::is_same_v<T, RetractRuleRequest>) {
          w.PutString(body.label);
        } else if constexpr (std::is_same_v<T, MineRequest>) {
          w.PutU64(body.max_promotions);
          w.PutU64(static_cast<uint64_t>(body.min_support));
          w.PutDouble(body.min_confidence);
          w.PutU32(body.max_body_atoms);
        }
        // StatusRequest / ListTenantsRequest / ShutdownRequest: no body.
      },
      request.body);
  return w.Take();
}

StatusOr<Request> DecodeRequest(std::string_view payload) {
  WireReader r(payload);
  const uint8_t verb = r.GetU8();
  Request request;
  request.tenant = r.GetString();
  switch (static_cast<Verb>(verb)) {
    case Verb::kQuery: {
      QueryRequest body;
      body.relation = r.GetString();
      body.tuple_tsv = r.GetString();
      body.threshold = r.GetDouble();
      request.body = std::move(body);
      break;
    }
    case Verb::kApplyUpdate: {
      UpdateRequest body;
      body.label = r.GetString();
      body.rules = r.GetString();
      body.inserts = GetDataPayloads(&r);
      request.body = std::move(body);
      break;
    }
    case Verb::kExport: {
      ExportRequest body;
      body.relations = GetStrings(&r);
      body.threshold = r.GetDouble();
      request.body = std::move(body);
      break;
    }
    case Verb::kStatus:
      request.body = StatusRequest{};
      break;
    case Verb::kCreateTenant: {
      CreateTenantRequest body;
      body.name = r.GetString();
      body.program = r.GetString();
      body.config = GetTenantConfig(&r);
      body.data = GetDataPayloads(&r);
      request.body = std::move(body);
      break;
    }
    case Verb::kListTenants:
      request.body = ListTenantsRequest{};
      break;
    case Verb::kSaveGraph: {
      SaveGraphRequest body;
      body.path = r.GetString();
      request.body = std::move(body);
      break;
    }
    case Verb::kShutdown:
      request.body = ShutdownRequest{};
      break;
    case Verb::kAddRule: {
      AddRuleRequest body;
      body.rule = r.GetString();
      request.body = std::move(body);
      break;
    }
    case Verb::kRetractRule: {
      RetractRuleRequest body;
      body.label = r.GetString();
      request.body = std::move(body);
      break;
    }
    case Verb::kMine: {
      MineRequest body;
      body.max_promotions = r.GetU64();
      body.min_support = static_cast<int64_t>(r.GetU64());
      body.min_confidence = r.GetDouble();
      body.max_body_atoms = r.GetU32();
      request.body = std::move(body);
      break;
    }
    default:
      return Status::InvalidArgument("unknown request verb " +
                                     std::to_string(verb));
  }
  DD_RETURN_IF_ERROR(r.ExpectDone());
  return request;
}

std::string EncodeResponse(const Response& response) {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(response.code));
  w.PutString(response.message);
  w.PutU32(response.retry_after_ms);
  w.PutU8(static_cast<uint8_t>(response.body.index()));
  std::visit(
      [&w](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, QueryResult>) {
          w.PutU64(body.epoch);
          w.PutBool(body.found);
          w.PutDouble(body.marginal);
          w.PutU64(body.entries);
        } else if constexpr (std::is_same_v<T, UpdateResult>) {
          w.PutU64(body.epoch);
          w.PutString(body.label);
          w.PutString(body.strategy);
          w.PutDouble(body.grounding_seconds);
          w.PutDouble(body.learning_seconds);
          w.PutDouble(body.inference_seconds);
          w.PutU64(body.affected_vars);
        } else if constexpr (std::is_same_v<T, ExportResult>) {
          w.PutU64(body.epoch);
          w.PutU32(static_cast<uint32_t>(body.chunks.size()));
          for (const ExportChunk& chunk : body.chunks) {
            w.PutString(chunk.relation);
            w.PutString(chunk.tsv);
          }
        } else if constexpr (std::is_same_v<T, StatusResult>) {
          w.PutU32(static_cast<uint32_t>(body.tenants.size()));
          for (const TenantStatus& t : body.tenants) {
            w.PutString(t.name);
            w.PutBool(t.ready);
            w.PutBool(t.failed);
            w.PutU64(t.epoch);
            w.PutU64(t.num_variables);
            w.PutU64(t.updates_applied);
            w.PutU64(t.updates_shed);
            w.PutU32(t.queue_depth);
            w.PutU32(t.queue_capacity);
            w.PutU32(t.shed_watermark);
            w.PutU64(t.program_version);
            w.PutU64(t.rule_count);
            w.PutU64(t.rules_fingerprint);
          }
        } else if constexpr (std::is_same_v<T, CreateTenantResult>) {
          w.PutU64(body.epoch);
          w.PutU64(body.num_variables);
          w.PutU64(body.num_factors);
        } else if constexpr (std::is_same_v<T, ListTenantsResult>) {
          w.PutU32(static_cast<uint32_t>(body.names.size()));
          for (const std::string& name : body.names) w.PutString(name);
        } else if constexpr (std::is_same_v<T, SaveGraphResult>) {
          w.PutU64(body.checksum);
          w.PutU64(body.image_bytes);
          w.PutU64(body.fingerprint);
        } else if constexpr (std::is_same_v<T, AddRuleResult>) {
          w.PutU64(body.epoch);
          w.PutString(body.label);
          w.PutString(body.strategy);
          w.PutU64(body.grounding_work);
          w.PutDouble(body.grounding_seconds);
          w.PutDouble(body.learning_seconds);
          w.PutDouble(body.inference_seconds);
          w.PutU64(body.program_version);
          w.PutU64(body.rule_count);
          w.PutU64(body.rules_fingerprint);
        } else if constexpr (std::is_same_v<T, RetractRuleResult>) {
          w.PutU64(body.epoch);
          w.PutString(body.strategy);
          w.PutDouble(body.acceptance);
          w.PutU64(body.program_version);
          w.PutU64(body.rule_count);
          w.PutU64(body.rules_fingerprint);
        } else if constexpr (std::is_same_v<T, MineResult>) {
          w.PutU64(body.epoch);
          w.PutU64(body.candidates_considered);
          w.PutU64(body.candidates_trialed);
          PutStrings(&w, body.promoted);
          w.PutU64(body.program_version);
          w.PutU64(body.rule_count);
          w.PutU64(body.rules_fingerprint);
        }
        // EmptyResult: nothing.
      },
      response.body);
  return w.Take();
}

StatusOr<Response> DecodeResponse(std::string_view payload) {
  WireReader r(payload);
  Response response;
  const uint8_t code = r.GetU8();
  if (code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::InvalidArgument("unknown response status code " +
                                   std::to_string(code));
  }
  response.code = static_cast<StatusCode>(code);
  response.message = r.GetString();
  response.retry_after_ms = r.GetU32();
  const uint8_t tag = r.GetU8();
  switch (tag) {
    case 0:
      response.body = EmptyResult{};
      break;
    case 1: {
      QueryResult body;
      body.epoch = r.GetU64();
      body.found = r.GetBool();
      body.marginal = r.GetDouble();
      body.entries = r.GetU64();
      response.body = body;
      break;
    }
    case 2: {
      UpdateResult body;
      body.epoch = r.GetU64();
      body.label = r.GetString();
      body.strategy = r.GetString();
      body.grounding_seconds = r.GetDouble();
      body.learning_seconds = r.GetDouble();
      body.inference_seconds = r.GetDouble();
      body.affected_vars = r.GetU64();
      response.body = std::move(body);
      break;
    }
    case 3: {
      ExportResult body;
      body.epoch = r.GetU64();
      const uint32_t n = r.GetU32();
      for (uint32_t i = 0; i < n && r.ok(); ++i) {
        ExportChunk chunk;
        chunk.relation = r.GetString();
        chunk.tsv = r.GetString();
        body.chunks.push_back(std::move(chunk));
      }
      response.body = std::move(body);
      break;
    }
    case 4: {
      StatusResult body;
      const uint32_t n = r.GetU32();
      for (uint32_t i = 0; i < n && r.ok(); ++i) {
        TenantStatus t;
        t.name = r.GetString();
        t.ready = r.GetBool();
        t.failed = r.GetBool();
        t.epoch = r.GetU64();
        t.num_variables = r.GetU64();
        t.updates_applied = r.GetU64();
        t.updates_shed = r.GetU64();
        t.queue_depth = r.GetU32();
        t.queue_capacity = r.GetU32();
        t.shed_watermark = r.GetU32();
        t.program_version = r.GetU64();
        t.rule_count = r.GetU64();
        t.rules_fingerprint = r.GetU64();
        body.tenants.push_back(std::move(t));
      }
      response.body = std::move(body);
      break;
    }
    case 5: {
      CreateTenantResult body;
      body.epoch = r.GetU64();
      body.num_variables = r.GetU64();
      body.num_factors = r.GetU64();
      response.body = body;
      break;
    }
    case 6: {
      ListTenantsResult body;
      body.names = GetStrings(&r);
      response.body = std::move(body);
      break;
    }
    case 7: {
      SaveGraphResult body;
      body.checksum = r.GetU64();
      body.image_bytes = r.GetU64();
      body.fingerprint = r.GetU64();
      response.body = body;
      break;
    }
    case 8: {
      AddRuleResult body;
      body.epoch = r.GetU64();
      body.label = r.GetString();
      body.strategy = r.GetString();
      body.grounding_work = r.GetU64();
      body.grounding_seconds = r.GetDouble();
      body.learning_seconds = r.GetDouble();
      body.inference_seconds = r.GetDouble();
      body.program_version = r.GetU64();
      body.rule_count = r.GetU64();
      body.rules_fingerprint = r.GetU64();
      response.body = std::move(body);
      break;
    }
    case 9: {
      RetractRuleResult body;
      body.epoch = r.GetU64();
      body.strategy = r.GetString();
      body.acceptance = r.GetDouble();
      body.program_version = r.GetU64();
      body.rule_count = r.GetU64();
      body.rules_fingerprint = r.GetU64();
      response.body = std::move(body);
      break;
    }
    case 10: {
      MineResult body;
      body.epoch = r.GetU64();
      body.candidates_considered = r.GetU64();
      body.candidates_trialed = r.GetU64();
      body.promoted = GetStrings(&r);
      body.program_version = r.GetU64();
      body.rule_count = r.GetU64();
      body.rules_fingerprint = r.GetU64();
      response.body = std::move(body);
      break;
    }
    default:
      return Status::InvalidArgument("unknown response body tag " +
                                     std::to_string(tag));
  }
  DD_RETURN_IF_ERROR(r.ExpectDone());
  return response;
}

}  // namespace deepdive::serve::comm
