#include "serve/comm/messages.h"

#include <iterator>
#include <tuple>
#include <utility>

#include "serve/comm/wire.h"

namespace deepdive::serve::comm {
namespace {

// ---------------------------------------------------------------------------
// Schema: each message's fields in wire order, written down once. Put and Get
// below walk the same list, so the encoder and the decoder cannot disagree.
// The payload carries no version: a new field changes the format for both
// ends, and a decoder rejects the bytes it does not expect.

constexpr auto Fields(const DataPayload*) {
  return std::tuple(&DataPayload::relation, &DataPayload::tsv);
}
constexpr auto Fields(const TenantConfig*) {
  using C = TenantConfig;
  return std::tuple(&C::rerun_mode, &C::seed, &C::epochs, &C::threads,
                    &C::replicas, &C::sync_every, &C::async_materialize,
                    &C::save_materialization, &C::load_materialization,
                    &C::queue_capacity, &C::shed_watermark, &C::retry_after_ms);
}

constexpr auto Fields(const QueryRequest*) {
  return std::tuple(&QueryRequest::relation, &QueryRequest::tuple_tsv,
                    &QueryRequest::threshold);
}
constexpr auto Fields(const UpdateRequest*) {
  return std::tuple(&UpdateRequest::label, &UpdateRequest::rules,
                    &UpdateRequest::inserts);
}
constexpr auto Fields(const ExportRequest*) {
  return std::tuple(&ExportRequest::relations, &ExportRequest::threshold);
}
constexpr std::tuple<> Fields(const StatusRequest*) { return {}; }
constexpr auto Fields(const CreateTenantRequest*) {
  using C = CreateTenantRequest;
  return std::tuple(&C::name, &C::program, &C::config, &C::data);
}
constexpr std::tuple<> Fields(const ListTenantsRequest*) { return {}; }
constexpr auto Fields(const SaveGraphRequest*) {
  return std::tuple(&SaveGraphRequest::path);
}
constexpr std::tuple<> Fields(const ShutdownRequest*) { return {}; }
constexpr auto Fields(const AddRuleRequest*) {
  return std::tuple(&AddRuleRequest::rule);
}
constexpr auto Fields(const RetractRuleRequest*) {
  return std::tuple(&RetractRuleRequest::label);
}
constexpr auto Fields(const MineRequest*) {
  return std::tuple(&MineRequest::max_promotions, &MineRequest::min_support,
                    &MineRequest::min_confidence, &MineRequest::max_body_atoms);
}

constexpr std::tuple<> Fields(const EmptyResult*) { return {}; }
constexpr auto Fields(const QueryResult*) {
  return std::tuple(&QueryResult::epoch, &QueryResult::found,
                    &QueryResult::marginal, &QueryResult::entries);
}
constexpr auto Fields(const UpdateResult*) {
  using U = UpdateResult;
  return std::tuple(&U::epoch, &U::label, &U::strategy, &U::grounding_seconds,
                    &U::learning_seconds, &U::inference_seconds,
                    &U::affected_vars);
}
constexpr auto Fields(const ExportChunk*) {
  return std::tuple(&ExportChunk::relation, &ExportChunk::tsv);
}
constexpr auto Fields(const ExportResult*) {
  return std::tuple(&ExportResult::epoch, &ExportResult::chunks);
}
constexpr auto Fields(const TenantStatus*) {
  using T = TenantStatus;
  return std::tuple(&T::name, &T::ready, &T::failed, &T::epoch,
                    &T::num_variables, &T::updates_applied, &T::updates_shed,
                    &T::queue_depth, &T::queue_capacity, &T::shed_watermark,
                    &T::program_version, &T::rule_count, &T::rules_fingerprint);
}
constexpr auto Fields(const StatusResult*) {
  return std::tuple(&StatusResult::tenants);
}
constexpr auto Fields(const CreateTenantResult*) {
  using C = CreateTenantResult;
  return std::tuple(&C::epoch, &C::num_variables, &C::num_factors);
}
constexpr auto Fields(const ListTenantsResult*) {
  return std::tuple(&ListTenantsResult::names);
}
constexpr auto Fields(const SaveGraphResult*) {
  return std::tuple(&SaveGraphResult::checksum, &SaveGraphResult::image_bytes,
                    &SaveGraphResult::fingerprint);
}
constexpr auto Fields(const AddRuleResult*) {
  using A = AddRuleResult;
  return std::tuple(&A::epoch, &A::label, &A::strategy, &A::grounding_work,
                    &A::grounding_seconds, &A::learning_seconds,
                    &A::inference_seconds, &A::program_version, &A::rule_count,
                    &A::rules_fingerprint);
}
constexpr auto Fields(const RetractRuleResult*) {
  using R = RetractRuleResult;
  return std::tuple(&R::epoch, &R::strategy, &R::acceptance,
                    &R::program_version, &R::rule_count, &R::rules_fingerprint);
}
constexpr auto Fields(const MineResult*) {
  using M = MineResult;
  return std::tuple(&M::epoch, &M::candidates_considered,
                    &M::candidates_trialed, &M::promoted, &M::program_version,
                    &M::rule_count, &M::rules_fingerprint);
}

// ---------------------------------------------------------------------------
// Wire types: one Put/Get pair each. int64_t travels as its u64 bit pattern;
// a vector is a u32 count, then its elements; a message is its fields.

void Put(WireWriter* w, bool v) { w->PutBool(v); }
void Put(WireWriter* w, uint32_t v) { w->PutU32(v); }
void Put(WireWriter* w, uint64_t v) { w->PutU64(v); }
void Put(WireWriter* w, int64_t v) { w->PutU64(static_cast<uint64_t>(v)); }
void Put(WireWriter* w, double v) { w->PutDouble(v); }
void Put(WireWriter* w, const std::string& v) { w->PutString(v); }

void Get(WireReader* r, bool* v) { *v = r->GetBool(); }
void Get(WireReader* r, uint32_t* v) { *v = r->GetU32(); }
void Get(WireReader* r, uint64_t* v) { *v = r->GetU64(); }
void Get(WireReader* r, int64_t* v) { *v = static_cast<int64_t>(r->GetU64()); }
void Get(WireReader* r, double* v) { *v = r->GetDouble(); }
void Get(WireReader* r, std::string* v) { *v = r->GetString(); }

template <typename T> void Put(WireWriter* w, const T& message);
template <typename T> void Get(WireReader* r, T* message);

template <typename T>
void Put(WireWriter* w, const std::vector<T>& items) {
  w->PutU32(static_cast<uint32_t>(items.size()));
  for (const T& item : items) Put(w, item);
}

template <typename T>
void Get(WireReader* r, std::vector<T>* items) {
  // The count is untrusted: no reserve, and the sticky reader ends the loop
  // at the first failed read, so a lying count cannot run past the frame.
  const uint32_t n = r->GetU32();
  for (uint32_t i = 0; i < n && r->ok(); ++i) Get(r, &items->emplace_back());
}

template <typename T>
void Put(WireWriter* w, const T& message) {
  std::apply([&](auto... field) { (Put(w, message.*field), ...); },
             Fields(&message));
}

template <typename T>
void Get(WireReader* r, T* message) {
  std::apply([&](auto... field) { (Get(r, &(message->*field)), ...); },
             Fields(message));
}

// Decodes alternative `index` of a body variant; the caller range-checks it.
template <typename... Ts>
void GetBody(WireReader* r, size_t index, std::variant<Ts...>* body) {
  [&]<size_t... I>(std::index_sequence<I...>) {
    ((index == I ? Get(r, &body->template emplace<I>()) : void()), ...);
  }(std::index_sequence_for<Ts...>());
}

constexpr size_t kNumVerbs = std::variant_size_v<decltype(Request::body)>;
constexpr size_t kNumBodyTags = std::variant_size_v<decltype(Response::body)>;

constexpr const char* kVerbNames[] = {
    "query",         "apply_update", "export",     "status",
    "create_tenant", "list_tenants", "save_graph", "shutdown",
    "add_rule",      "retract_rule", "mine",
};
static_assert(std::size(kVerbNames) == kNumVerbs);

}  // namespace

const char* VerbName(Verb verb) {
  const size_t index = static_cast<size_t>(verb) - 1;  // Verb 0 wraps around
  return index < kNumVerbs ? kVerbNames[index] : "unknown";
}

Verb Request::verb() const {
  // The variant order IS the verb numbering (kQuery = 1 = index 0 + 1).
  return static_cast<Verb>(body.index() + 1);
}

std::string EncodeRequest(const Request& request) {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(request.verb()));
  w.PutString(request.tenant);
  std::visit([&w](const auto& body) { Put(&w, body); }, request.body);
  return w.Take();
}

StatusOr<Request> DecodeRequest(std::string_view payload) {
  WireReader r(payload);
  const uint8_t verb = r.GetU8();
  Request request;
  request.tenant = r.GetString();
  if (verb == 0 || verb > kNumVerbs) {
    return Status::InvalidArgument("unknown request verb " +
                                   std::to_string(verb));
  }
  GetBody(&r, verb - 1, &request.body);
  DD_RETURN_IF_ERROR(r.ExpectDone());
  return request;
}

std::string EncodeResponse(const Response& response) {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(response.code));
  w.PutString(response.message);
  w.PutU32(response.retry_after_ms);
  w.PutU8(static_cast<uint8_t>(response.body.index()));
  std::visit([&w](const auto& body) { Put(&w, body); }, response.body);
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
  if (tag >= kNumBodyTags) {
    return Status::InvalidArgument("unknown response body tag " +
                                   std::to_string(tag));
  }
  GetBody(&r, tag, &response.body);
  DD_RETURN_IF_ERROR(r.ExpectDone());
  return response;
}

}  // namespace deepdive::serve::comm
