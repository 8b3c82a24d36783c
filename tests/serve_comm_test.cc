// The communication tier: wire codec round-trips for every verb and result,
// the golden bytes of every request and response alternative, hostile-input
// rejection (unknown verbs/tags, truncation, trailing bytes, oversized length
// prefixes), and frame I/O over a real socketpair.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <string>
#include <vector>

#include "serve/comm/frame.h"
#include "serve/comm/messages.h"
#include "serve/comm/wire.h"
#include "util/socket.h"

namespace deepdive::serve::comm {
namespace {

// ---------------------------------------------------------------------------
// WireWriter / WireReader primitives.

TEST(WireTest, RoundTripsPrimitives) {
  WireWriter w;
  w.PutU8(7);
  w.PutBool(true);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutDouble(0.725);
  w.PutString("hello\tworld\n");
  WireReader r(w.str());
  EXPECT_EQ(r.GetU8(), 7);
  EXPECT_TRUE(r.GetBool());
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.GetDouble(), 0.725);
  EXPECT_EQ(r.GetString(), "hello\tworld\n");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.ExpectDone().ok());
}

TEST(WireTest, TruncationIsStickyNotUB) {
  WireWriter w;
  w.PutU32(123);
  std::string bytes = w.Take();
  bytes.pop_back();  // truncate mid-integer
  WireReader r(bytes);
  EXPECT_EQ(r.GetU32(), 0u);  // failed reads return defaults
  EXPECT_FALSE(r.ok());
  // The error is sticky: further reads stay failed instead of resyncing.
  EXPECT_EQ(r.GetU64(), 0u);
  EXPECT_FALSE(r.ExpectDone().ok());
}

TEST(WireTest, StringLengthBeyondPayloadFails) {
  WireWriter w;
  w.PutU32(1000);  // claims a 1000-byte string...
  std::string bytes = w.Take();
  bytes += "short";  // ...but only 5 bytes follow
  WireReader r(bytes);
  EXPECT_EQ(r.GetString(), "");
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// Request / response codec.

TEST(MessagesTest, RequestRoundTripsEveryVerb) {
  std::vector<Request> requests;
  {
    Request r;
    r.tenant = "kb";
    QueryRequest q;
    q.relation = "HasSpouse";
    q.tuple_tsv = "10\t11";
    q.threshold = 0.5;
    r.body = q;
    requests.push_back(std::move(r));
  }
  {
    Request r;
    r.tenant = "kb";
    UpdateRequest u;
    u.label = "update#1";
    u.rules = "factor F: ...";
    u.inserts.push_back({"Phrase", "1\t2\tand his wife\n"});
    r.body = std::move(u);
    requests.push_back(std::move(r));
  }
  {
    Request r;
    r.tenant = "kb";
    ExportRequest e;
    e.relations = {"HasSpouse", "Trusted"};
    e.threshold = 0.9;
    r.body = std::move(e);
    requests.push_back(std::move(r));
  }
  {
    Request r;
    r.body = StatusRequest{};
    requests.push_back(std::move(r));
  }
  {
    Request r;
    r.tenant = "vote";
    CreateTenantRequest c;
    c.name = "vote";
    c.program = "relation Endorses(src: int, dst: int).";
    c.config.rerun_mode = true;
    c.config.seed = 7;
    c.config.epochs = 10;
    c.config.threads = 2;
    c.config.replicas = 2;
    c.config.sync_every = 25;
    c.config.async_materialize = true;
    c.config.save_materialization = "/tmp/store.bin";
    c.config.load_materialization = "/tmp/store2.bin";
    c.config.queue_capacity = 32;
    c.config.shed_watermark = 16;
    c.config.retry_after_ms = 250;
    c.data.push_back({"Endorses", "1\t100\n"});
    r.body = std::move(c);
    requests.push_back(std::move(r));
  }
  {
    Request r;
    r.body = ListTenantsRequest{};
    requests.push_back(std::move(r));
  }
  {
    Request r;
    r.tenant = "kb";
    r.body = SaveGraphRequest{"/tmp/graph.bin"};
    requests.push_back(std::move(r));
  }
  {
    Request r;
    r.body = ShutdownRequest{};
    requests.push_back(std::move(r));
  }

  ASSERT_EQ(requests.size(), 8u);  // one per verb
  for (const Request& request : requests) {
    auto decoded = DecodeRequest(EncodeRequest(request));
    ASSERT_TRUE(decoded.ok()) << VerbName(request.verb()) << ": "
                              << decoded.status().ToString();
    EXPECT_EQ(decoded->verb(), request.verb());
    EXPECT_EQ(decoded->tenant, request.tenant);
  }

  // Spot-check deep fields survive the trip.
  auto create = DecodeRequest(EncodeRequest(requests[4]));
  ASSERT_TRUE(create.ok());
  const auto& config = std::get<CreateTenantRequest>(create->body).config;
  EXPECT_TRUE(config.rerun_mode);
  EXPECT_EQ(config.seed, 7u);
  EXPECT_EQ(config.replicas, 2u);
  EXPECT_EQ(config.save_materialization, "/tmp/store.bin");
  EXPECT_EQ(config.shed_watermark, 16u);
  EXPECT_EQ(config.retry_after_ms, 250u);
  auto update = DecodeRequest(EncodeRequest(requests[1]));
  ASSERT_TRUE(update.ok());
  const auto& inserts = std::get<UpdateRequest>(update->body).inserts;
  ASSERT_EQ(inserts.size(), 1u);
  EXPECT_EQ(inserts[0].relation, "Phrase");
  EXPECT_EQ(inserts[0].tsv, "1\t2\tand his wife\n");
}

TEST(MessagesTest, ResponseRoundTripsResults) {
  {
    Response response;
    QueryResult q;
    q.epoch = 3;
    q.found = true;
    q.marginal = 0.93;
    q.entries = 12;
    response.body = q;
    auto decoded = DecodeResponse(EncodeResponse(response));
    ASSERT_TRUE(decoded.ok());
    const auto& result = std::get<QueryResult>(decoded->body);
    EXPECT_EQ(result.epoch, 3u);
    EXPECT_TRUE(result.found);
    EXPECT_DOUBLE_EQ(result.marginal, 0.93);
    EXPECT_EQ(result.entries, 12u);
  }
  {
    Response response;
    ExportResult e;
    e.epoch = 5;
    e.chunks.push_back({"HasSpouse", "1.000000\t10\t11\n"});
    e.chunks.push_back({"Trusted", ""});
    response.body = std::move(e);
    auto decoded = DecodeResponse(EncodeResponse(response));
    ASSERT_TRUE(decoded.ok());
    const auto& result = std::get<ExportResult>(decoded->body);
    ASSERT_EQ(result.chunks.size(), 2u);
    EXPECT_EQ(result.chunks[0].tsv, "1.000000\t10\t11\n");
    EXPECT_EQ(result.chunks[1].relation, "Trusted");
  }
  {
    Response response;
    StatusResult s;
    TenantStatus t;
    t.name = "kb";
    t.ready = true;
    t.epoch = 9;
    t.updates_applied = 4;
    t.updates_shed = 2;
    t.queue_depth = 1;
    t.queue_capacity = 64;
    t.shed_watermark = 48;
    s.tenants.push_back(std::move(t));
    response.body = std::move(s);
    auto decoded = DecodeResponse(EncodeResponse(response));
    ASSERT_TRUE(decoded.ok());
    const auto& result = std::get<StatusResult>(decoded->body);
    ASSERT_EQ(result.tenants.size(), 1u);
    EXPECT_EQ(result.tenants[0].updates_shed, 2u);
    EXPECT_EQ(result.tenants[0].shed_watermark, 48u);
  }
  {
    Response response;
    response.body = SaveGraphResult{0xAAu, 1536u, 0xBBu};
    auto decoded = DecodeResponse(EncodeResponse(response));
    ASSERT_TRUE(decoded.ok());
    const auto& result = std::get<SaveGraphResult>(decoded->body);
    EXPECT_EQ(result.checksum, 0xAAu);
    EXPECT_EQ(result.image_bytes, 1536u);
    EXPECT_EQ(result.fingerprint, 0xBBu);
  }
}

TEST(MessagesTest, ShedResponseCarriesRetryAfter) {
  Response shed = Response::Error(
      Status::Unavailable("update queue is at its admission watermark"));
  shed.retry_after_ms = 150;
  auto decoded = DecodeResponse(EncodeResponse(shed));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kUnavailable);
  EXPECT_EQ(decoded->retry_after_ms, 150u);
  EXPECT_FALSE(decoded->ok());
  EXPECT_EQ(decoded->ToStatus().code(), StatusCode::kUnavailable);
}

TEST(MessagesTest, RejectsUnknownVerbAndTrailingBytes) {
  WireWriter w;
  w.PutU8(99);  // no such verb
  w.PutString("kb");
  EXPECT_FALSE(DecodeRequest(w.str()).ok());

  Request request;
  request.body = StatusRequest{};
  std::string bytes = EncodeRequest(request);
  bytes += "garbage";
  EXPECT_FALSE(DecodeRequest(bytes).ok());
}

TEST(MessagesTest, RejectsUnknownResponseTagAndCode) {
  {
    WireWriter w;
    w.PutU8(0);   // kOk
    w.PutString("");
    w.PutU32(0);
    w.PutU8(200);  // no such body tag
    EXPECT_FALSE(DecodeResponse(w.str()).ok());
  }
  {
    WireWriter w;
    w.PutU8(250);  // no such status code
    EXPECT_FALSE(DecodeResponse(w.str()).ok());
  }
}

// ---------------------------------------------------------------------------
// Golden frames: the exact bytes of one instance of every request and response
// alternative, with distinct non-default values in every field. Client and
// daemon must agree on each byte, so any layout change (even one made the same
// way in encoder and decoder) shows up here.

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

std::vector<Request> GoldenRequests() {
  std::vector<Request> requests(11);
  for (Request& r : requests) r.tenant = "kb";
  requests[0].body = QueryRequest{"Rel", "1\t2", 0.5};
  requests[1].body =
      UpdateRequest{"u1", "factor F", {{"Rel", "1\n"}, {"Two", "2\n"}}};
  requests[2].body = ExportRequest{{"A", "Bc"}, 0.25};
  requests[3].body = StatusRequest{};
  CreateTenantRequest create;
  create.name = "vt";
  create.program = "relation R(a: int).";
  create.config = TenantConfig{true, 7,  10,  2,    3,   25,
                               true, "s", "l", 32, 16, 250};
  create.data = {{"R", "1\n"}};
  requests[4].body = std::move(create);
  requests[5].body = ListTenantsRequest{};
  requests[6].body = SaveGraphRequest{"/g"};
  requests[7].body = ShutdownRequest{};
  requests[8].body = AddRuleRequest{"factor F: H(a) :- R(a)."};
  requests[9].body = RetractRuleRequest{"F"};
  requests[10].body = MineRequest{3, -2, 0.75, 2};
  return requests;
}

std::vector<Response> GoldenResponses() {
  std::vector<Response> responses(11);
  responses[0] = Response::Error(Status::Unavailable("shed"));
  responses[0].retry_after_ms = 150;
  responses[1].body = QueryResult{3, true, 0.875, 12};
  responses[2].body = UpdateResult{4, "u1", "sampling", 0.5, 0.25, 0.125, 7};
  responses[3].body = ExportResult{5, {{"A", "1\n"}, {"B", ""}}};
  responses[4].body = StatusResult{
      {{"kb", true, false, 9, 10, 4, 2, 1, 64, 48, 3, 5, 0xABCDull},
       {"vt", false, true, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}};
  responses[5].body = CreateTenantResult{6, 7, 8};
  responses[6].body = ListTenantsResult{{"a", "bc"}};
  responses[7].body = SaveGraphResult{0xAA, 1536, 0xBB};
  responses[8].body = AddRuleResult{
      11, "F", "variational", 2, 0.5, 0.25, 0.125, 4, 3, 0xF00Dull};
  responses[9].body = RetractRuleResult{12, "sampling", 1.0, 5, 2, 0xBEEFull};
  responses[10].body =
      MineResult{13, 20, 6, {"M1", "M2"}, 7, 4, 0xCAFEull};
  return responses;
}

// Each frame's bytes, captured from the encoder and frozen. Fields appear in
// struct order: u32/u64 big-endian, doubles as their IEEE-754 bit pattern,
// strings and vectors prefixed by a u32 length.
constexpr const char* kGoldenRequestHex[] = {
    "01000000026b620000000352656c000000033109323fe0000000000000",
    "02000000026b6200000002753100000008666163746f72204600000002000000"
    "0352656c00000002310a0000000354776f00000002320a",
    "03000000026b620000000200000001410000000242633fd0000000000000",
    "04000000026b62",
    "05000000026b620000000276740000001372656c6174696f6e205228613a2069"
    "6e74292e0100000000000000070000000a000000020000000300000019010000"
    "000173000000016c0000002000000010000000fa000000010000000152000000"
    "02310a",
    "06000000026b62",
    "07000000026b62000000022f67",
    "08000000026b62",
    "09000000026b6200000017666163746f7220463a2048286129203a2d20522861"
    "292e",
    "0a000000026b620000000146",
    "0b000000026b620000000000000003fffffffffffffffe3fe800000000000000"
    "000002",
};

constexpr const char* kGoldenResponseHex[] = {
    "0800000004736865640000009600",
    "000000000000000000010000000000000003013fec0000000000000000000000"
    "00000c",
    "0000000000000000000200000000000000040000000275310000000873616d70"
    "6c696e673fe00000000000003fd00000000000003fc000000000000000000000"
    "00000007",
    "0000000000000000000300000000000000050000000200000001410000000231"
    "0a000000014200000000",
    "0000000000000000000400000002000000026b62010000000000000000090000"
    "00000000000a0000000000000004000000000000000200000001000000400000"
    "003000000000000000030000000000000005000000000000abcd000000027674"
    "0001000000000000000100000000000000020000000000000003000000000000"
    "0004000000050000000600000007000000000000000800000000000000090000"
    "00000000000a",
    "0000000000000000000500000000000000060000000000000007000000000000"
    "0008",
    "00000000000000000006000000020000000161000000026263",
    "0000000000000000000700000000000000aa0000000000000600000000000000"
    "00bb",
    "00000000000000000008000000000000000b00000001460000000b7661726961"
    "74696f6e616c00000000000000023fe00000000000003fd00000000000003fc0"
    "00000000000000000000000000040000000000000003000000000000f00d",
    "00000000000000000009000000000000000c0000000873616d706c696e673ff0"
    "00000000000000000000000000050000000000000002000000000000beef",
    "0000000000000000000a000000000000000d0000000000000014000000000000"
    "000600000002000000024d31000000024d320000000000000007000000000000"
    "0004000000000000cafe",
};

// A frame cut short anywhere, or followed by one stray byte, is an error.
template <typename Decode>
void ExpectOnlyWholeFrameDecodes(const std::string& frame, Decode decode) {
  for (size_t n = 0; n < frame.size(); ++n) {
    const auto decoded = decode(std::string_view(frame).substr(0, n));
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << "prefix of " << n << " bytes";
  }
  EXPECT_EQ(decode(frame + '\0').status().code(), StatusCode::kInvalidArgument);
}

TEST(MessagesTest, GoldenRequestFrames) {
  const std::vector<Request> requests = GoldenRequests();
  ASSERT_EQ(requests.size(), std::size(kGoldenRequestHex));
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(VerbName(requests[i].verb()));
    EXPECT_EQ(requests[i].body.index(), i);
    const std::string frame = EncodeRequest(requests[i]);
    EXPECT_EQ(Hex(frame), kGoldenRequestHex[i]);
    ExpectOnlyWholeFrameDecodes(frame, DecodeRequest);
    auto decoded = DecodeRequest(frame);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(EncodeRequest(*decoded), frame);
  }
}

TEST(MessagesTest, GoldenResponseFrames) {
  const std::vector<Response> responses = GoldenResponses();
  ASSERT_EQ(responses.size(), std::size(kGoldenResponseHex));
  for (size_t i = 0; i < responses.size(); ++i) {
    SCOPED_TRACE("body tag " + std::to_string(i));
    EXPECT_EQ(responses[i].body.index(), i);
    const std::string frame = EncodeResponse(responses[i]);
    EXPECT_EQ(Hex(frame), kGoldenResponseHex[i]);
    ExpectOnlyWholeFrameDecodes(frame, DecodeResponse);
    auto decoded = DecodeResponse(frame);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(EncodeResponse(*decoded), frame);
  }
}

// ---------------------------------------------------------------------------
// Frame layer over a real socketpair.

class FramePairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    left_ = Socket(fds[0]);
    right_ = Socket(fds[1]);
  }

  Socket left_;
  Socket right_;
};

TEST_F(FramePairTest, RoundTripsFrames) {
  ASSERT_TRUE(WriteFrame(left_, "hello").ok());
  ASSERT_TRUE(WriteFrame(left_, "").ok());  // empty payload is legal
  std::string payload;
  ASSERT_TRUE(ReadFrame(right_, &payload).ok());
  EXPECT_EQ(payload, "hello");
  ASSERT_TRUE(ReadFrame(right_, &payload).ok());
  EXPECT_EQ(payload, "");
}

TEST_F(FramePairTest, CleanHangupIsNotFound) {
  left_.Close();
  std::string payload;
  const Status status = ReadFrame(right_, &payload);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(FramePairTest, MidFrameTruncationIsInternal) {
  // A length prefix promising 100 bytes, then hang up after 3.
  const unsigned char prefix[4] = {0, 0, 0, 100};
  ASSERT_TRUE(left_.SendAll(prefix, 4).ok());
  ASSERT_TRUE(left_.SendAll("abc", 3).ok());
  left_.Close();
  std::string payload;
  const Status status = ReadFrame(right_, &payload);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST_F(FramePairTest, OversizedLengthPrefixIsRejectedNotAllocated) {
  // 1 GiB announced: must fail fast as a protocol error, not try to recv.
  const unsigned char prefix[4] = {0x40, 0, 0, 0};
  ASSERT_TRUE(left_.SendAll(prefix, 4).ok());
  std::string payload;
  const Status status = ReadFrame(right_, &payload);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace deepdive::serve::comm
