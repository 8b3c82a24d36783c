// serve_bench — load generator for a running deepdive_serve daemon.
//
//   serve_bench --address HOST:PORT --workload ingest|devloop --seed N
//               --seconds S --trace 0|1
//
// Speaks only the daemon's wire protocol (serve/comm), from its own process.
// The traffic is the repository's model of the paper's workload: one tenant
// per KBC system of the paper's Figure 7, each with the corpus, candidates,
// features and distant-supervision KB that kbc::KbcPipeline builds for it
// (kbc::ProfileFor, GenerateCorpus, GenerateCandidates, ExtractFeatures,
// BuildKnowledgeBase), drawn from the seed and sent as TSV.
//
//   set-up   per tenant: create_tenant with the pipeline's base program
//            (candidate mapping, prior, entity-level layer) over the
//            profile's documents, then the paper's development loop
//            A1 FE1 FE2 I1 S1 S2 (Figure 8) as apply_update, worded as
//            KbcPipeline::ApplyUpdate words it (new relations with their
//            feature rows, the symmetry rule, both supervision rules), then
//            the workload's warm-up writes. setup_s is the median of the
//            tenants' set-up times.
//   ingest   further documents of each tenant's corpus arrive as data
//            updates (Sentence, PersonCandidate, EL, PhraseFeature and
//            DeepFeature rows). An update counts as visible once a query
//            answers its first new candidate pair.
//   devloop  program edits: the engineer tries a variant of one of the
//            loop's factor rules (the semantics comparison of Figure 10(b),
//            the symmetry rule at another weight) with add_rule, waits until
//            a query sees its epoch, inspects a few tuples and retracts it
//            with retract_rule.
//
// Schedule: every tenant has its own writer thread and connection, so
// tenants write concurrently. Tenant t's k-th write is due at
// start + (k * kTenants + t) * interval. A writer waits for each reply, so
// per tenant the loop is closed: a slow write delays that tenant's next one
// instead of queueing it in the daemon. Latencies run from the due time, so
// the delay is charged, and late_writes counts the writes sent more than
// kLate after they were due. kReaders reader connections look up single
// tuples of random tenants on an open-loop schedule the whole time, so query
// latency is measured while the writers work. The writes a run makes depend
// only on --seed and --seconds, never on speed.
//
// Every answer is checked: writes succeed with increasing epochs; queried
// tuples exist with marginals in [0, 1], exactly 0 or 1 when supervised; no
// reader sees a tenant's epoch go back; every retraction restores the
// program fingerprint and the probe marginals bit for bit; at the end each
// tenant's counters and variable count match what was sent, and its
// marginals separate pairs whose sentence expresses the relation from the
// rest. The last stdout line is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "kbc/candidates.h"
#include "kbc/corpus.h"
#include "kbc/features.h"
#include "kbc/supervision.h"
#include "serve/comm/client.h"
#include "serve/comm/messages.h"
#include "storage/text_io.h"
#include "util/random.h"

namespace {

namespace comm = deepdive::serve::comm;
namespace kbc = deepdive::kbc;
using Clock = std::chrono::steady_clock;
using deepdive::Status;
using deepdive::StatusOr;
using deepdive::Tuple;

// ---- workload shape --------------------------------------------------------

/// One tenant per KBC system of the paper (Figure 7), at the scale
/// kbc::ProfileFor calibrates.
constexpr kbc::SystemKind kSystems[] = {
    kbc::SystemKind::kAdversarial, kbc::SystemKind::kNews,
    kbc::SystemKind::kGenomics, kbc::SystemKind::kPharma,
    kbc::SystemKind::kPaleontology};
constexpr size_t kTenants = std::size(kSystems);

/// The paper gives no arrival rates, so these are synthetic: one write is
/// due every interval across all tenants. On a 4-vCPU Xeon virtual machine
/// a write takes about 90 ms, so each tenant's writer thread in the daemon
/// is busy about a fifth of the time and the schedule holds on slower hosts
/// too.
constexpr auto kIngestInterval = std::chrono::milliseconds(100);
constexpr int kIngestWarmupWrites = 2;
constexpr auto kEditInterval = std::chrono::milliseconds(120);
constexpr int kInspectQueries = 4;
constexpr size_t kProbes = 8;
/// Reader connections and the query period of each.
constexpr int kReaders = 2;
constexpr auto kQueryPeriod = std::chrono::milliseconds(10);
/// A write sent later than this after its due time counts as late.
constexpr auto kLate = std::chrono::milliseconds(1);
/// Smallest gap between the pooled mean marginals of unsupervised pairs
/// that express the relation and of those that do not.
constexpr double kSeparation = 0.05;
/// How long a read-back may wait for an acknowledged write to show.
constexpr auto kVisibleTimeout = std::chrono::seconds(30);

/// KbcPipeline's base program with its defaults (ratio semantics, entity
/// layer on).
constexpr char kBaseProgram[] = R"(
relation Sentence(doc: int, sent: int, content: string).
relation PersonCandidate(sent: int, mention: int).
relation EL(mention: int, entity: int).
relation KnownSpouse(e1: int, e2: int).
relation KnownNegative(e1: int, e2: int).
query relation HasSpouse(m1: int, m2: int).
evidence HasSpouseLabel(m1: int, m2: int, l: bool) for HasSpouse.
rule CAND: HasSpouse(m1, m2) :-
  PersonCandidate(s, m1), PersonCandidate(s, m2), m1 != m2.
factor PRIOR: HasSpouse(m1, m2) :-
  PersonCandidate(s, m1), PersonCandidate(s, m2), m1 != m2
  weight = -0.8 semantics = logical.
query relation SpouseKB(e1: int, e2: int).
rule KBCAND: SpouseKB(e1, e2) :-
  PersonCandidate(s, m1), PersonCandidate(s, m2),
  EL(m1, e1), EL(m2, e2), m1 != m2.
factor KBPRIOR: SpouseKB(e1, e2) :-
  PersonCandidate(s, m1), PersonCandidate(s, m2),
  EL(m1, e1), EL(m2, e2), m1 != m2
  weight = -0.6 semantics = logical.
factor AGG: SpouseKB(e1, e2) :-
  HasSpouse(m1, m2), EL(m1, e1), EL(m2, e2)
  weight = 1.2 semantics = ratio.
)";

/// The development loop of KbcPipeline::UpdateSequence, one apply_update
/// each; `relation` names the feature relation whose rows travel with it.
struct LoopStep {
  const char* label;
  const char* rules;
  const char* relation;
};
constexpr LoopStep kLoop[] = {
    {"A1", "", nullptr},
    {"FE1",
     "relation PhraseFeature(sent: int, m1: int, m2: int, f: string).\n"
     "factor FE1: HasSpouse(m1, m2) :- PhraseFeature(s, m1, m2, f)\n"
     "  weight = w(f) semantics = ratio.",
     "PhraseFeature"},
    {"FE2",
     "relation DeepFeature(sent: int, m1: int, m2: int, f: string).\n"
     "factor FE2: HasSpouse(m1, m2) :- DeepFeature(s, m1, m2, f)\n"
     "  weight = w(f) semantics = ratio.",
     "DeepFeature"},
    {"I1",
     "factor I1: HasSpouse(m2, m1) :- HasSpouse(m1, m2)\n"
     "  weight = 1.5 semantics = logical.",
     nullptr},
    {"S1",
     "rule S1: HasSpouseLabel(m1, m2, true) :-\n"
     "  PersonCandidate(s, m1), PersonCandidate(s, m2),\n"
     "  EL(m1, e1), EL(m2, e2), KnownSpouse(e1, e2), m1 != m2.",
     nullptr},
    {"S2",
     "rule S2: HasSpouseLabel(m1, m2, false) :-\n"
     "  PersonCandidate(s, m1), PersonCandidate(s, m2),\n"
     "  EL(m1, e1), EL(m2, e2), KnownNegative(e1, e2), m1 != m2.",
     nullptr},
};

/// The rules devloop edits add and retract in turn ("%s" is the label):
/// variants of the loop's factor rules. Every head is an existing candidate
/// (every feature row belongs to one), so an edit never mints variables.
constexpr const char* kEditBank[] = {
    // FE1 and FE2 under the other semantics of Figure 10(b).
    "factor %s: HasSpouse(m1, m2) :- PhraseFeature(s, m1, m2, f) "
    "weight = w(f) semantics = linear.",
    "factor %s: HasSpouse(m1, m2) :- DeepFeature(s, m1, m2, f) "
    "weight = w(f) semantics = logical.",
    // The symmetry rule I1 at a lower weight.
    "factor %s: HasSpouse(m2, m1) :- HasSpouse(m1, m2) "
    "weight = 0.8 semantics = logical.",
    // The entity-level vote of Example 2.5 under linear semantics.
    "factor %s: SpouseKB(e1, e2) :- HasSpouse(m1, m2), EL(m1, e1), "
    "EL(m2, e2) weight = 1.2 semantics = linear.",
};
constexpr size_t kEdits = std::size(kEditBank);

// ---- inputs ----------------------------------------------------------------

/// One candidate pair HasSpouse(m1, m2): whether its sentence expresses the
/// relation, and its distant-supervision label (S1/S2), if any.
struct Pair {
  int64_t m1 = 0;
  int64_t m2 = 0;
  bool truth = false;
  int label = -1;  // -1 none, 0 false, 1 true
};

std::string PairTsv(const Pair& p) {
  return std::to_string(p.m1) + "\t" + std::to_string(p.m2);
}

/// Rows of a range of documents as per-relation TSV, plus the candidate
/// pairs and SpouseKB tuples they create.
struct Batch {
  std::map<std::string, std::string> tsv;  // relation -> rows
  std::vector<Pair> pairs;
  std::set<std::pair<int64_t, int64_t>> entity_pairs;

  std::vector<comm::DataPayload> Payloads(
      std::initializer_list<const char*> relations) const {
    std::vector<comm::DataPayload> out;
    for (const char* relation : relations) {
      auto it = tsv.find(relation);
      out.push_back({relation, it == tsv.end() ? "" : it->second});
    }
    return out;
  }
};

/// One tenant's corpus as KbcPipeline builds it, generated with `extra`
/// documents past the profile's. The generators draw sentence by sentence,
/// so the profile's documents are the same for every `extra`.
class TenantCorpus {
 public:
  TenantCorpus(kbc::SystemKind kind, uint64_t seed, size_t extra) {
    kbc::SystemProfile profile = kbc::ProfileFor(kind);
    base_docs_ = profile.num_documents;
    profile.num_documents += extra;
    corpus_ = kbc::GenerateCorpus(profile, seed);
    candidates_ = kbc::GenerateCandidates(corpus_, seed + 1);
    features_ = kbc::ExtractFeatures(corpus_);
    kb_ = kbc::BuildKnowledgeBase(corpus_);
    for (const Tuple& row : candidates_.entity_links) {
      entity_[row[0].AsInt()] = row[1].AsInt();
    }
    for (const Tuple& row : kb_.known_positive) {
      positive_.insert({row[0].AsInt(), row[1].AsInt()});
    }
    for (const Tuple& row : kb_.known_negative) {
      negative_.insert({row[0].AsInt(), row[1].AsInt()});
    }
  }

  size_t base_docs() const { return base_docs_; }

  /// Documents [lo, hi). `with_kb` adds the distant-supervision relations.
  StatusOr<Batch> Documents(size_t lo, size_t hi, bool with_kb) const {
    const size_t per_doc = corpus_.profile.sentences_per_doc;
    const int64_t first = static_cast<int64_t>(lo * per_doc);
    const int64_t last = static_cast<int64_t>(hi * per_doc);
    // Each relation's rows, with the column that names the sentence (for
    // EL the mention, which is sentence * kMentionStride + token).
    struct Source {
      const char* relation;
      const std::vector<Tuple>* rows;
      size_t column;
      int64_t stride;
    };
    const Source sources[] = {
        {"Sentence", &candidates_.sentences, 1, 1},
        {"PersonCandidate", &candidates_.person_candidates, 0, 1},
        {"EL", &candidates_.entity_links, 0, kbc::kMentionStride},
        {"PhraseFeature", &features_.shallow, 0, 1},
        {"DeepFeature", &features_.deep, 0, 1},
    };
    Batch batch;
    auto add = [&batch](const char* relation, const Tuple& row) -> Status {
      auto line = deepdive::FormatTsvLine(row);
      if (!line.ok()) return line.status();
      batch.tsv[relation] += *line + "\n";
      return Status::OK();
    };
    for (const Source& source : sources) {
      for (const Tuple& row : *source.rows) {
        const int64_t sent = row[source.column].AsInt() / source.stride;
        if (sent < first || sent >= last) continue;
        if (Status s = add(source.relation, row); !s.ok()) return s;
      }
    }
    for (const Tuple& row : with_kb ? kb_.known_positive : kNone) {
      if (Status s = add("KnownSpouse", row); !s.ok()) return s;
    }
    for (const Tuple& row : with_kb ? kb_.known_negative : kNone) {
      if (Status s = add("KnownNegative", row); !s.ok()) return s;
    }
    std::map<int64_t, std::vector<int64_t>> mentions;  // sentence -> mentions
    for (const Tuple& row : candidates_.person_candidates) {
      const int64_t sent = row[0].AsInt();
      if (sent >= first && sent < last) mentions[sent].push_back(row[1].AsInt());
    }
    for (const auto& [sent, ids] : mentions) {
      const bool truth =
          corpus_.sentences[static_cast<size_t>(sent)].expresses_relation;
      for (int64_t m1 : ids) {
        for (int64_t m2 : ids) {
          if (m1 == m2) continue;
          const std::pair<int64_t, int64_t> entities{entity_.at(m1),
                                                     entity_.at(m2)};
          const int label = positive_.count(entities)   ? 1
                            : negative_.count(entities) ? 0
                                                        : -1;
          batch.pairs.push_back({m1, m2, truth, label});
          batch.entity_pairs.insert(entities);
        }
      }
    }
    return batch;
  }

 private:
  inline static const std::vector<Tuple> kNone;

  kbc::Corpus corpus_;
  size_t base_docs_ = 0;
  kbc::CandidateRows candidates_;
  kbc::FeatureRows features_;
  kbc::KnowledgeBaseRows kb_;
  std::map<int64_t, int64_t> entity_;  // mention -> linked entity
  std::set<std::pair<int64_t, int64_t>> positive_, negative_;
};

// ---- measurement -----------------------------------------------------------

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Nearest-rank percentile (p in (0, 100]); 0 when empty.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

/// Failed checks and operations are counted, not fatal: the run finishes
/// and reports correct = false, with the first few reasons on stderr.
class Verdict {
 public:
  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failures_++ < 10) std::fprintf(stderr, "FAILED: %s\n", why.c_str());
  }
  uint64_t failures() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
  }

 private:
  mutable std::mutex mu_;
  uint64_t failures_ = 0;
};

/// One client connection to the daemon.
class Conn {
 public:
  static StatusOr<Conn> Dial(const std::string& address) {
    auto client = comm::Client::Dial(address);
    if (!client.ok()) return client.status();
    return Conn(std::move(client).value());
  }

  /// Sends one request to `tenant` and returns the response body of type R;
  /// a transport error or a non-OK response becomes an error status.
  template <typename R, typename Body>
  StatusOr<R> Call(const std::string& tenant, Body body) {
    comm::Request request;
    request.tenant = tenant;
    request.body = std::move(body);
    auto response = client_.Call(request);
    if (!response.ok()) return response.status();
    if (!response->ok()) return response->ToStatus();
    if (!std::holds_alternative<R>(response->body)) {
      return deepdive::Status::Internal("unexpected response body");
    }
    return std::get<R>(std::move(response->body));
  }

  StatusOr<comm::QueryResult> Query(const std::string& tenant,
                                    const Pair& pair) {
    return Call<comm::QueryResult>(
        tenant, comm::QueryRequest{"HasSpouse", PairTsv(pair), 0.0});
  }

  StatusOr<comm::TenantStatus> Status(const std::string& tenant) {
    auto result = Call<comm::StatusResult>(tenant, comm::StatusRequest{});
    if (!result.ok()) return result.status();
    if (result->tenants.size() != 1) {
      return deepdive::Status::Internal("status named no single tenant");
    }
    return result->tenants.front();
  }

 private:
  explicit Conn(comm::Client client) : client_(std::move(client)) {}

  comm::Client client_;
};

/// Polls `pair` until a view at `epoch` or later answers it.
StatusOr<comm::QueryResult> ReadBack(Conn* conn, const std::string& tenant,
                                     const Pair& pair, uint64_t epoch) {
  const Clock::time_point give_up = Clock::now() + kVisibleTimeout;
  while (true) {
    auto result = conn->Query(tenant, pair);
    if (!result.ok()) return result.status();
    if (result->found && result->epoch >= epoch) return result;
    if (Clock::now() > give_up) {
      return Status::Internal("write at epoch " + std::to_string(epoch) +
                              " never became visible");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Marginal check of a queried pair: exactly its label when supervised,
/// in [0, 1] otherwise.
bool MarginalOk(const Pair& pair, double marginal) {
  if (pair.label >= 0) return marginal == static_cast<double>(pair.label);
  return marginal >= 0.0 && marginal <= 1.0;
}

/// One measured write (an update, or a rule edit), from due to visible.
struct WriteSample {
  double visible_ms = 0.0;    // due -> a query answers at the write's epoch
  double ack_ms = 0.0;        // sent -> acknowledged
  double readback_ms = 0.0;   // acknowledged -> visible
  double lag_ms = 0.0;        // due -> sent: how late the writer ran
  double grounding_ms = 0.0;  // server-reported stage times
  double learning_ms = 0.0;   // (add_rule reports none; it lands in other)
  double inference_ms = 0.0;
  double status_ms = 0.0;  // a status call afterwards: transport + dispatch
  double retract_ack_ms = 0.0;       // devloop: retraction sent -> acked
  double retract_readback_ms = 0.0;  // acked -> every probe restored
  std::string strategy;              // the optimizer's choice
};

/// Mean marginals of unsupervised pairs whose sentence expresses the
/// relation, and of the rest. Pooled over the tenants, because on the noisy
/// systems (News, Pharma.) one tenant's gap is within sampling noise.
struct Separation {
  double sum[2] = {0, 0};
  double n[2] = {0, 0};

  void Add(bool truth, double marginal) {
    sum[truth] += marginal;
    n[truth] += 1;
  }
  double Mean(bool truth) const { return sum[truth] / std::max(n[truth], 1.0); }
};

/// One hosted KB: its inputs, and what its writer knows and checks of it.
class Tenant {
 public:
  Tenant(uint64_t seed, size_t index, size_t stream_docs)
      : name_(std::string("kb_") + kbc::SystemName(kSystems[index])),
        seed_(deepdive::Rng::MixSeed(seed, index)) {
    if (name_.back() == '.') name_.pop_back();  // "Pharma."
    const TenantCorpus corpus(kSystems[index], seed_, stream_docs);
    auto base = corpus.Documents(0, corpus.base_docs(), /*with_kb=*/true);
    if (!base.ok()) {
      error_ = base.status();
      return;
    }
    base_ = std::move(base).value();
    for (size_t k = 0; k < kProbes; ++k) {
      probes_.push_back(base_.pairs[k * base_.pairs.size() / kProbes]);
    }
    variables_ = base_.pairs.size() + base_.entity_pairs.size();
    entity_pairs_ = base_.entity_pairs;
    for (size_t d = 0; d < stream_docs; ++d) {
      const size_t doc = corpus.base_docs() + d;
      auto batch = corpus.Documents(doc, doc + 1, /*with_kb=*/false);
      if (!batch.ok()) {
        error_ = batch.status();
        return;
      }
      stream_.push_back(std::move(batch).value());
    }
  }

  const std::string& name() const { return name_; }
  const std::vector<Pair>& base_pairs() const { return base_.pairs; }
  uint64_t writes() const { return writes_; }

  /// create_tenant, then the development loop; each loop update's ack time
  /// goes to `loop_ms`.
  Status SetUp(Conn* conn, std::vector<double>* loop_ms) {
    if (!error_.ok()) return error_;
    comm::CreateTenantRequest create;
    create.name = name_;
    create.program = kBaseProgram;
    create.config.seed = seed_;
    create.config.threads = 1;
    create.data = base_.Payloads({"Sentence", "PersonCandidate", "EL",
                                  "KnownSpouse", "KnownNegative"});
    auto created =
        conn->Call<comm::CreateTenantResult>(name_, std::move(create));
    if (!created.ok()) return created.status();
    const uint64_t expected = base_.pairs.size() + base_.entity_pairs.size();
    if (created->num_variables != expected) {
      return Status::Internal(name_ + " has " +
                              std::to_string(created->num_variables) +
                              " variables, expected " +
                              std::to_string(expected));
    }
    for (const LoopStep& step : kLoop) {
      comm::UpdateRequest update;
      update.label = step.label;
      update.rules = step.rules;
      if (step.relation != nullptr) {
        update.inserts = base_.Payloads({step.relation});
      }
      const Clock::time_point t0 = Clock::now();
      auto result = conn->Call<comm::UpdateResult>(name_, std::move(update));
      if (!result.ok()) {
        return Status::Internal(name_ + " " + step.label + ": " +
                                result.status().ToString());
      }
      loop_ms->push_back(Ms(Clock::now() - t0));
      ++updates_sent_;
    }
    return Status::OK();
  }

  /// Records the program identity, epoch and probe marginals the run starts
  /// from; every retraction must return to exactly these.
  Status Capture(Conn* conn) {
    auto status = conn->Status(name_);
    if (!status.ok()) return status.status();
    start_ = *status;
    version_ = start_.program_version;
    last_epoch_ = start_.epoch;
    start_writes_ = writes_;
    probe_marginals_.clear();
    for (const Pair& p : probes_) {
      auto r = conn->Query(name_, p);
      if (!r.ok()) return r.status();
      if (!r->found) return Status::NotFound("probe " + PairTsv(p));
      probe_marginals_.push_back(r->marginal);
    }
    return Status::OK();
  }

  /// Ingest: sends the next document as one update and reads its first
  /// candidate pair back. Returns false once the tenant fails.
  bool Ingest(Conn* conn, Verdict* verdict, Clock::time_point due,
              std::vector<WriteSample>* samples) {
    if (next_doc_ >= stream_.size()) {
      verdict->Fail(name_ + " ran out of documents");
      return false;
    }
    const Batch& doc = stream_[next_doc_++];
    comm::UpdateRequest update;
    update.label = "doc#" + std::to_string(next_doc_);
    update.inserts = doc.Payloads(
        {"Sentence", "PersonCandidate", "EL", "PhraseFeature", "DeepFeature"});
    const Clock::time_point sent = Clock::now();
    auto result = conn->Call<comm::UpdateResult>(name_, std::move(update));
    const Clock::time_point acked = Clock::now();
    ++writes_;
    ++updates_sent_;
    if (!result.ok()) {
      verdict->Fail(name_ + " update: " + result.status().ToString());
      return false;
    }
    if (result->epoch <= last_epoch_) verdict->Fail(name_ + " epoch not new");
    last_epoch_ = result->epoch;
    variables_ += doc.pairs.size();
    for (const auto& e : doc.entity_pairs) {
      if (entity_pairs_.insert(e).second) ++variables_;
    }
    const Pair& probe = doc.pairs.front();
    auto seen = ReadBack(conn, name_, probe, result->epoch);
    const Clock::time_point visible = Clock::now();
    if (!seen.ok()) {
      verdict->Fail(name_ + ": " + seen.status().ToString());
      return false;
    }
    if (!MarginalOk(probe, seen->marginal)) {
      verdict->Fail(name_ + " new pair " + PairTsv(probe) + " has marginal " +
                    std::to_string(seen->marginal));
    }
    if (samples == nullptr) return true;
    WriteSample s = Sample(due, sent, acked, visible);
    s.grounding_ms = result->grounding_seconds * 1e3;
    s.learning_ms = result->learning_seconds * 1e3;
    s.inference_ms = result->inference_seconds * 1e3;
    s.strategy = result->strategy;
    Finish(conn, verdict, std::move(s), samples);
    return true;
  }

  /// Devloop: adds the next rule of the bank, waits until it is visible,
  /// inspects the probes, retracts it, and checks the exact restore.
  bool Edit(Conn* conn, Verdict* verdict, Clock::time_point due,
            std::vector<WriteSample>* samples) {
    const std::string label = "DEV" + std::to_string(edits_);
    char rule[256];
    std::snprintf(rule, sizeof(rule), kEditBank[edits_ % kEdits],
                  label.c_str());
    ++edits_;
    const Clock::time_point sent = Clock::now();
    auto add =
        conn->Call<comm::AddRuleResult>(name_, comm::AddRuleRequest{rule});
    const Clock::time_point acked = Clock::now();
    ++writes_;
    if (!add.ok()) {
      verdict->Fail(name_ + " add_rule: " + add.status().ToString());
      return false;
    }
    if (add->rule_count != start_.rule_count + 1 ||
        add->program_version != ++version_) {
      verdict->Fail(name_ + " add_rule did not advance the program");
    }
    auto seen = ReadBack(conn, name_, probes_.front(), add->epoch);
    const Clock::time_point visible = Clock::now();
    if (!seen.ok()) {
      verdict->Fail(name_ + ": " + seen.status().ToString());
      return false;
    }

    for (int q = 0; q < kInspectQueries; ++q) {
      const Pair& p = probes_[static_cast<size_t>(q) % probes_.size()];
      auto r = conn->Query(name_, p);
      if (!r.ok() || !r->found || !MarginalOk(p, r->marginal)) {
        verdict->Fail(name_ + " inspect query of " + PairTsv(p));
      }
    }
    // No other write reached this tenant since the add, so the retraction
    // must restore the program and every marginal exactly.
    const Clock::time_point retract_sent = Clock::now();
    auto retract = conn->Call<comm::RetractRuleResult>(
        name_, comm::RetractRuleRequest{label});
    const Clock::time_point retract_acked = Clock::now();
    ++writes_;
    if (!retract.ok()) {
      verdict->Fail(name_ + " retract_rule: " + retract.status().ToString());
      return false;
    }
    if (retract->rules_fingerprint != start_.rules_fingerprint ||
        retract->rule_count != start_.rule_count ||
        retract->program_version != ++version_) {
      verdict->Fail(name_ + " retract_rule did not restore the program");
    }
    for (size_t k = 0; k < probes_.size(); ++k) {
      auto r = ReadBack(conn, name_, probes_[k], retract->epoch);
      if (!r.ok() || r->marginal != probe_marginals_[k]) {
        verdict->Fail(name_ + " marginal of " + PairTsv(probes_[k]) +
                      " not restored after retracting " + label);
      }
    }
    const Clock::time_point restored = Clock::now();
    if (samples == nullptr) return true;
    WriteSample s = Sample(due, sent, acked, visible);
    s.grounding_ms = add->grounding_seconds * 1e3;
    s.inference_ms = add->inference_seconds * 1e3;
    s.strategy = add->strategy;
    s.retract_ack_ms = Ms(retract_acked - retract_sent);
    s.retract_readback_ms = Ms(restored - retract_acked);
    Finish(conn, verdict, std::move(s), samples);
    return true;
  }

  /// End-of-run checks: counters and state size match what was sent, and
  /// the unsupervised marginals are spread out; they go to `separation`.
  void Check(Conn* conn, Verdict* verdict, Separation* separation) const {
    auto status = conn->Status(name_);
    if (!status.ok()) {
      verdict->Fail(name_ + " status: " + status.status().ToString());
      return;
    }
    if (status->epoch != start_.epoch + writes_ - start_writes_) {
      verdict->Fail(name_ + " published " +
                    std::to_string(status->epoch - start_.epoch) +
                    " epochs for " + std::to_string(writes_ - start_writes_) +
                    " writes");
    }
    if (status->num_variables != variables_) {
      verdict->Fail(name_ + " has " + std::to_string(status->num_variables) +
                    " variables, expected " + std::to_string(variables_));
    }
    if (status->updates_applied != updates_sent_) {
      verdict->Fail(name_ + " updates_applied disagrees with updates sent");
    }
    double lo = 1.0, hi = 0.0;
    for (size_t k = 0; k < base_.pairs.size(); k += 3) {
      const Pair& p = base_.pairs[k];
      if (p.label >= 0) continue;
      auto r = conn->Query(name_, p);
      if (!r.ok() || !r->found) {
        verdict->Fail(name_ + " lost pair " + PairTsv(p));
        return;
      }
      separation->Add(p.truth, r->marginal);
      lo = std::min(lo, r->marginal);
      hi = std::max(hi, r->marginal);
    }
    if (hi - lo < kSpread) {
      verdict->Fail(name_ + " marginals all lie in [" + std::to_string(lo) +
                    ", " + std::to_string(hi) + "]");
    }
  }

 private:
  /// Smallest range of a tenant's unsupervised marginals: less means
  /// inference collapsed to a constant.
  static constexpr double kSpread = 0.2;

  static WriteSample Sample(Clock::time_point due, Clock::time_point sent,
                            Clock::time_point acked,
                            Clock::time_point visible) {
    WriteSample s;
    s.visible_ms = Ms(visible - due);
    s.ack_ms = Ms(acked - sent);
    s.readback_ms = Ms(visible - acked);
    s.lag_ms = Ms(sent - due);
    return s;
  }

  static void Finish(Conn* conn, Verdict* verdict, WriteSample s,
                     std::vector<WriteSample>* samples) {
    const Clock::time_point t0 = Clock::now();
    auto status = conn->Call<comm::StatusResult>("", comm::StatusRequest{});
    s.status_ms = Ms(Clock::now() - t0);
    if (!status.ok()) verdict->Fail("status: " + status.status().ToString());
    samples->push_back(std::move(s));
  }

  std::string name_;
  const uint64_t seed_;
  Status error_;
  Batch base_;
  std::vector<Batch> stream_;
  size_t next_doc_ = 0;
  std::vector<Pair> probes_;
  std::vector<double> probe_marginals_;
  std::set<std::pair<int64_t, int64_t>> entity_pairs_;
  uint64_t variables_ = 0;  // HasSpouse and SpouseKB variables sent so far
  comm::TenantStatus start_;
  uint64_t version_ = 0;
  uint64_t last_epoch_ = 0;
  uint64_t writes_ = 0;
  uint64_t start_writes_ = 0;
  uint64_t updates_sent_ = 0;
  uint64_t edits_ = 0;
};

/// A tenant's writer: its own connection, sending the tenant's share of the
/// schedule until `end`.
void WriterLoop(const std::string& address, Tenant* tenant, size_t index,
                bool ingest, Clock::time_point start, Clock::time_point end,
                Verdict* verdict, std::vector<WriteSample>* samples) {
  auto conn = Conn::Dial(address);
  if (!conn.ok()) {
    verdict->Fail("writer dial: " + conn.status().ToString());
    return;
  }
  const Clock::duration interval = ingest ? kIngestInterval : kEditInterval;
  for (int64_t k = 0;; ++k) {
    const Clock::time_point due =
        start + (k * static_cast<int64_t>(kTenants) +
                 static_cast<int64_t>(index)) *
                    interval;
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    const bool ok = ingest ? tenant->Ingest(&*conn, verdict, due, samples)
                           : tenant->Edit(&*conn, verdict, due, samples);
    if (!ok) break;
  }
}

/// Reader connection: looks up random base pairs of random tenants on an
/// open-loop schedule from `start` until `end`, recording latency from each
/// query's due time.
void ReaderLoop(const std::string& address, const std::vector<Tenant>* kbs,
                uint64_t seed, Clock::time_point start, Clock::time_point end,
                Verdict* verdict, std::vector<double>* latencies_ms) {
  auto conn = Conn::Dial(address);
  if (!conn.ok()) {
    verdict->Fail("reader dial: " + conn.status().ToString());
    return;
  }
  deepdive::Rng rng(seed);
  std::vector<uint64_t> last_epoch(kbs->size(), 0);
  for (int64_t k = 0;; ++k) {
    const Clock::time_point due = start + k * kQueryPeriod;
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    const size_t t = rng.UniformInt(kbs->size());
    const Tenant& kb = (*kbs)[t];
    const Pair& pair = kb.base_pairs()[rng.UniformInt(kb.base_pairs().size())];
    auto result = conn->Query(kb.name(), pair);
    const Clock::time_point done = Clock::now();
    if (!result.ok()) {
      verdict->Fail("query: " + result.status().ToString());
      return;
    }
    if (!result->found) {
      verdict->Fail(kb.name() + " pair " + PairTsv(pair) + " not found");
    } else if (!MarginalOk(pair, result->marginal)) {
      verdict->Fail(kb.name() + " marginal " +
                    std::to_string(result->marginal) + " of " + PairTsv(pair));
    }
    if (result->epoch < last_epoch[t]) verdict->Fail("an epoch went back");
    last_epoch[t] = result->epoch;
    latencies_ms->push_back(Ms(done - due));
  }
}

// ---- driver ----------------------------------------------------------------

struct Args {
  std::string address;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--address") {
      args->address = value;
    } else if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->address.empty() &&
         (args->workload == "ingest" || args->workload == "devloop") &&
         args->seconds > 0.0 && args->seconds <= 600.0 &&
         (args->trace == 0 || args->trace == 1);
}

std::string Metric(const char* name, double value, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", name, value,
                unit);
  return buf;
}

/// Creates, evolves and warms up every tenant, one at a time, on a
/// connection of its own that is closed again before the timed run: the
/// daemon serves one connection per worker thread, so the run's writers and
/// readers are then all it serves.
Status SetUpTenants(const std::string& address, bool ingest, uint64_t seed,
                    size_t stream_docs, Verdict* verdict,
                    std::vector<Tenant>* kbs, std::vector<double>* setup_s,
                    std::vector<double>* loop_ms) {
  auto conn = Conn::Dial(address);
  if (!conn.ok()) return conn.status();
  kbs->reserve(kTenants);
  for (size_t t = 0; t < kTenants; ++t) {
    const Clock::time_point t0 = Clock::now();
    Tenant& kb = kbs->emplace_back(seed, t, stream_docs);
    Status made = kb.SetUp(&*conn, loop_ms);
    if (made.ok()) made = kb.Capture(&*conn);
    for (int w = 0; made.ok() && w < (ingest ? kIngestWarmupWrites : 1); ++w) {
      const bool ok = ingest ? kb.Ingest(&*conn, verdict, t0, nullptr)
                             : kb.Edit(&*conn, verdict, t0, nullptr);
      if (!ok) made = Status::Internal("warm-up write failed");
    }
    if (!made.ok()) return Status::Internal(kb.name() + ": " + made.ToString());
    setup_s->push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());  }
  for (Tenant& kb : *kbs) {
    if (Status s = kb.Capture(&*conn); !s.ok()) return s;
  }
  return Status::OK();
}

int Run(const Args& args) {
  const bool ingest = args.workload == "ingest";
  const Clock::duration interval = ingest ? kIngestInterval : kEditInterval;
  const auto writes_per_tenant = static_cast<size_t>(std::ceil(
      std::chrono::duration<double>(args.seconds) / (interval * kTenants)));
  const size_t stream_docs =
      ingest ? writes_per_tenant + kIngestWarmupWrites + 1 : 0;

  Verdict verdict;
  std::vector<Tenant> kbs;
  std::vector<double> setup_s, loop_ms;
  if (Status s = SetUpTenants(args.address, ingest, args.seed, stream_docs,
                              &verdict, &kbs, &setup_s, &loop_ms);
      !s.ok()) {
    std::fprintf(stderr, "set-up: %s\n", s.ToString().c_str());
    return 1;
  }

  // ---- the timed run: one writer thread per tenant, readers on their own.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  std::vector<std::vector<double>> query_ms(kReaders);
  std::vector<std::vector<WriteSample>> write_samples(kTenants);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    // Reader r starts r/kReaders of a period late, so readers interleave.
    threads.emplace_back(ReaderLoop, args.address, &kbs,
                         deepdive::Rng::MixSeed(args.seed, kTenants + r),
                         start + r * kQueryPeriod / kReaders, end, &verdict,
                         &query_ms[r]);
  }
  for (size_t t = 0; t < kTenants; ++t) {
    threads.emplace_back(WriterLoop, args.address, &kbs[t], t, ingest, start,
                         end, &verdict, &write_samples[t]);
  }
  for (std::thread& t : threads) t.join();
  auto conn = Conn::Dial(args.address);
  if (!conn.ok()) {
    std::fprintf(stderr, "dial: %s\n", conn.status().ToString().c_str());
    return 1;
  }
  Separation separation;
  for (const Tenant& kb : kbs) kb.Check(&*conn, &verdict, &separation);
  std::fprintf(stderr, "mean marginal %.3f expressed, %.3f not\n",
               separation.Mean(true), separation.Mean(false));
  if (!(separation.Mean(true) > separation.Mean(false) + kSeparation)) {
    verdict.Fail("marginals do not separate pairs that express the relation");
  }

  std::vector<double> queries;
  for (const auto& per_reader : query_ms) {
    queries.insert(queries.end(), per_reader.begin(), per_reader.end());
  }
  std::vector<WriteSample> samples;
  for (const auto& per_tenant : write_samples) {
    samples.insert(samples.end(), per_tenant.begin(), per_tenant.end());
  }
  uint64_t writes = 0;
  for (const Tenant& kb : kbs) writes += kb.writes();
  if (samples.size() < 100 || queries.size() < 1000) {
    verdict.Fail("too few samples for the reported percentiles");
  }
  auto p50 = [&samples](double WriteSample::*field) {
    std::vector<double> values;
    for (const WriteSample& s : samples) values.push_back(s.*field);
    return Percentile(std::move(values), 50);
  };
  std::vector<double> visible, other;
  std::map<std::string, double> strategies;
  double late = 0;
  for (const WriteSample& s : samples) {
    visible.push_back(s.visible_ms);
    other.push_back(s.ack_ms - s.grounding_ms - s.learning_ms -
                    s.inference_ms);
    strategies[s.strategy] += 1;
    if (s.lag_ms > Ms(kLate)) late += 1;
  }
  double setup_total = 0;
  for (double s : setup_s) setup_total += s;
  std::fprintf(stderr,
               "%s: %zu writes (%.0f late), %zu queries; visible p50 %.3f "
               "p90 %.3f ms; query p50 %.3f p99 %.3f ms; setup median %.3f "
               "s, total %.3f s\n",
               args.workload.c_str(), samples.size(), late, queries.size(),
               Percentile(visible, 50), Percentile(visible, 90),
               Percentile(queries, 50), Percentile(queries, 99),
               Percentile(setup_s, 50), setup_total);

  std::vector<std::string> metrics;
  if (args.trace == 0) {
    // Tails go to stderr only: on shared virtual machines the visibility p90
    // and the query p99 (an idle vCPU's wake-up) spread too far between runs
    // to serve as regression gates.
    metrics = {
        Metric("visible_p50_ms", Percentile(visible, 50), "ms"),
        Metric("query_p50_ms", Percentile(queries, 50), "ms"),
        Metric("setup_s", Percentile(setup_s, 50), "s"),
    };
  } else {
    metrics = {
        Metric("ack_ms", p50(&WriteSample::ack_ms), "ms"),
        Metric("readback_ms", p50(&WriteSample::readback_ms), "ms"),
        Metric("grounding_ms", p50(&WriteSample::grounding_ms), "ms"),
        Metric("learning_ms", p50(&WriteSample::learning_ms), "ms"),
        Metric("inference_ms", p50(&WriteSample::inference_ms), "ms"),
        Metric("writer_other_ms", Percentile(other, 50), "ms"),
        Metric("retract_ack_ms", p50(&WriteSample::retract_ack_ms), "ms"),
        Metric("retract_readback_ms", p50(&WriteSample::retract_readback_ms),
               "ms"),
        Metric("status_ms", p50(&WriteSample::status_ms), "ms"),
        Metric("generator_lag_ms", p50(&WriteSample::lag_ms), "ms"),
        Metric("late_writes", late, "count"),
        Metric("loop_update_ms", Percentile(loop_ms, 50), "ms"),
        Metric("sampling_writes", strategies["sampling"], "count"),
        Metric("variational_writes", strategies["variational"], "count"),
        Metric("strawman_writes", strategies["strawman"], "count"),
        Metric("rerun_writes", strategies["rerun"], "count"),
        Metric("writes", static_cast<double>(writes), "count"),
        Metric("queries", static_cast<double>(queries.size()), "count"),
    };
  }
  const uint64_t failed = verdict.failures();
  std::string line = "{\"correct\": ";
  line += failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(writes + queries.size());
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += metrics[i];
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --address HOST:PORT --workload "
                 "ingest|devloop --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  return Run(args);
}
