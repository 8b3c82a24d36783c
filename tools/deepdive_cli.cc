// deepdive_cli — run a DeepDive program from the command line.
//
//   deepdive_cli run PROGRAM.ddl [options]
//   deepdive_cli load-graph SNAPSHOT.bin [options]
//   deepdive_cli client ADDRESS VERB [options]
//
// `run` hosts a single in-process tenant on the same layered serving stack
// deepdive_serve uses: the CLI builds the exact comm::Request structs a
// remote client would send and dispatches them through the shared handler
// tier, so the in-process path and the daemon cannot drift (exports are
// byte-identical either way).
//
// `load-graph` is the cold-start path: it skips the DDL pipeline entirely,
// maps a compiled-graph snapshot written by `run --save-graph` (zero-parse
// mmap attach), and serves marginals straight from the flat CSR kernel. Both
// forms print `compiled graph checksum` and `marginals fingerprint` lines, so
// a save/load pair can be diffed to prove the reloaded snapshot reproduces
// the original process's inference bit-for-bit.
//
// `client` speaks the framed wire protocol to a running deepdive_serve:
//   deepdive_cli client 127.0.0.1:4750 status
//   deepdive_cli client 127.0.0.1:4750 query --tenant kb --relation HasSpouse
//   deepdive_cli client 127.0.0.1:4750 update --tenant kb --rules fe2.ddl
//   deepdive_cli client 127.0.0.1:4750 export --tenant kb --output R=out.tsv
//   deepdive_cli client 127.0.0.1:4750 add-rule --tenant kb --rule 'factor ...'
//   deepdive_cli client 127.0.0.1:4750 retract-rule --tenant kb --label r1
//   deepdive_cli client 127.0.0.1:4750 mine --tenant kb --max-promotions 2
//   deepdive_cli client 127.0.0.1:4750 create-tenant --tenant kb2 --program p.ddl --threads 2
//   deepdive_cli client 127.0.0.1:4750 shutdown
// A shed update (queue at its admission watermark) exits with code 3 and
// prints the server's retry-after hint.
//
// The engine flags (--mode, --seed, --epochs, --threads, --replicas,
// --sync-every, --async-materialize) are parsed by one function shared with
// deepdive_serve (serve/service/flags.h), and every malformed value is
// rejected. `run` and `client create-tenant` take all of them; `load-graph`
// takes --seed and the parallelism (--threads, --replicas, --sync-every).
//
// Options (run):
//   --data REL=FILE.tsv     load base rows (repeatable)
//   --output REL=FILE.tsv   write "<marginal>\t<cols...>" for a query
//                           relation (repeatable); default prints to stdout
//   --update FILE.ddl       apply a rule fragment incrementally after the
//                           initial run (repeatable, applied in order)
//   --update-data REL=FILE.tsv  data arriving with the *next* --update
//   --mode incremental|rerun    execution mode (default incremental)
//   --threshold P           only output facts with marginal >= P (default 0)
//   --seed N                RNG seed (default 42)
//   --epochs N              learning epochs (default 60)
//   --threads N             worker threads of every stage: grounding,
//                           learning, inference, materialization and
//                           updates (default 1 = sequential; 0 = hardware
//                           threads)
//   --replicas R            model replicas of the learner and the Gibbs
//                           chains (NUMA-style replicated sampling with
//                           periodic model averaging; the thread budget is
//                           split across replicas). Default 1 = single
//                           shared world
//   --sync-every N          replica synchronization cadence in sweeps
//                           (consensus averaging + re-seed); 0 disables
//                           periodic synchronization (default 50)
//   --async-materialize     build materializations on a background worker;
//                           updates are served from the previous snapshot
//                           while a rebuild is in flight, and the engine
//                           re-materializes itself when the sample store
//                           runs dry
//   --save-materialization FILE   persist the sample store after
//                           materializing (overnight-materialization reuse)
//   --load-materialization FILE   load a persisted sample store instead of
//                           running the sampling chain (width-checked
//                           against the grounded graph)
//   --save-graph FILE       after the initial run, save the grounded graph
//                           (with learned weights) as a compiled binary
//                           snapshot and print its checksum + marginals
//                           fingerprint (see `load-graph`)
//   --serve-queries N       start N reader threads that hammer the
//                           versioned query API (DeepDive::Query) while the
//                           updates apply, verifying every pinned view's
//                           checksum and epoch monotonicity; per-thread
//                           query counts are reported at the end
//
// Example:
//   deepdive_cli run spouse.ddl --data Person=persons.tsv
//       --data HasSpouseLabel=labels.tsv --output HasSpouse=out.tsv
//       --update fe1.ddl --update-data PhraseFeature=phrases.tsv
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "factor/compiled_graph.h"
#include "factor/graph_io.h"
#include "inference/compiled_inference.h"
#include "serve/serve.h"
#include "util/string_util.h"

namespace deepdive::cli {
namespace {

/// The single in-process tenant `run` hosts.
constexpr char kDefaultTenant[] = "default";

struct Args {
  std::string program_path;
  std::vector<std::pair<std::string, std::string>> data;     // relation, file
  std::vector<std::pair<std::string, std::string>> outputs;  // relation, file ("" = stdout)
  struct Update {
    std::string rules_path;  // may be empty (data-only update)
    std::vector<std::pair<std::string, std::string>> data;
  };
  std::vector<Update> updates;
  /// The tenant's settings: the engine flags and the materialization paths.
  serve::comm::TenantConfig config;
  double threshold = 0.0;
  std::string save_graph;
  size_t serve_queries = 0;
};

/// `deepdive_cli load-graph` — cold-start service from a compiled snapshot.
/// Of the engine flags it takes the seed and the parallelism.
struct LoadGraphArgs {
  std::string snapshot_path;
  serve::comm::TenantConfig config;
  bool use_mmap = true;
  bool validate = true;
};

/// `deepdive_cli client` — one request against a running deepdive_serve.
struct ClientArgs {
  std::string address;
  serve::comm::Request request;
  /// Export only: (relation, file) pairs, aligned with request relations.
  std::vector<std::pair<std::string, std::string>> outputs;
};

void Usage() {
  std::fprintf(stderr,
               "usage: deepdive_cli run PROGRAM.ddl [--data REL=FILE]...\n"
               "       [--output REL[=FILE]]... [--update FILE.ddl]...\n"
               "       [--update-data REL=FILE]... [--mode incremental|rerun]\n"
               "       [--threshold P] [--seed N] [--epochs N] [--threads N]\n"
               "       [--replicas R] [--sync-every N]\n"
               "       [--async-materialize] [--save-materialization FILE]\n"
               "       [--load-materialization FILE] [--save-graph FILE]\n"
               "       [--serve-queries N]\n"
               "   or: deepdive_cli load-graph SNAPSHOT.bin [--seed N]\n"
               "       [--threads N] [--replicas R] [--sync-every N]\n"
               "       [--no-mmap] [--no-validate]\n"
               "   or: deepdive_cli client ADDRESS VERB [--tenant NAME]\n"
               "       (verbs: status, query, update, export, create-tenant,\n"
               "        list-tenants, save-graph, shutdown, add-rule,\n"
               "        retract-rule, mine; create-tenant takes run's\n"
               "        engine flags)\n");
}

StatusOr<std::pair<std::string, std::string>> SplitAssignment(const std::string& arg) {
  const size_t eq = arg.find('=');
  if (eq == std::string::npos) return std::make_pair(arg, std::string());
  return std::make_pair(arg.substr(0, eq), arg.substr(eq + 1));
}

using serve::service::ConsumeEngineFlag;
using serve::service::ParseCount;
using serve::service::ParseProbability;
using serve::service::ReadFile;

StatusOr<Args> ParseArgs(int argc, char** argv) {
  Args args;
  if (argc < 3 || std::strcmp(argv[1], "run") != 0) {
    return Status::InvalidArgument("expected: deepdive_cli run PROGRAM.ddl ...");
  }
  args.program_path = argv[2];
  // --update-data attaches to the most recent --update; before any --update
  // it is an error.
  for (int i = 3; i < argc; ++i) {
    DD_ASSIGN_OR_RETURN(const bool engine_flag,
                        ConsumeEngineFlag(argc, argv, &i, &args.config));
    if (engine_flag) continue;
    const std::string flag = argv[i];
    auto next = [&]() -> StatusOr<std::string> {
      if (i + 1 >= argc) return Status::InvalidArgument(flag + " needs a value");
      return std::string(argv[++i]);
    };
    if (flag == "--data") {
      DD_ASSIGN_OR_RETURN(std::string v, next());
      DD_ASSIGN_OR_RETURN(auto kv, SplitAssignment(v));
      if (kv.second.empty()) return Status::InvalidArgument("--data needs REL=FILE");
      args.data.push_back(kv);
    } else if (flag == "--output") {
      DD_ASSIGN_OR_RETURN(std::string v, next());
      DD_ASSIGN_OR_RETURN(auto kv, SplitAssignment(v));
      args.outputs.push_back(kv);
    } else if (flag == "--update") {
      DD_ASSIGN_OR_RETURN(std::string v, next());
      Args::Update update;
      update.rules_path = v;
      args.updates.push_back(std::move(update));
    } else if (flag == "--update-data") {
      DD_ASSIGN_OR_RETURN(std::string v, next());
      DD_ASSIGN_OR_RETURN(auto kv, SplitAssignment(v));
      if (kv.second.empty()) {
        return Status::InvalidArgument("--update-data needs REL=FILE");
      }
      if (args.updates.empty()) {
        return Status::InvalidArgument("--update-data must follow an --update");
      }
      args.updates.back().data.push_back(kv);
    } else if (flag == "--threshold") {
      DD_ASSIGN_OR_RETURN(std::string v, next());
      DD_ASSIGN_OR_RETURN(args.threshold, ParseProbability(flag, v));
    } else if (flag == "--save-materialization") {
      DD_ASSIGN_OR_RETURN(args.config.save_materialization, next());
    } else if (flag == "--load-materialization") {
      DD_ASSIGN_OR_RETURN(args.config.load_materialization, next());
    } else if (flag == "--save-graph") {
      DD_ASSIGN_OR_RETURN(args.save_graph, next());
    } else if (flag == "--serve-queries") {
      DD_ASSIGN_OR_RETURN(std::string v, next());
      DD_ASSIGN_OR_RETURN(args.serve_queries, ParseCount(flag, v, 1, 1024));
    } else {
      return Status::InvalidArgument("unknown flag '" + flag + "'");
    }
  }
  if (args.config.rerun_mode &&
      (args.config.async_materialize || !args.config.save_materialization.empty() ||
       !args.config.load_materialization.empty())) {
    return Status::InvalidArgument(
        "--async-materialize/--save-materialization/--load-materialization "
        "require --mode incremental (rerun has no materialization)");
  }
  return args;
}

StatusOr<LoadGraphArgs> ParseLoadGraphArgs(int argc, char** argv) {
  LoadGraphArgs args;
  if (argc < 3) {
    return Status::InvalidArgument("expected: deepdive_cli load-graph SNAPSHOT.bin ...");
  }
  args.snapshot_path = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    // The fingerprint reads only the seed and the parallelism.
    if (flag == "--epochs" || flag == "--mode" || flag == "--async-materialize") {
      return Status::InvalidArgument(flag + " does not apply to load-graph");
    }
    DD_ASSIGN_OR_RETURN(const bool engine_flag,
                        ConsumeEngineFlag(argc, argv, &i, &args.config));
    if (engine_flag) continue;
    if (flag == "--no-mmap") {
      args.use_mmap = false;
    } else if (flag == "--no-validate") {
      args.validate = false;
    } else {
      return Status::InvalidArgument("unknown flag '" + flag + "'");
    }
  }
  return args;
}

/// Identity lines shared by `run --save-graph` and `load-graph`: the image
/// checksum names the graph state, the fingerprint names the inference
/// result a fresh process must reproduce from it (see
/// inference::CompiledMarginalsFingerprint). Save runs print the values the
/// tenant's writer thread computed; load runs recompute them locally with
/// the same settings — the CI cold-start smoke diffs the two.
void PrintIdentityLines(uint64_t checksum, uint64_t fingerprint) {
  std::printf("compiled graph checksum = %016llx\n",
              static_cast<unsigned long long>(checksum));
  std::printf("marginals fingerprint = %016llx\n",
              static_cast<unsigned long long>(fingerprint));
}

Status RunLoadGraph(const LoadGraphArgs& args) {
  factor::GraphLoadOptions opts;
  opts.use_mmap = args.use_mmap;
  opts.validate = args.validate;
  DD_ASSIGN_OR_RETURN(factor::CompiledGraph graph,
                      factor::LoadCompiledGraph(args.snapshot_path, opts));
  std::fprintf(stderr,
               "loaded compiled snapshot: %zu variables, %zu groups, %zu "
               "clauses (%zu bytes%s)\n",
               graph.NumVariables(), graph.NumGroups(), graph.NumClauses(),
               graph.image_bytes(), args.use_mmap ? ", mmap" : "");
  PrintIdentityLines(graph.Checksum(),
                     inference::CompiledMarginalsFingerprint(
                         graph, args.config.seed,
                         serve::service::ParallelismOf(args.config)));
  return Status::OK();
}

StatusOr<serve::comm::DataPayload> ReadPayload(const std::string& relation,
                                               const std::string& path) {
  serve::comm::DataPayload payload;
  payload.relation = relation;
  DD_ASSIGN_OR_RETURN(payload.tsv, ReadFile(path));
  return payload;
}

Status WriteChunk(const serve::comm::ExportChunk& chunk,
                  const std::string& path) {
  std::FILE* out = stdout;
  if (!path.empty()) {
    out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return Status::Internal("cannot open '" + path + "'");
  }
  const size_t written =
      std::fwrite(chunk.tsv.data(), 1, chunk.tsv.size(), out);
  if (out != stdout) std::fclose(out);
  if (written != chunk.tsv.size()) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

void PrintUpdateReport(const serve::comm::UpdateResult& report) {
  std::fprintf(stderr,
               "%s: grounding %.3fs, learning %.3fs, inference %.3fs (%s, "
               "epoch %llu)\n",
               report.label.c_str(), report.grounding_seconds,
               report.learning_seconds, report.inference_seconds,
               report.strategy.c_str(),
               static_cast<unsigned long long>(report.epoch));
}

/// The --serve-queries reader pool: N threads hammering the versioned query
/// API while the tenant's writer thread keeps applying updates. Each reader
/// blocks on the publisher's readiness signal (WaitForView — no sleeps, no
/// grace windows), then pins views in a loop and verifies what the API
/// guarantees: the content checksum matches (the epoch's marginals are the
/// ones published with it) and epochs never move backwards for a reader.
class QueryServer {
 public:
  QueryServer(std::shared_ptr<const core::DeepDive> dd, size_t num_readers)
      : dd_(std::move(dd)), counts_(std::make_unique<ReaderStats[]>(num_readers)),
        num_readers_(num_readers) {
    for (size_t t = 0; t < num_readers; ++t) {
      readers_.emplace_back([this, t] { ReadLoop(t); });
    }
  }

  /// Error-path cleanup: readers must be joined before the engine they
  /// query is torn down.
  ~QueryServer() {
    // ordering: relaxed — stop flags are quit hints polled by the readers;
    // join() below is the synchronization point.
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& reader : readers_) {
      if (reader.joinable()) reader.join();
    }
  }

  /// Stops the readers and reports their verified query counts. Returns an
  /// error if any reader observed an inconsistent view. Every reader is
  /// guaranteed at least one pin: ReadLoop blocks on the first-view
  /// publication signal and only then enters its check-then-poll loop.
  Status Finish() {
    // ordering: relaxed — quit hint; join() is the synchronization point
    // that makes every reader's writes visible to the tallies below.
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& reader : readers_) reader.join();
    uint64_t total = 0;
    for (size_t t = 0; t < num_readers_; ++t) {
      // ordering: relaxed — readers are joined; these are quiescent reads.
      const uint64_t queries = counts_[t].queries.load(std::memory_order_relaxed);
      std::fprintf(stderr, "reader %zu: %llu queries, last epoch %llu\n", t,
                   static_cast<unsigned long long>(queries),
                   static_cast<unsigned long long>(
                       counts_[t].last_epoch.load(std::memory_order_relaxed)));
      total += queries;
    }
    std::fprintf(stderr, "served %llu concurrent queries across %zu readers\n",
                 static_cast<unsigned long long>(total), num_readers_);
    // ordering: relaxed — read after join; violation_ is ordered by the
    // same join (written before the failing reader exited).
    if (failed_.load(std::memory_order_relaxed)) {
      return Status::Internal(violation_);
    }
    if (total == 0) return Status::Internal("query readers never ran");
    return Status::OK();
  }

 private:
  struct ReaderStats {
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> last_epoch{0};
  };

  void ReadLoop(size_t t) {
    // Explicit readiness signal from the publisher: block until the first
    // real view (epoch >= 1) exists, instead of spinning on the empty
    // epoch-0 view and hoping a grace window at shutdown was long enough.
    dd_->WaitForView(1);
    uint64_t last_epoch = 0;
    // do/while: even if Finish() raced ahead, every reader completes at
    // least one verified pin.
    do {
      const auto view = dd_->Query();
      if (view == nullptr) {
        Fail("Query() returned null");
        break;
      }
      if (view->Fingerprint() != view->content_hash) {
        Fail("pinned view failed its consistency checksum");
        break;
      }
      if (view->epoch < last_epoch) {
        Fail("epoch moved backwards for a reader");
        break;
      }
      last_epoch = view->epoch;
      // Exercise the lookup path too: an indexed entry must answer its own
      // marginal (one relation per pin keeps readers fast).
      const auto first = view->relations.begin();
      if (first != view->relations.end() && !first->second.empty() &&
          view->MarginalOf(first->first, first->second.front().first) !=
              first->second.front().second) {
        Fail("relation index disagrees with MarginalOf");
        break;
      }
      // ordering: relaxed — per-reader monotone counters; published to the
      // main thread by the join in Finish().
      counts_[t].queries.fetch_add(1, std::memory_order_relaxed);
      counts_[t].last_epoch.store(last_epoch, std::memory_order_relaxed);
      // ordering: relaxed — quit hint; a slightly late observation only
      // costs one extra loop iteration.
    } while (!stop_.load(std::memory_order_relaxed));
  }

  void Fail(const std::string& message) {
    bool expected = false;
    // ordering: the CAS (seq_cst default) elects exactly one writer of
    // violation_; the main thread reads it only after joining this thread.
    if (failed_.compare_exchange_strong(expected, true)) violation_ = message;
    // ordering: relaxed — quit hint, as in ReadLoop.
    stop_.store(true, std::memory_order_relaxed);
  }

  /// Shared ownership: the pin keeps the engine alive even if the tenant
  /// stops underneath us.
  std::shared_ptr<const core::DeepDive> dd_;
  // analysis:allow(raw-thread): the reader pool exists to exercise the
  // lock-free query surface from plain threads; ThreadPool's task queue
  // would serialize exactly the contention this smoke test is after.
  std::vector<std::thread> readers_;
  std::unique_ptr<ReaderStats[]> counts_;
  size_t num_readers_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::string violation_;  // written once under the failed_ CAS
};

/// Dispatches one request against the in-process handler tier, unwrapping
/// the response envelope back into a Status.
StatusOr<serve::comm::Response> DispatchOrError(
    const serve::handlers::Dispatcher& dispatcher,
    serve::comm::Request request) {
  serve::comm::Response response = dispatcher.Dispatch(request);
  if (!response.ok()) return response.ToStatus();
  return response;
}

Status Run(const Args& args) {
  DD_ASSIGN_OR_RETURN(std::string source, ReadFile(args.program_path));

  // The in-process serving stack: one registry, one tenant, the same
  // handler tier deepdive_serve exposes over sockets.
  serve::service::TenantRegistry registry;
  serve::handlers::Dispatcher dispatcher(&registry);

  serve::comm::CreateTenantRequest create;
  create.name = kDefaultTenant;
  create.program = std::move(source);
  create.config = args.config;
  for (const auto& [relation, file] : args.data) {
    DD_ASSIGN_OR_RETURN(serve::comm::DataPayload payload,
                        ReadPayload(relation, file));
    create.data.push_back(std::move(payload));
  }

  serve::comm::Request request;
  request.tenant = kDefaultTenant;
  request.body = std::move(create);
  DD_ASSIGN_OR_RETURN(serve::comm::Response created,
                      DispatchOrError(dispatcher, std::move(request)));
  const auto& info = std::get<serve::comm::CreateTenantResult>(created.body);
  std::fprintf(stderr, "grounded: %llu variables, %llu factors\n",
               static_cast<unsigned long long>(info.num_variables),
               static_cast<unsigned long long>(info.num_factors));

  serve::service::TenantInstance* tenant = registry.Find(kDefaultTenant);

  if (!args.save_graph.empty()) {
    // Snapshot Pr(0): the grounded graph with its learned weights, before
    // any incremental updates. A later `load-graph` run must reproduce the
    // same checksum and marginals fingerprint from this file.
    serve::comm::SaveGraphRequest body;
    body.path = args.save_graph;
    request = {};
    request.tenant = kDefaultTenant;
    request.body = std::move(body);
    DD_ASSIGN_OR_RETURN(serve::comm::Response response,
                        DispatchOrError(dispatcher, std::move(request)));
    const auto& saved = std::get<serve::comm::SaveGraphResult>(response.body);
    std::fprintf(stderr, "saved compiled graph snapshot to %s (%llu bytes)\n",
                 args.save_graph.c_str(),
                 static_cast<unsigned long long>(saved.image_bytes));
    PrintIdentityLines(saved.checksum, saved.fingerprint);
  }

  // Concurrent query serving: readers pin versioned views from here on,
  // racing every update and materialization swap below.
  std::unique_ptr<QueryServer> server;
  if (args.serve_queries > 0) {
    server = std::make_unique<QueryServer>(tenant->deepdive(),
                                           args.serve_queries);
  }

  for (size_t u = 0; u < args.updates.size(); ++u) {
    const Args::Update& update = args.updates[u];
    serve::comm::UpdateRequest body;
    body.label = StrFormat("update#%zu", u + 1);
    if (!update.rules_path.empty()) {
      DD_ASSIGN_OR_RETURN(body.rules, ReadFile(update.rules_path));
    }
    for (const auto& [relation, file] : update.data) {
      DD_ASSIGN_OR_RETURN(serve::comm::DataPayload payload,
                          ReadPayload(relation, file));
      body.inserts.push_back(std::move(payload));
    }
    request = {};
    request.tenant = kDefaultTenant;
    request.body = std::move(body);
    DD_ASSIGN_OR_RETURN(serve::comm::Response response,
                        DispatchOrError(dispatcher, std::move(request)));
    PrintUpdateReport(std::get<serve::comm::UpdateResult>(response.body));
  }

  // Drain any background (re)materialization so a failed build — e.g. a
  // --load-materialization store whose width mismatches the graph — surfaces
  // as an error instead of dying silently with the process. The query
  // readers keep racing this drain (and its snapshot install) on purpose.
  // Service-tier call: the embedding host owns the tenant, like the daemon
  // draining on SIGTERM.
  DD_ASSIGN_OR_RETURN(
      serve::service::TenantInstance::DrainReport drained,
      tenant->Submit(serve::service::TenantInstance::DrainRequest{}));
  if (args.config.async_materialize) {
    std::fprintf(stderr,
                 "materialization snapshot generation %llu: %zu samples\n",
                 static_cast<unsigned long long>(drained.snapshot_generation),
                 drained.samples_collected);
  }

  if (server != nullptr) DD_RETURN_IF_ERROR(server->Finish());

  // Export through the handler tier: every chunk comes from one pinned
  // view, byte-identical to what the daemon would serve.
  serve::comm::ExportRequest export_body;
  export_body.threshold = args.threshold;
  for (const auto& [relation, file] : args.outputs) {
    export_body.relations.push_back(relation);
  }
  request = {};
  request.tenant = kDefaultTenant;
  request.body = std::move(export_body);
  DD_ASSIGN_OR_RETURN(serve::comm::Response response,
                      DispatchOrError(dispatcher, std::move(request)));
  const auto& result = std::get<serve::comm::ExportResult>(response.body);
  std::fprintf(stderr, "writing marginals from result view epoch %llu\n",
               static_cast<unsigned long long>(result.epoch));
  if (args.outputs.empty()) {
    // Default: every query relation to stdout, with relation banners.
    for (const serve::comm::ExportChunk& chunk : result.chunks) {
      std::printf("# %s\n", chunk.relation.c_str());
      DD_RETURN_IF_ERROR(WriteChunk(chunk, ""));
    }
  } else {
    for (size_t i = 0; i < args.outputs.size(); ++i) {
      DD_RETURN_IF_ERROR(WriteChunk(result.chunks[i], args.outputs[i].second));
    }
  }
  return Status::OK();
}

StatusOr<ClientArgs> ParseClientArgs(int argc, char** argv) {
  ClientArgs args;
  if (argc < 4) {
    return Status::InvalidArgument(
        "expected: deepdive_cli client ADDRESS VERB ...");
  }
  args.address = argv[2];
  const std::string verb = argv[3];

  std::string tenant;
  std::string label;
  std::string rules_path;
  std::string program_path;
  std::string path;
  std::string relation;
  std::string tuple;
  std::string rule_text;
  double threshold = 0.0;
  std::vector<std::pair<std::string, std::string>> data;
  serve::comm::TenantConfig config;
  std::vector<std::string> relations;
  serve::comm::MineRequest mine;

  for (int i = 4; i < argc; ++i) {
    DD_ASSIGN_OR_RETURN(const bool engine_flag, ConsumeEngineFlag(argc, argv, &i, &config));
    if (engine_flag) continue;
    const std::string flag = argv[i];
    auto next = [&]() -> StatusOr<std::string> {
      if (i + 1 >= argc) return Status::InvalidArgument(flag + " needs a value");
      return std::string(argv[++i]);
    };
    if (flag == "--tenant") {
      DD_ASSIGN_OR_RETURN(tenant, next());
    } else if (flag == "--label") {
      DD_ASSIGN_OR_RETURN(label, next());
    } else if (flag == "--rules") {
      DD_ASSIGN_OR_RETURN(rules_path, next());
    } else if (flag == "--program") {
      DD_ASSIGN_OR_RETURN(program_path, next());
    } else if (flag == "--path") {
      DD_ASSIGN_OR_RETURN(path, next());
    } else if (flag == "--relation") {
      DD_ASSIGN_OR_RETURN(relation, next());
      relations.push_back(relation);
    } else if (flag == "--tuple") {
      DD_ASSIGN_OR_RETURN(tuple, next());
    } else if (flag == "--threshold") {
      DD_ASSIGN_OR_RETURN(std::string v, next());
      DD_ASSIGN_OR_RETURN(threshold, ParseProbability(flag, v));
    } else if (flag == "--data") {
      DD_ASSIGN_OR_RETURN(std::string v, next());
      DD_ASSIGN_OR_RETURN(auto kv, SplitAssignment(v));
      if (kv.second.empty()) return Status::InvalidArgument("--data needs REL=FILE");
      data.push_back(kv);
    } else if (flag == "--output") {
      DD_ASSIGN_OR_RETURN(std::string v, next());
      DD_ASSIGN_OR_RETURN(auto kv, SplitAssignment(v));
      args.outputs.push_back(kv);
    } else if (flag == "--rule") {
      DD_ASSIGN_OR_RETURN(rule_text, next());
    } else if (flag == "--max-promotions") {
      DD_ASSIGN_OR_RETURN(std::string v, next());
      DD_ASSIGN_OR_RETURN(size_t n, ParseCount(flag, v, 1, 1024));
      mine.max_promotions = n;
    } else if (flag == "--min-support") {
      DD_ASSIGN_OR_RETURN(std::string v, next());
      DD_ASSIGN_OR_RETURN(size_t n, ParseCount(flag, v, 0, 1000000000));
      mine.min_support = static_cast<int64_t>(n);
    } else if (flag == "--min-confidence") {
      DD_ASSIGN_OR_RETURN(std::string v, next());
      DD_ASSIGN_OR_RETURN(mine.min_confidence, ParseProbability(flag, v));
    } else if (flag == "--max-body-atoms") {
      DD_ASSIGN_OR_RETURN(std::string v, next());
      DD_ASSIGN_OR_RETURN(size_t n, ParseCount(flag, v, 1, 2));
      mine.max_body_atoms = static_cast<uint32_t>(n);
    } else {
      return Status::InvalidArgument("unknown flag '" + flag + "'");
    }
  }

  args.request.tenant = tenant;
  if (verb == "status") {
    args.request.body = serve::comm::StatusRequest{};
  } else if (verb == "query") {
    if (relation.empty()) {
      return Status::InvalidArgument("query needs --relation");
    }
    serve::comm::QueryRequest body;
    body.relation = relation;
    body.tuple_tsv = tuple;
    body.threshold = threshold;
    args.request.body = std::move(body);
  } else if (verb == "update") {
    serve::comm::UpdateRequest body;
    body.label = label;
    if (!rules_path.empty()) {
      DD_ASSIGN_OR_RETURN(body.rules, ReadFile(rules_path));
    }
    for (const auto& [rel, file] : data) {
      DD_ASSIGN_OR_RETURN(serve::comm::DataPayload payload,
                          ReadPayload(rel, file));
      body.inserts.push_back(std::move(payload));
    }
    args.request.body = std::move(body);
  } else if (verb == "export") {
    serve::comm::ExportRequest body;
    body.threshold = threshold;
    body.relations = relations;
    for (const auto& [rel, file] : args.outputs) {
      body.relations.push_back(rel);
    }
    args.request.body = std::move(body);
  } else if (verb == "create-tenant") {
    if (tenant.empty() || program_path.empty()) {
      return Status::InvalidArgument(
          "create-tenant needs --tenant and --program");
    }
    serve::comm::CreateTenantRequest body;
    body.name = tenant;
    DD_ASSIGN_OR_RETURN(body.program, ReadFile(program_path));
    body.config = config;
    for (const auto& [rel, file] : data) {
      DD_ASSIGN_OR_RETURN(serve::comm::DataPayload payload,
                          ReadPayload(rel, file));
      body.data.push_back(std::move(payload));
    }
    args.request.body = std::move(body);
  } else if (verb == "list-tenants") {
    args.request.body = serve::comm::ListTenantsRequest{};
  } else if (verb == "save-graph") {
    if (path.empty()) return Status::InvalidArgument("save-graph needs --path");
    serve::comm::SaveGraphRequest body;
    body.path = path;
    args.request.body = std::move(body);
  } else if (verb == "shutdown") {
    args.request.body = serve::comm::ShutdownRequest{};
  } else if (verb == "add-rule") {
    // The rule fragment travels inline (--rule) or from a file (--rules).
    serve::comm::AddRuleRequest body;
    if (!rule_text.empty()) {
      body.rule = rule_text;
    } else if (!rules_path.empty()) {
      DD_ASSIGN_OR_RETURN(body.rule, ReadFile(rules_path));
    } else {
      return Status::InvalidArgument("add-rule needs --rule or --rules");
    }
    args.request.body = std::move(body);
  } else if (verb == "retract-rule") {
    if (label.empty()) {
      return Status::InvalidArgument("retract-rule needs --label");
    }
    serve::comm::RetractRuleRequest body;
    body.label = label;
    args.request.body = std::move(body);
  } else if (verb == "mine") {
    args.request.body = mine;
  } else {
    return Status::InvalidArgument("unknown client verb '" + verb + "'");
  }
  return args;
}

/// Runs one client request; the returned int is the process exit code
/// (3 = update shed by admission control, retry later).
StatusOr<int> RunClient(const ClientArgs& args) {
  DD_ASSIGN_OR_RETURN(serve::comm::Client client,
                      serve::comm::Client::Dial(args.address));
  DD_ASSIGN_OR_RETURN(serve::comm::Response response,
                      client.Call(args.request));
  if (response.code == StatusCode::kUnavailable) {
    std::fprintf(stderr, "shed: %s (retry after %u ms)\n",
                 response.message.c_str(), response.retry_after_ms);
    return 3;
  }
  if (!response.ok()) return response.ToStatus();

  switch (args.request.verb()) {
    case serve::comm::Verb::kStatus: {
      const auto& result = std::get<serve::comm::StatusResult>(response.body);
      for (const serve::comm::TenantStatus& t : result.tenants) {
        std::printf(
            "tenant %s: ready=%d failed=%d epoch=%llu vars=%llu "
            "applied=%llu shed=%llu queue=%u/%u watermark=%u "
            "program=v%llu rules=%llu fingerprint=%016llx\n",
            t.name.c_str(), t.ready ? 1 : 0, t.failed ? 1 : 0,
            static_cast<unsigned long long>(t.epoch),
            static_cast<unsigned long long>(t.num_variables),
            static_cast<unsigned long long>(t.updates_applied),
            static_cast<unsigned long long>(t.updates_shed), t.queue_depth,
            t.queue_capacity, t.shed_watermark,
            static_cast<unsigned long long>(t.program_version),
            static_cast<unsigned long long>(t.rule_count),
            static_cast<unsigned long long>(t.rules_fingerprint));
      }
      break;
    }
    case serve::comm::Verb::kQuery: {
      const auto& result = std::get<serve::comm::QueryResult>(response.body);
      const auto& body = std::get<serve::comm::QueryRequest>(args.request.body);
      if (body.tuple_tsv.empty()) {
        std::printf("epoch=%llu entries=%llu\n",
                    static_cast<unsigned long long>(result.epoch),
                    static_cast<unsigned long long>(result.entries));
      } else {
        std::printf("epoch=%llu found=%d marginal=%.6f\n",
                    static_cast<unsigned long long>(result.epoch),
                    result.found ? 1 : 0, result.marginal);
      }
      break;
    }
    case serve::comm::Verb::kApplyUpdate:
      PrintUpdateReport(std::get<serve::comm::UpdateResult>(response.body));
      break;
    case serve::comm::Verb::kExport: {
      const auto& result = std::get<serve::comm::ExportResult>(response.body);
      std::fprintf(stderr, "writing marginals from result view epoch %llu\n",
                   static_cast<unsigned long long>(result.epoch));
      // Chunks answering --output flags come after the bare --relation ones
      // (the request was built in that order).
      const size_t named_offset = result.chunks.size() - args.outputs.size();
      for (size_t i = 0; i < result.chunks.size(); ++i) {
        if (i >= named_offset) {
          DD_RETURN_IF_ERROR(WriteChunk(
              result.chunks[i], args.outputs[i - named_offset].second));
        } else {
          std::printf("# %s\n", result.chunks[i].relation.c_str());
          DD_RETURN_IF_ERROR(WriteChunk(result.chunks[i], ""));
        }
      }
      break;
    }
    case serve::comm::Verb::kCreateTenant: {
      const auto& result =
          std::get<serve::comm::CreateTenantResult>(response.body);
      std::printf("created tenant %s: epoch=%llu vars=%llu factors=%llu\n",
                  args.request.tenant.c_str(),
                  static_cast<unsigned long long>(result.epoch),
                  static_cast<unsigned long long>(result.num_variables),
                  static_cast<unsigned long long>(result.num_factors));
      break;
    }
    case serve::comm::Verb::kListTenants: {
      const auto& result =
          std::get<serve::comm::ListTenantsResult>(response.body);
      for (const std::string& name : result.names) {
        std::printf("%s\n", name.c_str());
      }
      break;
    }
    case serve::comm::Verb::kSaveGraph: {
      const auto& result = std::get<serve::comm::SaveGraphResult>(response.body);
      std::fprintf(stderr, "saved compiled graph snapshot (%llu bytes)\n",
                   static_cast<unsigned long long>(result.image_bytes));
      PrintIdentityLines(result.checksum, result.fingerprint);
      break;
    }
    case serve::comm::Verb::kShutdown:
      std::printf("shutdown: %s\n", response.message.c_str());
      break;
    case serve::comm::Verb::kAddRule: {
      const auto& result = std::get<serve::comm::AddRuleResult>(response.body);
      std::printf(
          "added rule %s: epoch=%llu groundings=%llu strategy=%s "
          "grounding=%.3fs learning=%.3fs inference=%.3fs "
          "program=v%llu rules=%llu fingerprint=%016llx\n",
          result.label.c_str(), static_cast<unsigned long long>(result.epoch),
          static_cast<unsigned long long>(result.grounding_work),
          result.strategy.c_str(), result.grounding_seconds,
          result.learning_seconds, result.inference_seconds,
          static_cast<unsigned long long>(result.program_version),
          static_cast<unsigned long long>(result.rule_count),
          static_cast<unsigned long long>(result.rules_fingerprint));
      break;
    }
    case serve::comm::Verb::kRetractRule: {
      const auto& result =
          std::get<serve::comm::RetractRuleResult>(response.body);
      std::printf(
          "retracted rule: epoch=%llu strategy=%s program=v%llu rules=%llu "
          "fingerprint=%016llx\n",
          static_cast<unsigned long long>(result.epoch),
          result.strategy.c_str(),
          static_cast<unsigned long long>(result.program_version),
          static_cast<unsigned long long>(result.rule_count),
          static_cast<unsigned long long>(result.rules_fingerprint));
      break;
    }
    case serve::comm::Verb::kMine: {
      const auto& result = std::get<serve::comm::MineResult>(response.body);
      std::printf(
          "mined: considered=%llu trialed=%llu promoted=%zu epoch=%llu "
          "program=v%llu rules=%llu\n",
          static_cast<unsigned long long>(result.candidates_considered),
          static_cast<unsigned long long>(result.candidates_trialed),
          result.promoted.size(), static_cast<unsigned long long>(result.epoch),
          static_cast<unsigned long long>(result.program_version),
          static_cast<unsigned long long>(result.rule_count));
      for (const std::string& promoted_label : result.promoted) {
        std::printf("promoted %s\n", promoted_label.c_str());
      }
      break;
    }
  }
  return 0;
}

}  // namespace
}  // namespace deepdive::cli

int main(int argc, char** argv) {
  // No serving-role assertion here anymore: the main thread never touches a
  // DeepDive writer surface — each tenant's dedicated writer thread claims
  // the role inside the service tier.
  if (argc >= 2 && std::strcmp(argv[1], "load-graph") == 0) {
    auto load_args = deepdive::cli::ParseLoadGraphArgs(argc, argv);
    if (!load_args.ok()) {
      std::fprintf(stderr, "%s\n", load_args.status().ToString().c_str());
      deepdive::cli::Usage();
      return 2;
    }
    const deepdive::Status status = deepdive::cli::RunLoadGraph(*load_args);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (argc >= 2 && std::strcmp(argv[1], "client") == 0) {
    auto client_args = deepdive::cli::ParseClientArgs(argc, argv);
    if (!client_args.ok()) {
      std::fprintf(stderr, "%s\n", client_args.status().ToString().c_str());
      deepdive::cli::Usage();
      return 2;
    }
    const deepdive::StatusOr<int> code = deepdive::cli::RunClient(*client_args);
    if (!code.ok()) {
      std::fprintf(stderr, "%s\n", code.status().ToString().c_str());
      return 1;
    }
    return *code;
  }
  auto args = deepdive::cli::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    deepdive::cli::Usage();
    return 2;
  }
  const deepdive::Status status = deepdive::cli::Run(*args);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
