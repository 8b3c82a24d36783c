// deepdive_serve — the multi-tenant serving daemon.
//
//   deepdive_serve --listen HOST:PORT [options]
//       --tenant NAME=PROGRAM.ddl [--data NAME:REL=FILE.tsv ...] ...
//
// Hosts N independent KB instances (tenants) behind one framed TCP/Unix
// socket endpoint. Each tenant owns a dedicated writer thread (the engine's
// serving-thread contract) fed by a bounded update queue with admission
// control; queries pin lock-free result views from any connection worker.
// Drive it with `deepdive_cli client ADDRESS VERB ...`, which speaks the
// same request structs through the same handler tier. Besides data updates,
// tenants evolve their *programs* online: the add_rule / retract_rule verbs
// apply first-class rule deltas on the writer thread (grounding only the new
// rule, never re-grounding), and the mine verb runs one incremental
// rule-mining pass (co-occurrence candidates trialed through the engine).
//
// Options:
//   --listen ADDR           "HOST:PORT" (port 0 = ephemeral) or "unix:PATH"
//                           (default 127.0.0.1:0)
//   --port-file FILE        write the bound address to FILE once every
//                           startup tenant is ready and the socket accepts
//                           connections (the readiness signal for scripts)
//   --conn-workers N        connection worker threads (default 8)
//   --tenant NAME=FILE.ddl  host a tenant from a DDL program (repeatable)
//   --data NAME:REL=FILE    base rows for tenant NAME (repeatable)
//   --mode incremental|rerun, --seed N, --epochs N, --threads N,
//   --replicas R, --sync-every N, --async-materialize
//                           engine settings applied to every startup tenant
//   --queue-capacity N      per-tenant update queue capacity (default 64)
//   --shed-watermark N      queue depth at which updates are shed with a
//                           retry-after (default 48; 0 = capacity)
//   --retry-after-ms N      retry hint attached to shed responses
//
// SIGTERM/SIGINT (or the shutdown verb) drain gracefully: stop accepting,
// wake every connection, join all workers, stop every tenant (queue close →
// writer drains queued updates and background materialization), exit 0.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/serve.h"
#include "util/status.h"

namespace deepdive::serve {
namespace {

/// Async-signal flag: handlers only set it; the main thread polls.
volatile std::sig_atomic_t g_signal = 0;

void HandleSignal(int) { g_signal = 1; }

struct TenantSpec {
  std::string name;
  std::string program_path;
  std::vector<std::pair<std::string, std::string>> data;  // (relation, file)
};

struct ServeArgs {
  std::string listen = "127.0.0.1:0";
  std::string port_file;
  size_t conn_workers = 8;
  std::vector<TenantSpec> tenants;
  comm::TenantConfig config;
};

void Usage() {
  std::fprintf(stderr,
               "usage: deepdive_serve --listen HOST:PORT --tenant "
               "NAME=PROGRAM.ddl [--data NAME:REL=FILE.tsv] [options]\n");
}

using service::ParseCount;
using service::ReadFile;

StatusOr<ServeArgs> ParseArgs(int argc, char** argv) {
  ServeArgs args;
  for (int i = 1; i < argc; ++i) {
    DD_ASSIGN_OR_RETURN(const bool engine_flag,
                        service::ConsumeEngineFlag(argc, argv, &i, &args.config));
    if (engine_flag) continue;
    const std::string flag = argv[i];
    auto next = [&]() -> StatusOr<std::string> {
      if (i + 1 >= argc) return Status::InvalidArgument(flag + " needs a value");
      return std::string(argv[++i]);
    };
    if (flag == "--listen") {
      DD_ASSIGN_OR_RETURN(args.listen, next());
    } else if (flag == "--port-file") {
      DD_ASSIGN_OR_RETURN(args.port_file, next());
    } else if (flag == "--conn-workers") {
      DD_ASSIGN_OR_RETURN(std::string v, next());
      DD_ASSIGN_OR_RETURN(args.conn_workers, ParseCount(flag, v, 1, 1024));
    } else if (flag == "--tenant") {
      DD_ASSIGN_OR_RETURN(std::string v, next());
      const size_t eq = v.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= v.size()) {
        return Status::InvalidArgument("--tenant needs NAME=PROGRAM.ddl");
      }
      TenantSpec spec;
      spec.name = v.substr(0, eq);
      spec.program_path = v.substr(eq + 1);
      args.tenants.push_back(std::move(spec));
    } else if (flag == "--data") {
      DD_ASSIGN_OR_RETURN(std::string v, next());
      const size_t colon = v.find(':');
      const size_t eq = v.find('=', colon == std::string::npos ? 0 : colon);
      if (colon == std::string::npos || eq == std::string::npos ||
          colon == 0 || eq <= colon + 1 || eq + 1 >= v.size()) {
        return Status::InvalidArgument("--data needs NAME:REL=FILE.tsv");
      }
      const std::string name = v.substr(0, colon);
      TenantSpec* spec = nullptr;
      for (TenantSpec& t : args.tenants) {
        if (t.name == name) spec = &t;
      }
      if (spec == nullptr) {
        return Status::InvalidArgument("--data for unknown tenant '" + name +
                                       "' (declare --tenant first)");
      }
      spec->data.emplace_back(v.substr(colon + 1, eq - colon - 1),
                              v.substr(eq + 1));
    } else if (flag == "--queue-capacity") {
      DD_ASSIGN_OR_RETURN(std::string v, next());
      DD_ASSIGN_OR_RETURN(size_t n, ParseCount(flag, v, 1, 1000000));
      args.config.queue_capacity = static_cast<uint32_t>(n);
    } else if (flag == "--shed-watermark") {
      DD_ASSIGN_OR_RETURN(std::string v, next());
      DD_ASSIGN_OR_RETURN(size_t n, ParseCount(flag, v, 0, 1000000));
      args.config.shed_watermark = static_cast<uint32_t>(n);
    } else if (flag == "--retry-after-ms") {
      DD_ASSIGN_OR_RETURN(std::string v, next());
      DD_ASSIGN_OR_RETURN(size_t n, ParseCount(flag, v, 0, 3600000));
      args.config.retry_after_ms = static_cast<uint32_t>(n);
    } else {
      return Status::InvalidArgument("unknown flag '" + flag + "'");
    }
  }
  if (args.tenants.empty()) {
    return Status::InvalidArgument("at least one --tenant is required");
  }
  return args;
}

Status RunDaemon(const ServeArgs& args, std::sig_atomic_t* drain_flag) {
  service::TenantRegistry registry;
  handlers::Dispatcher dispatcher(&registry);
  dispatcher.SetShutdownCallback([drain_flag] { *drain_flag = 1; });

  // Startup tenants go through the same create_tenant handler a remote
  // client would use; the response blocks until each engine is initialized,
  // so the port file below doubles as an "everything ready" signal.
  for (const TenantSpec& spec : args.tenants) {
    comm::CreateTenantRequest create;
    create.name = spec.name;
    DD_ASSIGN_OR_RETURN(create.program, ReadFile(spec.program_path));
    create.config = args.config;
    for (const auto& [relation, file] : spec.data) {
      comm::DataPayload payload;
      payload.relation = relation;
      DD_ASSIGN_OR_RETURN(payload.tsv, ReadFile(file));
      create.data.push_back(std::move(payload));
    }
    comm::Request request;
    request.tenant = spec.name;
    request.body = std::move(create);
    const comm::Response response = dispatcher.Dispatch(request);
    if (!response.ok()) return response.ToStatus();
    const auto& info = std::get<comm::CreateTenantResult>(response.body);
    std::fprintf(stderr,
                 "tenant %s: ready at epoch %llu (%llu variables, %llu "
                 "factors)\n",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(info.epoch),
                 static_cast<unsigned long long>(info.num_variables),
                 static_cast<unsigned long long>(info.num_factors));
  }

  srv::ServerOptions options;
  options.listen_address = args.listen;
  options.connection_workers = args.conn_workers;
  srv::Server server(&dispatcher, options);
  DD_RETURN_IF_ERROR(server.Start());
  std::fprintf(stderr, "deepdive_serve: listening on %s (%zu tenants)\n",
               server.address().c_str(), args.tenants.size());

  if (!args.port_file.empty()) {
    std::ofstream out(args.port_file);
    if (!out) {
      return Status::Internal("cannot write port file '" + args.port_file +
                              "'");
    }
    out << server.address() << "\n";
  }

  while (g_signal == 0 && *drain_flag == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::fprintf(stderr, "deepdive_serve: draining...\n");
  server.Stop();
  registry.StopAll();
  std::fprintf(stderr, "deepdive_serve: drained, exiting\n");
  return Status::OK();
}

}  // namespace
}  // namespace deepdive::serve

int main(int argc, char** argv) {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = deepdive::serve::HandleSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  auto args = deepdive::serve::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    deepdive::serve::Usage();
    return 2;
  }
  static std::sig_atomic_t drain_flag = 0;
  const deepdive::Status status =
      deepdive::serve::RunDaemon(*args, &drain_flag);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
