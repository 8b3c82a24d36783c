#ifndef DEEPDIVE_SERVE_SERVE_H_
#define DEEPDIVE_SERVE_SERVE_H_

/// Umbrella header for the layered serving stack:
///
///   serve/comm     — transport: framing, codec, client (no engine types)
///   serve/handlers — verb dispatch onto typed requests (no engine access)
///   serve/service  — TenantRegistry / TenantInstance: per-tenant writer
///                    threads, bounded update queues, admission control
///   serve/srv      — the daemon's accept loop and connection workers
///
/// Embedding hosts (tools/deepdive_serve.cc, deepdive_cli's in-process run
/// path) include this; everything else should include the single tier it
/// talks to.

#include "serve/comm/client.h"
#include "serve/comm/frame.h"
#include "serve/comm/messages.h"
#include "serve/comm/wire.h"
#include "serve/handlers/handlers.h"
#include "serve/service/flags.h"
#include "serve/service/registry.h"
#include "serve/service/tenant.h"
#include "serve/srv/server.h"

#endif  // DEEPDIVE_SERVE_SERVE_H_
