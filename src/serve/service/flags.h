#ifndef DEEPDIVE_SERVE_SERVICE_FLAGS_H_
#define DEEPDIVE_SERVE_SERVICE_FLAGS_H_

#include <cstdint>
#include <string>

#include "serve/comm/messages.h"
#include "util/status.h"

namespace deepdive::serve::service {

/// Parses a decimal count in [min, max]. An empty value, a sign, leading
/// whitespace, trailing characters, and anything above max (values past
/// 2^64 included) are InvalidArgument, naming `flag`.
StatusOr<uint64_t> ParseCount(const std::string& flag, const std::string& value,
                              uint64_t min, uint64_t max);

/// Parses a probability: the whole value must be a finite decimal in
/// [0, 1]. An empty value, trailing characters, nan, infinities and values
/// outside the range are InvalidArgument, naming `flag`.
StatusOr<double> ParseProbability(const std::string& flag, const std::string& value);

/// The one parser of a tenant's engine settings, shared by deepdive_cli
/// (run, load-graph, client create-tenant) and deepdive_serve. When
/// argv[*i] is --seed N, --epochs N (1 to 10^6), --mode incremental|rerun,
/// --threads N (0 to 4096; 0 = hardware threads), --replicas R (1 to 256),
/// --sync-every N (0 to 10^9) or --async-materialize, it stores the value in
/// `config`, leaves *i on the flag's last argument and returns true. Any
/// other argument returns false and consumes nothing. A missing or malformed
/// value is InvalidArgument.
StatusOr<bool> ConsumeEngineFlag(int argc, const char* const* argv, int* i,
                                 comm::TenantConfig* config);

/// Checks a tenant's engine settings against the bounds ConsumeEngineFlag
/// enforces: epochs 1 to 10^6, threads 0 to 4096, replicas 1 to 256 and
/// sync-every 0 to 10^9. A create_tenant from the wire skips the flag
/// parser, so the registry calls this before any tenant thread starts. An
/// out-of-range value is InvalidArgument, naming the setting.
Status ValidateTenantConfig(const comm::TenantConfig& config);

/// Reads a whole file named on the command line (a program, TSV rows).
StatusOr<std::string> ReadFile(const std::string& path);

}  // namespace deepdive::serve::service

#endif  // DEEPDIVE_SERVE_SERVICE_FLAGS_H_
