#include "serve/service/flags.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace deepdive::serve::service {
namespace {

// The engine settings' bounds, shared by the flag parser and the wire check.
// Every pool starts its workers eagerly, so threads and replicas bound the
// threads one tenant may start; epochs bound the initial learn.
constexpr uint64_t kMinEpochs = 1;
constexpr uint64_t kMaxEpochs = 1000000;
constexpr uint64_t kMaxThreads = 4096;
constexpr uint64_t kMinReplicas = 1;
constexpr uint64_t kMaxReplicas = 256;
constexpr uint64_t kMaxSyncEvery = 1000000000;

Status CheckRange(const std::string& setting, uint64_t value, uint64_t min, uint64_t max) {
  if (value >= min && value <= max) return Status::OK();
  return Status::InvalidArgument(setting + " must be in [" + std::to_string(min) + ", " +
                                 std::to_string(max) + "], got " + std::to_string(value));
}

}  // namespace

StatusOr<uint64_t> ParseCount(const std::string& flag, const std::string& value,
                              uint64_t min, uint64_t max) {
  // strtoull skips whitespace, wraps a leading '-' and saturates past 2^64,
  // so the first character must be a digit and errno must stay clear.
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || !std::isdigit(static_cast<unsigned char>(value[0])) ||
      *end != '\0' || errno == ERANGE || parsed < min || parsed > max) {
    return Status::InvalidArgument(flag + " expects a number in [" + std::to_string(min) +
                                   ", " + std::to_string(max) + "], got '" + value + "'");
  }
  return static_cast<uint64_t>(parsed);
}

StatusOr<double> ParseProbability(const std::string& flag, const std::string& value) {
  // strtod skips leading whitespace and stops at the first character it
  // cannot use; the whole value must parse, and nan fails both bounds.
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || std::isspace(static_cast<unsigned char>(value[0])) ||
      *end != '\0' || !(parsed >= 0.0 && parsed <= 1.0)) {
    return Status::InvalidArgument(flag + " expects a probability in [0, 1], got '" +
                                   value + "'");
  }
  return parsed;
}

StatusOr<bool> ConsumeEngineFlag(int argc, const char* const* argv, int* i,
                                 comm::TenantConfig* config) {
  const std::string flag = argv[*i];
  const auto value = [&]() -> StatusOr<std::string> {
    if (*i + 1 >= argc) return Status::InvalidArgument(flag + " needs a value");
    return std::string(argv[++*i]);
  };
  const auto count = [&](uint64_t min, uint64_t max) -> StatusOr<uint64_t> {
    DD_ASSIGN_OR_RETURN(const std::string v, value());
    return ParseCount(flag, v, min, max);
  };
  if (flag == "--seed") {
    DD_ASSIGN_OR_RETURN(config->seed, count(0, std::numeric_limits<uint64_t>::max()));
  } else if (flag == "--epochs") {
    DD_ASSIGN_OR_RETURN(const uint64_t n, count(kMinEpochs, kMaxEpochs));
    config->epochs = static_cast<uint32_t>(n);
  } else if (flag == "--threads") {
    DD_ASSIGN_OR_RETURN(const uint64_t n, count(0, kMaxThreads));
    config->threads = static_cast<uint32_t>(n);
  } else if (flag == "--replicas") {
    DD_ASSIGN_OR_RETURN(const uint64_t n, count(kMinReplicas, kMaxReplicas));
    config->replicas = static_cast<uint32_t>(n);
  } else if (flag == "--sync-every") {
    DD_ASSIGN_OR_RETURN(const uint64_t n, count(0, kMaxSyncEvery));
    config->sync_every = static_cast<uint32_t>(n);
  } else if (flag == "--mode") {
    DD_ASSIGN_OR_RETURN(const std::string v, value());
    if (v != "incremental" && v != "rerun") {
      return Status::InvalidArgument("--mode expects incremental or rerun, got '" + v + "'");
    }
    config->rerun_mode = v == "rerun";
  } else if (flag == "--async-materialize") {
    config->async_materialize = true;
  } else {
    return false;
  }
  return true;
}

Status ValidateTenantConfig(const comm::TenantConfig& config) {
  DD_RETURN_IF_ERROR(CheckRange("epochs", config.epochs, kMinEpochs, kMaxEpochs));
  DD_RETURN_IF_ERROR(CheckRange("threads", config.threads, 0, kMaxThreads));
  DD_RETURN_IF_ERROR(CheckRange("replicas", config.replicas, kMinReplicas, kMaxReplicas));
  return CheckRange("sync_every", config.sync_every, 0, kMaxSyncEvery);
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace deepdive::serve::service
