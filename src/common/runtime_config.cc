#include "common/runtime_config.h"

#include <cstdlib>
#include <cstring>

#include "common/jsonio.h"

namespace autocts {
namespace {

/// The truthiness of boolean knobs: unset, empty, or "0" means "not set".
bool FlagSet(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

}  // namespace

const char* ComparatorPrecisionName(ComparatorPrecision p) {
  switch (p) {
    case ComparatorPrecision::kFp32: return "fp32";
    case ComparatorPrecision::kBf16: return "bf16";
    case ComparatorPrecision::kInt8: return "int8";
  }
  return "fp32";
}

RuntimeConfig RuntimeConfig::FromEnv() {
  RuntimeConfig cfg;
  if (const char* env = std::getenv("AUTOCTS_NUM_THREADS")) {
    int n = std::atoi(env);
    if (n > 0) cfg.num_threads = n;
  }
  if (const char* env = std::getenv("AUTOCTS_POOL_MB")) {
    long mb = std::atol(env);
    if (mb >= 0) cfg.pool_capacity_bytes = static_cast<uint64_t>(mb) << 20;
  }
  if (const char* env = std::getenv("AUTOCTS_BACKEND")) {
    cfg.backend = env;
  }
  if (const char* env = std::getenv("AUTOCTS_COMPARATOR_PRECISION")) {
    if (std::strcmp(env, "bf16") == 0) {
      cfg.comparator_precision = ComparatorPrecision::kBf16;
    } else if (std::strcmp(env, "int8") == 0) {
      cfg.comparator_precision = ComparatorPrecision::kInt8;
    }
    // Anything else (incl. "fp32") keeps the fp32 default.
  }
  if (const char* env = std::getenv("AUTOCTS_SERVE_PORT")) {
    int n = std::atoi(env);
    if (n >= 0 && n <= 65535) cfg.serve_port = n;
  }
  if (const char* env = std::getenv("AUTOCTS_SERVE_WORKERS")) {
    int n = std::atoi(env);
    if (n >= 0) cfg.serve_workers = n;
  }
  if (const char* env = std::getenv("AUTOCTS_SERVE_MAX_BATCH")) {
    int n = std::atoi(env);
    if (n > 0) cfg.serve_max_batch = n;
  }
  if (const char* env = std::getenv("AUTOCTS_SERVE_MAX_DELAY_US")) {
    int n = std::atoi(env);
    if (n >= 0) cfg.serve_max_delay_us = n;
  }
  cfg.bank_verify_on_open = FlagSet("AUTOCTS_BANK_VERIFY");
  if (const char* env = std::getenv("AUTOCTS_SHARD_WORKERS")) {
    // 0 legitimately means "no sharding", so unparseable input must be told
    // apart from a parsed zero.
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && n >= 0) cfg.shard_workers = static_cast<int>(n);
  }
  if (const char* env = std::getenv("AUTOCTS_SHARD_HEARTBEAT_MS")) {
    int n = std::atoi(env);
    if (n > 0) cfg.shard_heartbeat_ms = n;
  }
  if (const char* env = std::getenv("AUTOCTS_SHARD_STEAL_TIMEOUT_MS")) {
    int n = std::atoi(env);
    if (n > 0) cfg.shard_steal_timeout_ms = n;
  }
  if (const char* env = std::getenv("AUTOCTS_SERVE_EMBED_CACHE")) {
    // 0 legitimately disables caching, so unparseable input must be told
    // apart from a parsed zero.
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && n >= 0) {
      cfg.serve_embed_cache_entries = static_cast<size_t>(n);
    }
  }
  return cfg;
}

std::string RuntimeConfig::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Field("num_threads", num_threads);
  w.Field("pool_capacity_bytes", pool_capacity_bytes);
  w.Field("backend", backend.empty() ? "auto" : backend);
  w.Field("comparator_precision",
          ComparatorPrecisionName(comparator_precision));
  w.Field("serve_port", serve_port);
  w.Field("serve_workers", serve_workers);
  w.Field("serve_max_batch", serve_max_batch);
  w.Field("serve_max_delay_us", serve_max_delay_us);
  w.Field("serve_embed_cache_entries", serve_embed_cache_entries);
  w.Field("bank_verify_on_open", bank_verify_on_open);
  w.Field("shard_workers", shard_workers);
  w.Field("shard_heartbeat_ms", shard_heartbeat_ms);
  w.Field("shard_steal_timeout_ms", shard_steal_timeout_ms);
  w.EndObject();
  return w.str();
}

const RuntimeConfig& GlobalRuntimeConfig() {
  // Parsed exactly once, on first use; leaked so late static destructors
  // can still read it.
  static const RuntimeConfig* config = new RuntimeConfig(RuntimeConfig::FromEnv());
  return *config;
}

}  // namespace autocts
