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
    }
    // Anything else (incl. "fp32" and the retired "int8") keeps fp32.
  }
  cfg.bank_verify_on_open = FlagSet("AUTOCTS_BANK_VERIFY");
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
  w.Field("bank_verify_on_open", bank_verify_on_open);
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
