// The unified runtime configuration surface (common/runtime_config.h):
// single-point environment parsing, the shared JSON serializer, and the
// RuntimeStats snapshot that folds pool/plan/guard/backend counters into one
// JSON object.
#include "common/runtime_config.h"

#include <cstdlib>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "common/jsonio.h"
#include "common/runtime_stats.h"
#include "tensor/backend.h"
#include "tensor/gemm.h"

namespace autocts {
namespace {

/// Sets an environment variable for the current scope and restores the
/// prior value on destruction, so FromEnv tests cannot leak state.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(RuntimeConfigTest, DefaultsWhenUnset) {
  unsetenv("AUTOCTS_NUM_THREADS");
  unsetenv("AUTOCTS_POOL_MB");
  unsetenv("AUTOCTS_BACKEND");
  unsetenv("AUTOCTS_COMPARATOR_PRECISION");
  RuntimeConfig cfg = RuntimeConfig::FromEnv();
  EXPECT_EQ(cfg.num_threads, 0);
  EXPECT_EQ(cfg.pool_capacity_bytes, uint64_t{256} << 20);
  EXPECT_TRUE(cfg.backend.empty());
  EXPECT_EQ(cfg.comparator_precision, ComparatorPrecision::kFp32);
}

TEST(RuntimeConfigTest, ParsesEveryKnob) {
  ScopedEnv threads("AUTOCTS_NUM_THREADS", "3");
  ScopedEnv pool("AUTOCTS_POOL_MB", "64");
  ScopedEnv backend("AUTOCTS_BACKEND", "scalar");
  ScopedEnv precision("AUTOCTS_COMPARATOR_PRECISION", "bf16");
  ScopedEnv verify("AUTOCTS_BANK_VERIFY", "1");
  RuntimeConfig cfg = RuntimeConfig::FromEnv();
  EXPECT_EQ(cfg.num_threads, 3);
  EXPECT_EQ(cfg.pool_capacity_bytes, uint64_t{64} << 20);
  EXPECT_EQ(cfg.backend, "scalar");
  EXPECT_EQ(cfg.comparator_precision, ComparatorPrecision::kBf16);
  EXPECT_TRUE(cfg.bank_verify_on_open);
}

TEST(RuntimeConfigTest, RetiredKnobsAreIgnored) {
  // The serving and shard knobs are per-command flags now, and int8
  // inference is gone: setting any of them must leave the parsed
  // configuration, and what print-config / GET /config show, untouched.
  for (const char* live :
       {"AUTOCTS_NUM_THREADS", "AUTOCTS_POOL_MB", "AUTOCTS_BACKEND",
        "AUTOCTS_COMPARATOR_PRECISION", "AUTOCTS_BANK_VERIFY"}) {
    unsetenv(live);
  }
  const std::string unset_json = RuntimeConfig::FromEnv().ToJson();
  ScopedEnv port("AUTOCTS_SERVE_PORT", "9191");
  ScopedEnv workers("AUTOCTS_SERVE_WORKERS", "4");
  ScopedEnv batch("AUTOCTS_SERVE_MAX_BATCH", "16");
  ScopedEnv delay("AUTOCTS_SERVE_MAX_DELAY_US", "1000");
  ScopedEnv cache("AUTOCTS_SERVE_EMBED_CACHE", "128");
  ScopedEnv shard_workers("AUTOCTS_SHARD_WORKERS", "4");
  ScopedEnv heartbeat("AUTOCTS_SHARD_HEARTBEAT_MS", "100");
  ScopedEnv steal("AUTOCTS_SHARD_STEAL_TIMEOUT_MS", "2500");
  ScopedEnv precision("AUTOCTS_COMPARATOR_PRECISION", "int8");
  const RuntimeConfig cfg = RuntimeConfig::FromEnv();
  const RuntimeConfig defaults;
  EXPECT_EQ(cfg.num_threads, defaults.num_threads);
  EXPECT_EQ(cfg.pool_capacity_bytes, defaults.pool_capacity_bytes);
  EXPECT_EQ(cfg.backend, defaults.backend);
  EXPECT_EQ(cfg.comparator_precision, ComparatorPrecision::kFp32);
  EXPECT_EQ(cfg.bank_verify_on_open, defaults.bank_verify_on_open);
  EXPECT_EQ(cfg.ToJson(), unset_json);
  EXPECT_EQ(cfg.ToJson(), defaults.ToJson());
}

TEST(RuntimeConfigTest, DisableFlagTruthinessMatchesHistoricalGetenv) {
  // Boolean knobs keep the historical getenv rule: unset, empty, or "0"
  // leaves the flag clear; anything else sets it.
  unsetenv("AUTOCTS_BANK_VERIFY");
  EXPECT_FALSE(RuntimeConfig::FromEnv().bank_verify_on_open);
  {
    ScopedEnv off("AUTOCTS_BANK_VERIFY", "0");
    EXPECT_FALSE(RuntimeConfig::FromEnv().bank_verify_on_open);
  }
  {
    ScopedEnv off("AUTOCTS_BANK_VERIFY", "");
    EXPECT_FALSE(RuntimeConfig::FromEnv().bank_verify_on_open);
  }
  {
    ScopedEnv on("AUTOCTS_BANK_VERIFY", "yes");
    EXPECT_TRUE(RuntimeConfig::FromEnv().bank_verify_on_open);
  }
}

TEST(RuntimeConfigTest, UnparseableValuesKeepDefaults) {
  ScopedEnv threads("AUTOCTS_NUM_THREADS", "-4");
  ScopedEnv precision("AUTOCTS_COMPARATOR_PRECISION", "fp8");
  RuntimeConfig cfg = RuntimeConfig::FromEnv();
  EXPECT_EQ(cfg.num_threads, 0);
  EXPECT_EQ(cfg.comparator_precision, ComparatorPrecision::kFp32);
}

TEST(RuntimeConfigTest, ToJsonListsEveryKnob) {
  RuntimeConfig cfg;
  cfg.backend = "avx2";
  cfg.comparator_precision = ComparatorPrecision::kBf16;
  const std::string json = cfg.ToJson();
  const char* const kFields[] = {
      "\"num_threads\": 0",
      "\"pool_capacity_bytes\": 268435456",
      "\"backend\": \"avx2\"",
      "\"comparator_precision\": \"bf16\"",
      "\"bank_verify_on_open\": false",
  };
  for (const char* field : kFields) {
    EXPECT_NE(json.find(field), std::string::npos) << field << " in " << json;
  }
  // Exactly these fields: one "key": separator per knob, none extra.
  size_t separators = 0;
  for (size_t pos = json.find("\": "); pos != std::string::npos;
       pos = json.find("\": ", pos + 1)) {
    ++separators;
  }
  EXPECT_EQ(separators, std::size(kFields)) << json;
  EXPECT_EQ(std::size(kFields), 5u);
}

TEST(RuntimeStatsTest, SnapshotFoldsBackendCounters) {
  // Drive one dispatched kernel so the backend family is live.
  const float a[4] = {1, 2, 3, 4};
  const float b[4] = {5, 6, 7, 8};
  float c[4] = {0, 0, 0, 0};
  GemmAcc(a, 2, false, b, 2, false, c, 2, 2, 2, 2);

  RuntimeStats stats = RuntimeStats::Snapshot();
  EXPECT_FALSE(stats.backend.active.empty());
  EXPECT_GT(stats.backend.gemm_small_calls + stats.backend.gemm_micro_calls,
            0u);
  const std::string json = stats.ToJson();
  for (const char* key :
       {"\"pool\"", "\"plan\"", "\"guard\"", "\"backend\"", "\"active\"",
        "\"hit_rate\"", "\"finite_checks\"", "\"shard\"", "\"shards_done\"",
        "\"shards_stolen\"", "\"worker_restarts\"", "\"bytes_in\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << json;
  }
}

TEST(JsonWriterTest, EscapesAndNests) {
  JsonWriter w;
  w.BeginObject();
  w.Field("name", std::string("a\"b\\c\n"));
  w.Key("inner");
  w.BeginObject();
  w.Field("x", 1.5);
  w.Field("flag", false);
  w.EndObject();
  w.Key("list");
  w.BeginArray();
  w.Value(int64_t{-3});
  w.Value(uint64_t{7});
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\": \"a\\\"b\\\\c\\n\", \"inner\": {\"x\": 1.5, "
            "\"flag\": false}, \"list\": [-3, 7]}");
}

}  // namespace
}  // namespace autocts
