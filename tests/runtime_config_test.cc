// The unified runtime configuration surface (common/runtime_config.h):
// single-point environment parsing, the shared JSON serializer, the
// ExecContext configuration carry, and the RuntimeStats snapshot that folds
// pool/plan/guard/backend counters into one JSON object.
#include "common/runtime_config.h"

#include <cstdlib>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "common/jsonio.h"
#include "common/parallel.h"
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
  ScopedEnv precision("AUTOCTS_COMPARATOR_PRECISION", "int8");
  RuntimeConfig cfg = RuntimeConfig::FromEnv();
  EXPECT_EQ(cfg.num_threads, 3);
  EXPECT_EQ(cfg.pool_capacity_bytes, uint64_t{64} << 20);
  EXPECT_EQ(cfg.backend, "scalar");
  EXPECT_EQ(cfg.comparator_precision, ComparatorPrecision::kInt8);
}

TEST(RuntimeConfigTest, ParsesServeKnobs) {
  {
    unsetenv("AUTOCTS_SERVE_PORT");
    unsetenv("AUTOCTS_SERVE_WORKERS");
    unsetenv("AUTOCTS_SERVE_MAX_BATCH");
    unsetenv("AUTOCTS_SERVE_MAX_DELAY_US");
    unsetenv("AUTOCTS_SERVE_EMBED_CACHE");
    RuntimeConfig cfg = RuntimeConfig::FromEnv();
    EXPECT_EQ(cfg.serve_port, 8080);
    EXPECT_EQ(cfg.serve_workers, 2);
    EXPECT_EQ(cfg.serve_max_batch, 8);
    EXPECT_EQ(cfg.serve_max_delay_us, 200);
    EXPECT_EQ(cfg.serve_embed_cache_entries, 64u);
  }
  {
    ScopedEnv port("AUTOCTS_SERVE_PORT", "9191");
    ScopedEnv workers("AUTOCTS_SERVE_WORKERS", "4");
    ScopedEnv batch("AUTOCTS_SERVE_MAX_BATCH", "16");
    ScopedEnv delay("AUTOCTS_SERVE_MAX_DELAY_US", "1000");
    ScopedEnv cache("AUTOCTS_SERVE_EMBED_CACHE", "128");
    RuntimeConfig cfg = RuntimeConfig::FromEnv();
    EXPECT_EQ(cfg.serve_port, 9191);
    EXPECT_EQ(cfg.serve_workers, 4);
    EXPECT_EQ(cfg.serve_max_batch, 16);
    EXPECT_EQ(cfg.serve_max_delay_us, 1000);
    EXPECT_EQ(cfg.serve_embed_cache_entries, 128u);
  }
  {
    // Out-of-range or unparseable values keep defaults (port is 16-bit,
    // max_batch must be positive, the others non-negative).
    ScopedEnv port("AUTOCTS_SERVE_PORT", "70000");
    ScopedEnv workers("AUTOCTS_SERVE_WORKERS", "-1");
    ScopedEnv batch("AUTOCTS_SERVE_MAX_BATCH", "0");
    ScopedEnv delay("AUTOCTS_SERVE_MAX_DELAY_US", "-5");
    ScopedEnv cache("AUTOCTS_SERVE_EMBED_CACHE", "lots");
    RuntimeConfig cfg = RuntimeConfig::FromEnv();
    EXPECT_EQ(cfg.serve_port, 8080);
    EXPECT_EQ(cfg.serve_workers, 2);
    EXPECT_EQ(cfg.serve_max_batch, 8);
    EXPECT_EQ(cfg.serve_max_delay_us, 200);
    EXPECT_EQ(cfg.serve_embed_cache_entries, 64u);
  }
  // print-config surfaces the serving knobs through the shared serializer.
  RuntimeConfig cfg;
  const std::string json = cfg.ToJson();
  EXPECT_NE(json.find("\"serve_port\": 8080"), std::string::npos) << json;
  EXPECT_NE(json.find("\"serve_max_batch\": 8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"serve_embed_cache_entries\": 64"), std::string::npos)
      << json;
}

TEST(RuntimeConfigTest, ParsesShardKnobs) {
  {
    unsetenv("AUTOCTS_SHARD_WORKERS");
    unsetenv("AUTOCTS_SHARD_HEARTBEAT_MS");
    unsetenv("AUTOCTS_SHARD_STEAL_TIMEOUT_MS");
    RuntimeConfig cfg = RuntimeConfig::FromEnv();
    EXPECT_EQ(cfg.shard_workers, 0);
    EXPECT_EQ(cfg.shard_heartbeat_ms, 250);
    EXPECT_EQ(cfg.shard_steal_timeout_ms, 10000);
  }
  {
    ScopedEnv workers("AUTOCTS_SHARD_WORKERS", "4");
    ScopedEnv heartbeat("AUTOCTS_SHARD_HEARTBEAT_MS", "100");
    ScopedEnv steal("AUTOCTS_SHARD_STEAL_TIMEOUT_MS", "2500");
    RuntimeConfig cfg = RuntimeConfig::FromEnv();
    EXPECT_EQ(cfg.shard_workers, 4);
    EXPECT_EQ(cfg.shard_heartbeat_ms, 100);
    EXPECT_EQ(cfg.shard_steal_timeout_ms, 2500);
  }
  {
    // Workers = 0 is meaningful (in-process collection); negative or
    // unparseable values keep defaults, and the interval knobs must be
    // positive.
    ScopedEnv workers("AUTOCTS_SHARD_WORKERS", "0");
    ScopedEnv heartbeat("AUTOCTS_SHARD_HEARTBEAT_MS", "0");
    ScopedEnv steal("AUTOCTS_SHARD_STEAL_TIMEOUT_MS", "plenty");
    RuntimeConfig cfg = RuntimeConfig::FromEnv();
    EXPECT_EQ(cfg.shard_workers, 0);
    EXPECT_EQ(cfg.shard_heartbeat_ms, 250);
    EXPECT_EQ(cfg.shard_steal_timeout_ms, 10000);
  }
  {
    ScopedEnv workers("AUTOCTS_SHARD_WORKERS", "-2");
    RuntimeConfig cfg = RuntimeConfig::FromEnv();
    EXPECT_EQ(cfg.shard_workers, 0);
  }
  // print-config surfaces the shard knobs.
  RuntimeConfig cfg;
  const std::string json = cfg.ToJson();
  EXPECT_NE(json.find("\"shard_workers\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shard_heartbeat_ms\": 250"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"shard_steal_timeout_ms\": 10000"), std::string::npos)
      << json;
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
      "\"serve_port\": 8080",
      "\"serve_workers\": 2",
      "\"serve_max_batch\": 8",
      "\"serve_max_delay_us\": 200",
      "\"serve_embed_cache_entries\": 64",
      "\"bank_verify_on_open\": false",
      "\"shard_workers\": 0",
      "\"shard_heartbeat_ms\": 250",
      "\"shard_steal_timeout_ms\": 10000",
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
}

TEST(RuntimeConfigTest, ExecContextCarriesOverride) {
  RuntimeConfig cfg;
  cfg.comparator_precision = ComparatorPrecision::kInt8;
  cfg.backend = "scalar";
  ExecContext ctx;
  EXPECT_EQ(&ctx.effective_config(), &GlobalRuntimeConfig());
  ctx.config = &cfg;
  EXPECT_EQ(ctx.effective_config().comparator_precision,
            ComparatorPrecision::kInt8);
  EXPECT_EQ(ctx.effective_config().backend, "scalar");
  // WithSeed must preserve the override like every other context field.
  EXPECT_EQ(ctx.WithSeed(9).effective_config().backend, "scalar");
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
