#ifndef REPRO_COMMON_RUNTIME_CONFIG_H_
#define REPRO_COMMON_RUNTIME_CONFIG_H_

#include <cstdint>
#include <string>

namespace autocts {

/// Numeric precision of comparator *inference* (CompareLogits during
/// zero-shot ranking). Training and forecaster evaluation always run fp32;
/// pairwise ranking tolerates reduced precision as long as rank agreement
/// holds (validated by comparator_quant_test and the ablation bench).
enum class ComparatorPrecision {
  kFp32 = 0,  ///< The tensor-graph fp32 path (default).
  kBf16,      ///< Weights rounded to bfloat16, fp32 accumulation.
  kInt8,      ///< Per-channel int8 weights, dynamic per-row activations,
              ///< int32 accumulation.
};

const char* ComparatorPrecisionName(ComparatorPrecision p);

/// The process runtime configuration: every AUTOCTS_* knob, parsed from the
/// environment exactly once (see FromEnv) instead of ad-hoc getenv calls
/// sprinkled through the subsystems. Subsystems seed their live toggles from
/// GlobalRuntimeConfig() on first use; the in-process setters
/// (kernels::SetActiveBackend, SetSampleBankVerifyOnOpen, ...) still
/// override afterwards — the struct is the startup snapshot and the single
/// parse point, not a live registry.
///
/// ExecContext carries an optional pointer to one of these so pipeline code
/// can thread a non-global configuration (tests, multi-tenant servers)
/// through the same plumbing as pools and seeds.
struct RuntimeConfig {
  /// AUTOCTS_NUM_THREADS: size of the process-default thread pool
  /// (0 = hardware concurrency).
  int num_threads = 0;
  /// AUTOCTS_POOL_MB: buffer-pool capacity cap in bytes (default 256 MiB).
  uint64_t pool_capacity_bytes = uint64_t{256} << 20;
  /// AUTOCTS_BACKEND: SIMD kernel backend ("" = auto-detect per CPU;
  /// "scalar", "avx2", "avx512", "neon" force one, and forcing an
  /// unavailable backend falls back to the best available with a warning).
  std::string backend;
  /// AUTOCTS_COMPARATOR_PRECISION: "fp32" (default), "bf16", or "int8".
  ComparatorPrecision comparator_precision = ComparatorPrecision::kFp32;
  /// AUTOCTS_SERVE_PORT: TCP port of `autocts_cli serve` (0 = ephemeral).
  int serve_port = 8080;
  /// AUTOCTS_SERVE_WORKERS: serving worker threads (0 = one per core, capped
  /// at 8 — serving workers run kernels inline, so more rarely helps).
  int serve_workers = 2;
  /// AUTOCTS_SERVE_MAX_BATCH: requests coalesced into one micro-batch.
  int serve_max_batch = 8;
  /// AUTOCTS_SERVE_MAX_DELAY_US: straggler wait after the first request of a
  /// micro-batch.
  int serve_max_delay_us = 200;
  /// AUTOCTS_SERVE_EMBED_CACHE: resident task embeddings (0 disables).
  int serve_embed_cache_entries = 64;
  /// AUTOCTS_BANK_VERIFY=1 CRC-verifies every section payload when a bank
  /// is opened (default: sections verify on scrub only, keeping open cost
  /// independent of bank size).
  bool bank_verify_on_open = false;
  /// AUTOCTS_SHARD_WORKERS: worker processes for sharded sample collection
  /// (0 or 1 = collect in-process, no coordinator; the CLI --workers flag
  /// overrides).
  int shard_workers = 0;
  /// AUTOCTS_SHARD_HEARTBEAT_MS: how often an idle-but-training worker is
  /// expected to report progress to the coordinator.
  int shard_heartbeat_ms = 250;
  /// AUTOCTS_SHARD_STEAL_TIMEOUT_MS: silence on a worker's channel after
  /// which its in-flight shard becomes stealable by an idle worker.
  int shard_steal_timeout_ms = 10000;

  /// Parses every knob from the environment. Unparseable values keep their
  /// defaults (matching the historical per-site getenv behaviour).
  static RuntimeConfig FromEnv();

  /// One-line-per-knob JSON object (shared serializer, see common/jsonio.h).
  std::string ToJson() const;
};

/// The configuration this process started with: FromEnv(), parsed once on
/// first call. This is the single environment entry point — subsystem code
/// must consult this (or the ExecContext-carried override) instead of
/// calling getenv.
const RuntimeConfig& GlobalRuntimeConfig();

}  // namespace autocts

#endif  // REPRO_COMMON_RUNTIME_CONFIG_H_
