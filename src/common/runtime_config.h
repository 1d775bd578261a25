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
};

const char* ComparatorPrecisionName(ComparatorPrecision p);

/// The process runtime configuration: every AUTOCTS_* knob, parsed from the
/// environment exactly once (see FromEnv) instead of ad-hoc getenv calls
/// sprinkled through the subsystems. Subsystems seed their live toggles from
/// GlobalRuntimeConfig() on first use; the in-process setters
/// (kernels::SetActiveBackend, SetSampleBankVerifyOnOpen, ...) still
/// override afterwards — the struct is the startup snapshot and the single
/// parse point, not a live registry. Only process-wide settings live here;
/// per-command settings (serving port, workers, batching; shard workers)
/// are flags and option structs with their own defaults.
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
  /// AUTOCTS_COMPARATOR_PRECISION: "fp32" (default) or "bf16".
  ComparatorPrecision comparator_precision = ComparatorPrecision::kFp32;
  /// AUTOCTS_BANK_VERIFY=1 CRC-verifies every section payload when a bank
  /// is opened (default: sections verify on scrub only, keeping open cost
  /// independent of bank size).
  bool bank_verify_on_open = false;

  /// Parses every knob from the environment. Unparseable values keep their
  /// defaults (matching the historical per-site getenv behaviour).
  static RuntimeConfig FromEnv();

  /// One-line-per-knob JSON object (shared serializer, see common/jsonio.h).
  std::string ToJson() const;
};

/// The configuration this process started with: FromEnv(), parsed once on
/// first call. This is the single environment entry point — subsystem code
/// must consult this instead of calling getenv.
const RuntimeConfig& GlobalRuntimeConfig();

}  // namespace autocts

#endif  // REPRO_COMMON_RUNTIME_CONFIG_H_
