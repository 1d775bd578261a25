#ifndef REPRO_COMMON_RUNTIME_STATS_H_
#define REPRO_COMMON_RUNTIME_STATS_H_

#include <cstdint>
#include <string>

#include "common/guard.h"
#include "common/parallel.h"

namespace autocts {

/// Counters of the runtime-dispatched kernel backend layer (see
/// tensor/backend.h). `active` names the backend serving dispatched kernels
/// at snapshot time; the call counters are process-wide totals across all
/// backends that ran (switching backends does not reset them).
struct BackendStats {
  std::string active;             ///< "scalar", "avx2", "avx512", "neon".
  uint64_t gemm_micro_calls = 0;  ///< Blocked-GEMM dispatches (micro path).
  uint64_t gemm_small_calls = 0;  ///< Small-problem GEMM dispatches.
  /// Always 0: int8 inference is gone; bench/e2e still reads the field.
  uint64_t qgemm_s8_calls = 0;
  uint64_t qgemm_bf16_calls = 0;  ///< bf16-weight GEMM dispatches.
};

/// Hook tensor/backend.cc installs so RuntimeStats::Snapshot() works
/// without a common -> tensor dependency (same pattern as the pool and plan
/// providers in common/parallel.h).
using BackendStatsProvider = BackendStats (*)();
void RegisterBackendStatsProvider(BackendStatsProvider provider);

/// Counters of the recommendation serving layer (src/serve). All zeros when
/// no RecommendationService is live in the process.
struct ServeStats {
  uint64_t requests = 0;          ///< Requests admitted to the queue.
  uint64_t rejected = 0;          ///< TrySubmit refusals (queue full/stopping).
  uint64_t batches = 0;           ///< Micro-batches processed by workers.
  uint64_t batched_requests = 0;  ///< Requests served through those batches.
  uint64_t queue_highwater = 0;   ///< Deepest queue observed since Start().
  uint64_t embed_hits = 0;        ///< Task-embedding cache hits.
  uint64_t embed_misses = 0;      ///< Task-embedding cache misses.
  uint64_t embed_entries = 0;     ///< Resident task embeddings right now.
  uint64_t embed_evictions = 0;   ///< Embeddings dropped by LRU capacity.
  uint64_t duel_rows = 0;           ///< Comparator duels requested (pre-dedup).
  uint64_t duel_rows_evaluated = 0; ///< Duel rows actually run (post-dedup).
  uint64_t models_trained = 0;    ///< Forecast models trained on demand.
  uint64_t forecasts = 0;         ///< Forecasts served (trained or cached).
  uint64_t stream_sessions = 0;   ///< Stream sessions opened since Start().
  uint64_t stream_ticks = 0;      ///< Observations pushed across sessions.
  uint64_t stream_drifts = 0;     ///< Drift-detector triggers.
  uint64_t stream_swaps = 0;      ///< Model hot-swaps installed.
  uint64_t stream_research_failures = 0;  ///< Re-search attempts that failed.
  uint64_t stream_swap_stalls = 0;        ///< Ready models discarded as stale.

  /// Requests coalesced per micro-batch, on average.
  double mean_batch_size() const {
    return batches == 0 ? 0.0 : static_cast<double>(batched_requests) /
                                    static_cast<double>(batches);
  }
  /// Fraction of embedding lookups served from the cache.
  double embed_hit_rate() const {
    const uint64_t total = embed_hits + embed_misses;
    return total == 0 ? 0.0 : static_cast<double>(embed_hits) /
                                  static_cast<double>(total);
  }
};

/// Hook serve/service.cc installs so RuntimeStats::Snapshot() works without
/// a common -> serve dependency (the live RecommendationService registers
/// itself; the last one started wins).
using ServeStatsProvider = ServeStats (*)();
void RegisterServeStatsProvider(ServeStatsProvider provider);

/// Counters of the sharded-collection coordinator (src/shard). All zeros
/// when no sharded run has happened in the process; totals accumulate
/// across runs. Only the coordinator process ever has nonzero values —
/// worker processes die before anyone snapshots them.
struct ShardStats {
  uint64_t runs = 0;              ///< Sharded collection runs coordinated.
  uint64_t shards_total = 0;      ///< Shards across all runs (= tasks).
  uint64_t shards_done = 0;       ///< Shards complete (live workers + resumed).
  uint64_t shards_resumed = 0;    ///< Of shards_done: already on disk at start.
  uint64_t shards_stolen = 0;     ///< Reassignments from slow/live workers.
  uint64_t shards_reclaimed = 0;  ///< Reassignments from dead workers.
  uint64_t worker_restarts = 0;   ///< Replacement workers forked after deaths.
  uint64_t heartbeats = 0;        ///< Progress frames received.
  uint64_t corrupt_frames = 0;    ///< Frames dropped for CRC/framing errors.
  uint64_t bytes_in = 0;          ///< Socket bytes received by the coordinator.
  uint64_t bytes_out = 0;         ///< Socket bytes sent by the coordinator.
};

/// Hook shard/shard.cc installs so RuntimeStats::Snapshot() works without a
/// common -> shard dependency (same pattern as the backend provider).
using ShardStatsProvider = ShardStats (*)();
void RegisterShardStatsProvider(ShardStatsProvider provider);

/// One unified snapshot of every process-wide runtime counter family:
/// buffer pool, step plans, guardrails, and the kernel-backend dispatch
/// layer. This is THE stats surface — benches, stats dumps, and the CLI all
/// serialize this struct through its single JSON serializer instead of
/// hand-formatting their own field subsets.
struct RuntimeStats {
  PoolStats pool;
  PlanStats plan;
  GuardStats guard;
  BackendStats backend;
  ServeStats serve;
  ShardStats shard;

  /// Gathers all six counter families (families whose subsystem is not
  /// linked in stay at their zero defaults).
  static RuntimeStats Snapshot();

  /// Nested JSON object: {"pool": {...}, "plan": {...}, "guard": {...},
  /// "backend": {...}, "serve": {...}, "shard": {...}} via the shared
  /// JsonWriter.
  std::string ToJson() const;
};

}  // namespace autocts

#endif  // REPRO_COMMON_RUNTIME_STATS_H_
