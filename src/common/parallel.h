#ifndef REPRO_COMMON_PARALLEL_H_
#define REPRO_COMMON_PARALLEL_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace autocts {

/// A fixed-size pool of worker threads for data-parallel kernels.
///
/// The pool only runs bulk jobs (see ParallelFor): there is no general task
/// queue, which keeps the synchronization cheap enough for tensor-op-sized
/// work items. A pool of size 1 never spawns a thread and runs everything
/// inline on the caller, so `num_threads = 1` is byte-identical to the
/// pre-threading serial implementation.
class ThreadPool {
 public:
  /// `num_threads <= 0` means std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (workers + the calling thread).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs `fn(chunk)` for every chunk in [0, num_chunks) across the workers
  /// and the calling thread; returns when all chunks finished. Chunks are
  /// claimed dynamically but the mapping chunk -> work must not depend on
  /// which thread runs it (determinism contract). If any chunk throws, the
  /// first exception (in chunk order) is rethrown on the caller after all
  /// chunks drained.
  void RunChunks(int num_chunks, const std::function<void(int)>& fn);

 private:
  struct Job;

  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable wake_;
  Job* job_ = nullptr;   // Current bulk job; null when idle.
  bool shutdown_ = false;
};

/// True while the current thread is executing a ParallelFor chunk. Nested
/// ParallelFor calls observe this and run inline (no worker re-entry, no
/// deadlock).
bool InParallelRegion();

/// The process-wide default pool, sized to hardware concurrency on first
/// use (override with SetDefaultPoolThreads before first use or any time
/// after; recreating the pool is cheap relative to any workload).
ThreadPool* DefaultPool();

/// Resizes the default pool. `num_threads <= 0` restores hardware
/// concurrency. Not thread-safe against concurrent ParallelFor calls on the
/// default pool.
void SetDefaultPoolThreads(int num_threads);

/// The pool ParallelFor uses on this thread: the ExecScope-installed pool
/// if one is active, the default pool otherwise.
ThreadPool* CurrentPool();

/// Runs `fn(begin, end)` over a deterministic contiguous partition of
/// [begin, end). Guarantees:
///   - every index is covered exactly once;
///   - partition boundaries depend only on (range, grain, lane count), never
///     on scheduling, so any per-chunk accumulation order is reproducible;
///   - ranges of at most `grain` elements, nested calls, and 1-lane pools
///     run inline on the caller — the serial path is the parallel path with
///     one chunk, so results are independent of thread count whenever each
///     output element is produced by exactly one index;
///   - exceptions thrown by `fn` propagate to the caller.
/// `grain` is the minimum number of indices worth shipping to a worker.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

/// Minimum work (in touched scalars) per ParallelFor chunk; below this the
/// dispatch overhead beats the win and loops should run inline.
constexpr int64_t kParallelGrainWork = 1 << 14;

/// Grain (in outer-loop iterations) for loops whose body touches
/// `work_per_item` scalars per iteration.
inline int64_t GrainFor(int64_t work_per_item) {
  return std::max<int64_t>(
      1, kParallelGrainWork / std::max<int64_t>(1, work_per_item));
}

/// True when a ParallelFor over `items` would actually fan out. Kernels with
/// a cheaper fused serial variant use this to pick between the two paths
/// (both variants accumulate each element in the same order, so the choice
/// never changes results — see DESIGN.md "Threading model & determinism").
inline bool WillParallelize(int64_t items, int64_t work_per_item) {
  return !InParallelRegion() && items > GrainFor(work_per_item) &&
         CurrentPool()->num_threads() > 1;
}

/// `n` seeds drawn sequentially from `rng` — the deterministic fan-out used
/// to give every parallel work item its own RNG stream: seeds depend only
/// on the parent stream, never on thread count or scheduling.
std::vector<uint64_t> ForkSeeds(Rng* rng, int n);

/// Counters of the tensor-layer buffer pool (see tensor/buffer_pool.h).
/// Observable from any ExecContext so pipeline code and benches can track
/// allocator pressure without depending on the tensor layer.
struct PoolStats {
  uint64_t hits = 0;      ///< Acquires served from the free-list.
  uint64_t misses = 0;    ///< Acquires that had to allocate.
  uint64_t releases = 0;  ///< Buffers parked for reuse.
  uint64_t dropped = 0;   ///< Releases freed (over capacity / too small).
  uint64_t bypassed = 0;  ///< Acquires below the minimum pooled size.
  uint64_t bytes_pooled = 0;  ///< Bytes currently held by the free-list.

  /// Fraction of pooled acquires served without allocating.
  double hit_rate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
  /// Heap allocations attributable to tensor buffers.
  uint64_t allocations() const { return misses + bypassed; }
};

/// Hook the tensor layer installs so ExecContext::pool_stats() works without
/// a common -> tensor dependency. Later backends (device allocators) can
/// install their own provider.
using PoolStatsProvider = PoolStats (*)();
void RegisterPoolStatsProvider(PoolStatsProvider provider);

/// Counters of the step-plan capture/replay layer (see tensor/plan.h).
/// Process-wide, like PoolStats; exposed on ExecContext so pipeline code and
/// benches can watch plan-cache behaviour without a common -> tensor
/// dependency.
struct PlanStats {
  uint64_t captures = 0;       ///< Steps successfully frozen into a plan.
  uint64_t replays = 0;        ///< Steps executed by replaying a plan.
  uint64_t invalidations = 0;  ///< Frozen plans dropped (shape/knob change).
  uint64_t poisoned = 0;       ///< Captures abandoned (fell back to eager).
  uint64_t arena_bytes = 0;    ///< Bytes in live plans' intermediate arenas.
  uint64_t pinned_bytes = 0;   ///< Bytes pinned by live plans (data + grad).
};

/// Hook tensor/plan.cc installs so ExecContext::plan_stats() works without a
/// common -> tensor dependency.
using PlanStatsProvider = PlanStats (*)();
void RegisterPlanStatsProvider(PlanStatsProvider provider);

/// Execution context threaded through the trainer, the evolutionary search,
/// and both frameworks: which pool to run kernels on and the base seed that
/// per-worker RNG streams derive from. Passing contexts (instead of ad-hoc
/// pool/seed/thread-count parameters) lets future backends slot in without
/// signature churn.
struct ExecContext {
  /// Null means the process default pool.
  ThreadPool* pool = nullptr;
  /// Base seed for stochastic phases that fork per-item streams.
  uint64_t seed = 0;

  ThreadPool* effective_pool() const {
    return pool != nullptr ? pool : DefaultPool();
  }
  int num_threads() const { return effective_pool()->num_threads(); }
  ExecContext WithSeed(uint64_t s) const {
    ExecContext c = *this;
    c.seed = s;
    return c;
  }
  /// Counters of the process-wide tensor buffer pool (all zeros when no
  /// provider is linked in). The pool is shared, not per-context; contexts
  /// expose it so observability travels with the execution plumbing.
  PoolStats pool_stats() const;
  /// Counters of the process-wide step-plan layer (all zeros when no
  /// provider is linked in).
  PlanStats plan_stats() const;
};

/// Installs `ctx`'s pool as the current pool for the enclosing scope, so
/// every ParallelFor below (tensor kernels included) runs on it. Scopes
/// nest; each restores the previous pool on destruction.
class ExecScope {
 public:
  explicit ExecScope(const ExecContext& ctx);
  ~ExecScope();

  ExecScope(const ExecScope&) = delete;
  ExecScope& operator=(const ExecScope&) = delete;

 private:
  ThreadPool* previous_;
};

}  // namespace autocts

#endif  // REPRO_COMMON_PARALLEL_H_
