#ifndef REPRO_SHARD_SHARD_H_
#define REPRO_SHARD_SHARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/runtime_stats.h"
#include "common/status.h"
#include "comparator/pretrain.h"

namespace autocts {

/// Knobs of the sharded sample-collection run. The defaults below are the
/// only source of the timing knobs; AutoCtsOptions and `pretrain --workers`
/// set the worker count.
struct ShardOptions {
  /// Worker processes to fork. Values <= 1 still run the full coordinator
  /// path with one worker — the configuration every multi-worker run must
  /// be bit-identical to.
  int num_workers = 1;
  /// Threads per worker's private pool (0 = hardware concurrency). Workers
  /// never touch the coordinator's pools: threads do not survive fork.
  int worker_threads = 1;
  /// Scratch + output directory: per-worker `bank.shard-K` files and the
  /// canonical `merged.bank` live here. Required.
  std::string dir;
  /// Config hash stamped into every bank file (PretrainConfigHash upstream;
  /// shard banks from a different configuration are deleted on sight).
  uint64_t config_hash = 0;
  /// Minimum interval between a worker's progress heartbeats.
  int heartbeat_ms = 250;
  /// Silence on a worker's channel after which its in-flight shard becomes
  /// stealable by an idle worker. Must exceed the worst-case wall time of
  /// one sample training plus one heartbeat interval, or healthy slow
  /// workers get (harmlessly, but wastefully) stolen from.
  int steal_timeout_ms = 10000;
  /// Replacement workers forked after deaths across the whole run
  /// (-1 = num_workers).
  int max_worker_restarts = -1;
  /// Bounded reclaim: a shard reassigned more than this many times fails
  /// the run instead of looping forever on a poisonous task.
  int max_shard_reassign = 5;
};

/// The canonical merged-bank path of a shard run over `dir` — what
/// determinism tests memcmp across worker counts.
std::string MergedBankPath(const std::string& dir);

/// CollectSamples, fanned out over `shard.num_workers` forked worker
/// processes coordinated over per-worker Unix-domain socket pairs.
///
/// Every process (coordinator and workers alike) rebuilds the identical
/// CollectPlan from the same inputs — planning burns the whole RNG stream
/// serially, so the pending list, model seeds, and preliminary embeddings
/// are bit-equal everywhere. One shard = one task. Workers claim shards
/// over the socket protocol, train the claimed pending range with their
/// private thread pool, and append the task's section plus each sample's
/// fate to their own `bank.shard-K` (exclusively flocked); the coordinator
/// work-steals shards from dead or silent workers, then rescans the shard
/// banks and writes `merged.bank` in canonical (task, slot) order from the
/// plan plus the signature-verified fates. Merged-bank bytes and the
/// returned TaskSampleSets therefore depend only on the plan — not on
/// worker count, thread count, kills, steals, or resume history.
///
/// Resume: shard banks found in `dir` (from a crashed coordinator) are
/// recovered (torn tails truncated) and their fates counted before any
/// worker is forked; `hook` (the pipeline checkpoint) is consulted for
/// fates and task sections first, and every final fate is committed back
/// through it in canonical order.
///
/// Throws InjectedKill when FaultPoint::kShardWorkerKill fires at
/// kShardCoordinatorAddress (children are killed and reaped first); real
/// coordination failures return an error Status.
StatusOr<std::vector<TaskSampleSet>> ShardedCollectSamples(
    const std::vector<ForecastTask>& tasks, const JointSearchSpace& space,
    const TaskEncoder& encoder, const ScaleConfig& scale,
    const SampleCollectionOptions& options, const ShardOptions& shard,
    const ExecContext& ctx = {}, SampleBankHook* hook = nullptr);

/// Process-lifetime shard counters (also registered as the RuntimeStats
/// "shard" provider on first sharded run). Only the coordinator process
/// accumulates them.
ShardStats CurrentShardStats();

}  // namespace autocts

#endif  // REPRO_SHARD_SHARD_H_
