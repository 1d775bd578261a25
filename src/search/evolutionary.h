#ifndef REPRO_SEARCH_EVOLUTIONARY_H_
#define REPRO_SEARCH_EVOLUTIONARY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "comparator/comparator.h"
#include "comparator/quant.h"
#include "searchspace/search_space.h"

namespace autocts {

/// Knobs of the zero-shot search (paper §3.3 / Alg. 2 and §4.1.4).
struct SearchOptions {
  /// K_s: candidates sampled from the joint space for the initial ranking
  /// (paper default 300,000; scaled down by default here).
  int ranking_pool = 600;
  /// Opponents per candidate for the initial sparse-tournament ranking.
  /// (A full K_s² round-robin is infeasible at paper scale too.)
  int opponents_per_candidate = 8;
  int population = 8;        ///< k_p.
  int generations = 5;       ///< Evolution steps.
  float crossover_prob = 0.8f;  ///< p1.
  float mutation_prob = 0.2f;   ///< p2.
  int top_k = 2;             ///< Final candidates to fully train.
  int compare_batch = 64;    ///< Comparator minibatch for ranking.
  uint64_t seed = 303;
};

/// One task of a batched search.
struct SearchTask {
  /// [f2] or [1, f2] task embedding; undefined for a task-blind comparator.
  Tensor embed;
  /// Identifies the task: tasks with equal keys must carry equal embeddings,
  /// and their identical duels are scored once.
  uint64_t key = 0;
  /// Seed of the task's own Rng (candidate sampling, pair draws, evolution).
  uint64_t seed = 0;
};

/// Comparator duels a batched search asked for, before and after the
/// cross-task dedup of each stage's DuelTable.
struct DuelCounts {
  uint64_t requested = 0;
  uint64_t evaluated = 0;
};

/// Comparator-guided evolutionary search over the joint search space (paper
/// Alg. 2): a sparse tournament over K_s sampled candidates, evolution of the
/// top k_p, then a transitivity-free round-robin top-K. This is the one
/// implementation of the ranking; the serving layer ranks its micro-batches
/// through the batched SearchTopK.
///
/// Ranking is eval-mode only (comparator/duels.h CHECKs it). Each stage
/// packs its duels into one DuelTable: candidates deduplicated by signature
/// (each is encoded and GIN-embedded once per stage), tasks by key, and
/// duels by (first, second, task), so a duel asked twice — in one task or
/// across tasks — is scored once. Bit-safe because every comparator op is
/// row-local.
///
/// Thread safety: the const methods may run concurrently on one searcher.
class EvolutionarySearcher {
 public:
  /// `ctx` selects the thread pool the two-pass duel evaluation fans out
  /// across (duel outcomes don't depend on each other, so results are
  /// identical for any pool size). The default context is the process
  /// default pool; pass a 1-lane pool to keep ranking inline.
  EvolutionarySearcher(const Comparator* comparator,
                       const JointSearchSpace* space, ExecContext ctx = {});

  /// Runs Alg. 2 for every task in lockstep and returns each task's top-K
  /// arch-hypers, best first. Each task draws from its own Rng(seed), so its
  /// answer equals a one-task call with that seed whatever the batch holds.
  /// `counts`, when set, receives the duels requested and evaluated.
  std::vector<std::vector<ArchHyper>> SearchTopK(
      const std::vector<SearchTask>& tasks, const SearchOptions& options,
      DuelCounts* counts = nullptr) const;

  /// One-task SearchTopK seeded with `options.seed`.
  std::vector<ArchHyper> SearchTopK(const Tensor& task_embed,
                                    const SearchOptions& options) const;

  /// Win counts of each candidate against `opponents` random others —
  /// the sparse-tournament ranking of the initial pool. Exposed for tests
  /// and benchmarks.
  std::vector<int> SparseWinCounts(const std::vector<ArchHyper>& pool,
                                   const Tensor& task_embed, int opponents,
                                   int compare_batch, Rng* rng) const;

  /// Full round-robin win counts (Alg. 2's transitivity-free top-K rule);
  /// use only on small candidate sets.
  std::vector<int> RoundRobinWins(const std::vector<ArchHyper>& candidates,
                                  const Tensor& task_embed,
                                  int compare_batch) const;

  /// Comparator logits that came back NaN/inf across this searcher's
  /// lifetime (guardrail counter; each such duel deterministically falls to
  /// the second candidate). Thread-safe.
  int64_t nonfinite_comparisons() const {
    return nonfinite_comparisons_.load(std::memory_order_relaxed);
  }

 private:
  /// One task's duels in one stage, as index pairs into `items`.
  struct StageDuels {
    const std::vector<ArchHyper>* items = nullptr;
    std::vector<std::pair<int, int>> pairs;
  };

  /// "First beats second" outcomes (1 = first wins) of every task's stage
  /// duels, scored through one deduplicated DuelTable.
  std::vector<std::vector<char>> CompareStage(
      const std::vector<SearchTask>& tasks,
      const std::vector<StageDuels>& stage, int compare_batch,
      DuelCounts* counts) const;

  /// The lazily built quantized comparator snapshot that scores duels when
  /// GlobalRuntimeConfig().comparator_precision is bf16. Weights are
  /// snapshotted at first quantized use — valid because the searcher holds
  /// the comparator const, so weights cannot change under it.
  const QuantizedComparator* Quantized(ComparatorPrecision precision) const;

  const Comparator* comparator_;
  const JointSearchSpace* space_;
  ExecContext ctx_;
  /// Mutable: ranking is logically const; the counter is telemetry.
  mutable std::atomic<int64_t> nonfinite_comparisons_{0};
  /// Quantized comparator snapshot (see Quantized()).
  mutable std::mutex quant_mu_;
  mutable std::unique_ptr<QuantizedComparator> quant_;
};

}  // namespace autocts

#endif  // REPRO_SEARCH_EVOLUTIONARY_H_
