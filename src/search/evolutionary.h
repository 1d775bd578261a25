#ifndef REPRO_SEARCH_EVOLUTIONARY_H_
#define REPRO_SEARCH_EVOLUTIONARY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
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

/// Comparator-guided evolutionary search over the joint search space for a
/// fixed task embedding (undefined tensor for a plain, task-blind AHC).
class EvolutionarySearcher {
 public:
  /// `ctx` selects the thread pool: comparator inference batches fan out
  /// across it when the comparator is in eval mode (batch outcomes don't
  /// depend on each other, so results are identical for any pool size).
  EvolutionarySearcher(const Comparator* comparator,
                       const JointSearchSpace* space, ExecContext ctx = {});

  /// Runs Alg. 2 and returns the top-K arch-hypers, best first.
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
  /// Batched "first beats second" decisions for index pairs into `enc`.
  std::vector<bool> ComparePairs(
      const std::vector<ArchHyperEncoding>& enc,
      const std::vector<std::pair<int, int>>& pairs, const Tensor& task_embed,
      int compare_batch) const;

  /// The lazily built quantized comparator snapshot serving eval-mode
  /// ComparePairs when GlobalRuntimeConfig().comparator_precision is bf16.
  /// Weights are snapshotted at first quantized use — valid here
  /// because the searcher holds the comparator const, so weights cannot
  /// change across a search. Guarded: ComparePairs fans out across the pool.
  const QuantizedComparator* Quantized(ComparatorPrecision precision) const;

  /// EncodeArchHyper memoized on ArchHyper::Signature() (equal signatures
  /// ⇔ equal arch-hypers ⇒ equal encodings). Population survivors re-enter
  /// every generation's round-robin, so most encodings repeat many times.
  ArchHyperEncoding CachedEncoding(const ArchHyper& ah) const;

  /// ComparePairs with duplicate (first, second) *encodings* collapsed:
  /// each signature-distinct ordered pair's logit is computed once and the
  /// outcome broadcast to every duplicate duel. Bit-safe because every
  /// comparator op is row-local, so a logit does not depend on which batch
  /// rows surround it.
  std::vector<bool> DedupedOutcomes(const std::vector<ArchHyper>& items,
                                    const std::vector<ArchHyperEncoding>& enc,
                                    const std::vector<std::pair<int, int>>& pairs,
                                    const Tensor& task_embed,
                                    int compare_batch) const;

  const Comparator* comparator_;
  const JointSearchSpace* space_;
  ExecContext ctx_;
  /// Mutable: ComparePairs is logically const; the counter is telemetry.
  mutable std::atomic<int64_t> nonfinite_comparisons_{0};
  /// Signature -> encoding memo (guarded; searchers may be shared).
  mutable std::mutex encode_mu_;
  mutable std::unordered_map<std::string, ArchHyperEncoding> encode_cache_;
  /// Quantized comparator snapshot (see Quantized()).
  mutable std::mutex quant_mu_;
  mutable std::unique_ptr<QuantizedComparator> quant_;
};

}  // namespace autocts

#endif  // REPRO_SEARCH_EVOLUTIONARY_H_
