#include "search/evolutionary.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>

#include "common/guard.h"
#include "common/runtime_config.h"
#include "tensor/ops.h"
#include "tensor/plan.h"

namespace autocts {

namespace {

/// Per-thread cache of compiled comparator-inference plans, one per batch
/// size, valid for one (comparator, task embedding) context. Thread-local
/// because a StepPlan must replay on the thread that captured it, and
/// ComparePairs fans batches out across the pool.
struct TlsCompareCache {
  const void* comparator = nullptr;
  const void* task_embed = nullptr;
  /// Pins the task embedding's storage so `task_embed` can never be a
  /// recycled-address false match (ABA) while this cache context is live.
  Tensor task_embed_keep;
  /// Constant [1, f2] view of the embedding, shared by every captured plan.
  Tensor task_row;
  std::map<int, std::unique_ptr<StepPlan>> by_batch;
};

thread_local TlsCompareCache t_compare_cache;

}  // namespace

EvolutionarySearcher::EvolutionarySearcher(const Comparator* comparator,
                                           const JointSearchSpace* space,
                                           ExecContext ctx)
    : comparator_(comparator), space_(space), ctx_(ctx) {
  CHECK(comparator_ != nullptr);
  CHECK(space_ != nullptr);
}

std::vector<bool> EvolutionarySearcher::ComparePairs(
    const std::vector<ArchHyperEncoding>& enc,
    const std::vector<std::pair<int, int>>& pairs, const Tensor& task_embed,
    int compare_batch) const {
  std::vector<bool> wins(pairs.size());
  const bool task_aware = comparator_->options().task_aware;
  const int f2 = comparator_->options().f2;
  if (task_aware) CHECK(task_embed.defined());
  auto record_raw = [&](size_t begin, int m, const float* logits) {
    for (int i = 0; i < m; ++i) {
      const float logit = logits[i];
      if (GuardsEnabled() && !std::isfinite(logit)) {
        // A NaN/inf logit carries no preference; count it and fall back to
        // the deterministic "second wins" outcome (same verdict NaN >= 0
        // would yield, but now observable in the RobustnessReport).
        nonfinite_comparisons_.fetch_add(1, std::memory_order_relaxed);
        wins[begin + static_cast<size_t>(i)] = false;
        continue;
      }
      wins[begin + static_cast<size_t>(i)] = logit >= 0.0f;
    }
  };
  auto record_logits = [&](size_t begin, int m, const Tensor& logits) {
    record_raw(begin, m, logits.data().data());
  };
  auto stack_batch = [&](size_t begin, size_t end, EncodingBatch* b1,
                         EncodingBatch* b2) {
    std::vector<ArchHyperEncoding> first, second;
    for (size_t p = begin; p < end; ++p) {
      first.push_back(enc[static_cast<size_t>(pairs[p].first)]);
      second.push_back(enc[static_cast<size_t>(pairs[p].second)]);
    }
    *b1 = StackEncodings(first);
    *b2 = StackEncodings(second);
  };
  const int64_t num_batches =
      (static_cast<int64_t>(pairs.size()) + compare_batch - 1) / compare_batch;
  const ComparatorPrecision precision =
      GlobalRuntimeConfig().comparator_precision;
  if (!comparator_->training() && precision != ComparatorPrecision::kFp32) {
    // Quantized inference path (AUTOCTS_COMPARATOR_PRECISION=bf16):
    // off-tape raw-buffer forward through the active kernel backend's bf16
    // GEMM — no tape, no plans, so it bypasses the plan cache entirely.
    // Batches stay independent, so the same fan-out applies.
    const QuantizedComparator* quant = Quantized(precision);
    ExecScope scope(ctx_);
    ParallelFor(0, num_batches, 1, [&](int64_t b0, int64_t b1r) {
      NoGradScope no_grad;
      Tensor task_row;
      if (task_aware) task_row = Reshape(task_embed, {1, f2});
      for (int64_t bi = b0; bi < b1r; ++bi) {
        const size_t begin =
            static_cast<size_t>(bi) * static_cast<size_t>(compare_batch);
        const size_t end =
            std::min(pairs.size(), begin + static_cast<size_t>(compare_batch));
        const int m = static_cast<int>(end - begin);
        EncodingBatch eb1, eb2;
        stack_batch(begin, end, &eb1, &eb2);
        Tensor task_embeds;
        if (task_aware) {
          std::vector<Tensor> rows(static_cast<size_t>(m), task_row);
          task_embeds = Concat(rows, 0);
        }
        const std::vector<float> logits =
            quant->CompareLogits(eb1, eb2, task_embeds);
        record_raw(begin, m, logits.data());
      }
    });
    return wins;
  }
  if (!comparator_->training()) {
    // Eval-mode inference is pure (dropout is a no-op, so no shared RNG),
    // and batches are independent — fan them out across the pool. Each
    // worker compiles one inference plan per batch size (captured under
    // NoGradScope, so pure intermediates live in the plan's bump arena) and
    // replays it for every later batch of that size.
    ExecScope scope(ctx_);
    ParallelFor(0, num_batches, 1, [&](int64_t b0, int64_t b1r) {
      NoGradScope no_grad;
      TlsCompareCache& cache = t_compare_cache;
      const void* embed_key = task_aware
                                  ? static_cast<const void*>(task_embed.impl())
                                  : nullptr;
      if (cache.comparator != static_cast<const void*>(comparator_) ||
          cache.task_embed != embed_key) {
        cache.by_batch.clear();
        cache.comparator = comparator_;
        cache.task_embed = embed_key;
        cache.task_embed_keep = task_aware ? task_embed : Tensor();
        cache.task_row =
            task_aware ? Reshape(task_embed, {1, f2}) : Tensor();
      }
      for (int64_t bi = b0; bi < b1r; ++bi) {
        const size_t begin =
            static_cast<size_t>(bi) * static_cast<size_t>(compare_batch);
        const size_t end =
            std::min(pairs.size(), begin + static_cast<size_t>(compare_batch));
        const int m = static_cast<int>(end - begin);
        EncodingBatch eb1, eb2;
        stack_batch(begin, end, &eb1, &eb2);
        std::vector<Tensor> step_inputs = {eb1.adjacency, eb1.op_onehot,
                                           eb1.hyper,     eb2.adjacency,
                                           eb2.op_onehot, eb2.hyper};
        std::unique_ptr<StepPlan>& plan = cache.by_batch[m];
        if (plan == nullptr) plan = std::make_unique<StepPlan>();
        if (plan->ready() && !plan->MatchesInputs(step_inputs)) {
          plan->Invalidate();
        }
        if (plan->ready()) {
          plan->BeginStep(step_inputs);
          plan->RunForward();
          record_logits(begin, m, plan->output(0));
          continue;
        }
        const bool capture =
            plan::PlansEnabled() && !plan->capture_failed() &&
            LiveTapeNodesThisThread() == plan::PinnedTapeNodesThisThread();
        if (capture) plan->BeginCapture(step_inputs, "compare_logits");
        Tensor task_embeds;
        if (task_aware) {
          std::vector<Tensor> rows(static_cast<size_t>(m), cache.task_row);
          task_embeds = Concat(rows, 0);
        }
        Tensor logits = comparator_->CompareLogits(eb1, eb2, task_embeds);
        if (capture) {
          plan->AddOutput(logits);
          plan->EndCapture();
        }
        record_logits(begin, m, logits);
      }
    });
  } else {
    // Training mode shares one dropout RNG; keep the sequential draw order
    // and stay eager (the graph must re-tape every step).
    Tensor task_row;
    if (task_aware) task_row = Reshape(task_embed, {1, f2});
    for (int64_t bi = 0; bi < num_batches; ++bi) {
      const size_t begin =
          static_cast<size_t>(bi) * static_cast<size_t>(compare_batch);
      const size_t end =
          std::min(pairs.size(), begin + static_cast<size_t>(compare_batch));
      const int m = static_cast<int>(end - begin);
      EncodingBatch eb1, eb2;
      stack_batch(begin, end, &eb1, &eb2);
      Tensor task_embeds;
      if (task_aware) {
        std::vector<Tensor> rows(static_cast<size_t>(m), task_row);
        task_embeds = Concat(rows, 0);
      }
      Tensor logits = comparator_->CompareLogits(eb1, eb2, task_embeds);
      record_logits(begin, m, logits);
    }
  }
  return wins;
}

const QuantizedComparator* EvolutionarySearcher::Quantized(
    ComparatorPrecision precision) const {
  std::lock_guard<std::mutex> lock(quant_mu_);
  if (quant_ == nullptr || quant_->precision() != precision) {
    quant_ = std::make_unique<QuantizedComparator>(*comparator_, precision);
  }
  return quant_.get();
}

ArchHyperEncoding EvolutionarySearcher::CachedEncoding(
    const ArchHyper& ah) const {
  const std::string key = ah.Signature();
  {
    std::lock_guard<std::mutex> lock(encode_mu_);
    auto it = encode_cache_.find(key);
    if (it != encode_cache_.end()) return it->second;
  }
  // Encode outside the lock; a racing duplicate encode is harmless (both
  // produce identical tensors, the first insert wins).
  ArchHyperEncoding enc = EncodeArchHyper(ah);
  std::lock_guard<std::mutex> lock(encode_mu_);
  return encode_cache_.try_emplace(key, std::move(enc)).first->second;
}

std::vector<bool> EvolutionarySearcher::DedupedOutcomes(
    const std::vector<ArchHyper>& items,
    const std::vector<ArchHyperEncoding>& enc,
    const std::vector<std::pair<int, int>>& pairs, const Tensor& task_embed,
    int compare_batch) const {
  // Canonical representative per signature: crossover/mutation churn yields
  // duplicate arch-hypers across generations, so round-robins repeat many
  // (first, second) encoding pairs verbatim.
  std::unordered_map<std::string, int> canon_by_sig;
  std::vector<int> canon(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    auto it = canon_by_sig.try_emplace(items[i].Signature(),
                                       static_cast<int>(i));
    canon[i] = it.first->second;
  }
  std::map<std::pair<int, int>, int> slot_of;
  std::vector<std::pair<int, int>> unique_pairs;
  std::vector<int> pair_slot(pairs.size());
  for (size_t p = 0; p < pairs.size(); ++p) {
    const std::pair<int, int> cp = {canon[static_cast<size_t>(pairs[p].first)],
                                    canon[static_cast<size_t>(pairs[p].second)]};
    auto it = slot_of.try_emplace(cp, static_cast<int>(unique_pairs.size()));
    if (it.second) unique_pairs.push_back(cp);
    pair_slot[p] = it.first->second;
  }
  // Bit-safe broadcast: every comparator op is row-local, so a pair's logit
  // does not depend on which other rows share its batch.
  std::vector<bool> unique_outcomes =
      ComparePairs(enc, unique_pairs, task_embed, compare_batch);
  std::vector<bool> outcomes(pairs.size());
  for (size_t p = 0; p < pairs.size(); ++p) {
    outcomes[p] = unique_outcomes[static_cast<size_t>(pair_slot[p])];
  }
  return outcomes;
}

std::vector<int> EvolutionarySearcher::SparseWinCounts(
    const std::vector<ArchHyper>& pool, const Tensor& task_embed,
    int opponents, int compare_batch, Rng* rng) const {
  const int n = static_cast<int>(pool.size());
  std::vector<ArchHyperEncoding> enc;
  enc.reserve(pool.size());
  for (const ArchHyper& ah : pool) enc.push_back(CachedEncoding(ah));
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < n; ++i) {
    for (int o = 0; o < opponents; ++o) {
      int j = rng->Int(0, n - 1);
      if (j == i) j = (j + 1) % n;
      pairs.push_back({i, j});
    }
  }
  std::vector<bool> outcomes =
      DedupedOutcomes(pool, enc, pairs, task_embed, compare_batch);
  std::vector<int> wins(static_cast<size_t>(n), 0);
  for (size_t p = 0; p < pairs.size(); ++p) {
    // Credit both sides: the winner of each duel gets a point.
    if (outcomes[p]) {
      ++wins[static_cast<size_t>(pairs[p].first)];
    } else {
      ++wins[static_cast<size_t>(pairs[p].second)];
    }
  }
  return wins;
}

std::vector<int> EvolutionarySearcher::RoundRobinWins(
    const std::vector<ArchHyper>& candidates, const Tensor& task_embed,
    int compare_batch) const {
  const int n = static_cast<int>(candidates.size());
  std::vector<ArchHyperEncoding> enc;
  enc.reserve(candidates.size());
  for (const ArchHyper& ah : candidates) enc.push_back(CachedEncoding(ah));
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) pairs.push_back({i, j});
    }
  }
  std::vector<bool> outcomes =
      DedupedOutcomes(candidates, enc, pairs, task_embed, compare_batch);
  std::vector<int> wins(static_cast<size_t>(n), 0);
  for (size_t p = 0; p < pairs.size(); ++p) {
    if (outcomes[p]) ++wins[static_cast<size_t>(pairs[p].first)];
  }
  return wins;
}

namespace {

/// Indices of the top-k values, descending.
std::vector<int> TopIndices(const std::vector<int>& scores, int k) {
  std::vector<int> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return scores[static_cast<size_t>(a)] > scores[static_cast<size_t>(b)];
  });
  order.resize(static_cast<size_t>(std::min<int>(k, static_cast<int>(order.size()))));
  return order;
}

}  // namespace

std::vector<ArchHyper> EvolutionarySearcher::SearchTopK(
    const Tensor& task_embed, const SearchOptions& options) const {
  Rng rng(options.seed);
  // Stage 1: sample K_s candidates and rank them by sparse tournament.
  std::vector<ArchHyper> pool =
      space_->SampleDistinct(options.ranking_pool, &rng);
  std::vector<int> wins =
      SparseWinCounts(pool, task_embed, options.opponents_per_candidate,
                      options.compare_batch, &rng);
  std::vector<ArchHyper> population;
  for (int idx : TopIndices(wins, options.population)) {
    population.push_back(pool[static_cast<size_t>(idx)]);
  }

  // Stage 2: evolution — offspring via crossover/mutation, survivors by
  // comparator round-robin within the (small) population.
  for (int gen = 0; gen < options.generations; ++gen) {
    std::vector<ArchHyper> offspring;
    for (const ArchHyper& parent : population) {
      ArchHyper child = parent;
      if (rng.Bernoulli(options.crossover_prob)) {
        const ArchHyper& other = rng.Choice(population);
        child = space_->Crossover(child, other, &rng);
      }
      if (rng.Bernoulli(options.mutation_prob)) {
        child = space_->Mutate(child, &rng);
      }
      offspring.push_back(std::move(child));
    }
    std::vector<ArchHyper> merged = population;
    merged.insert(merged.end(), offspring.begin(), offspring.end());
    std::vector<int> rr =
        RoundRobinWins(merged, task_embed, options.compare_batch);
    std::vector<ArchHyper> next;
    for (int idx : TopIndices(rr, options.population)) {
      next.push_back(merged[static_cast<size_t>(idx)]);
    }
    population = std::move(next);
  }

  // Stage 3: transitivity-free top-K by round-robin wins (Alg. 2).
  std::vector<int> final_wins =
      RoundRobinWins(population, task_embed, options.compare_batch);
  std::vector<ArchHyper> top;
  for (int idx : TopIndices(final_wins, options.top_k)) {
    top.push_back(population[static_cast<size_t>(idx)]);
  }
  return top;
}

}  // namespace autocts
