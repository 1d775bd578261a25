#include "search/evolutionary.h"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <unordered_map>

#include "common/runtime_config.h"
#include "comparator/duels.h"

namespace autocts {
namespace {

/// Each of `n` candidates against `opponents` random others (never itself
/// when n > 1) — the sparse tournament's draws.
std::vector<std::pair<int, int>> SparsePairs(int n, int opponents, Rng* rng) {
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<size_t>(n) * static_cast<size_t>(opponents));
  for (int i = 0; i < n; ++i) {
    for (int o = 0; o < opponents; ++o) {
      int j = rng->Int(0, n - 1);
      if (j == i) j = (j + 1) % n;
      pairs.push_back({i, j});
    }
  }
  return pairs;
}

/// Every ordered pair (i, j), i != j, of `n` candidates.
std::vector<std::pair<int, int>> RoundRobinPairs(int n) {
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) pairs.push_back({i, j});
    }
  }
  return pairs;
}

/// Wins per candidate: the first side of each won duel scores; with
/// `credit_second`, so does the second side of each lost one (the sparse
/// tournament credits both sides, the round-robin only the first).
std::vector<int> CountWins(size_t n,
                           const std::vector<std::pair<int, int>>& pairs,
                           const std::vector<char>& outcomes,
                           bool credit_second) {
  std::vector<int> wins(n, 0);
  for (size_t p = 0; p < pairs.size(); ++p) {
    if (outcomes[p] != 0) {
      ++wins[static_cast<size_t>(pairs[p].first)];
    } else if (credit_second) {
      ++wins[static_cast<size_t>(pairs[p].second)];
    }
  }
  return wins;
}

/// The items with the top-k scores, best first; the stable sort keeps
/// earlier items first on ties, so a smaller k returns a prefix.
std::vector<ArchHyper> Top(const std::vector<ArchHyper>& items,
                           const std::vector<int>& scores, int k) {
  std::vector<int> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return scores[static_cast<size_t>(a)] > scores[static_cast<size_t>(b)];
  });
  order.resize(static_cast<size_t>(
      std::min<int>(k, static_cast<int>(order.size()))));
  std::vector<ArchHyper> top;
  top.reserve(order.size());
  for (int idx : order) top.push_back(items[static_cast<size_t>(idx)]);
  return top;
}

}  // namespace

EvolutionarySearcher::EvolutionarySearcher(const Comparator* comparator,
                                           const JointSearchSpace* space,
                                           ExecContext ctx)
    : comparator_(comparator), space_(space), ctx_(ctx) {
  CHECK(comparator_ != nullptr);
  CHECK(space_ != nullptr);
}

std::vector<std::vector<char>> EvolutionarySearcher::CompareStage(
    const std::vector<SearchTask>& tasks, const std::vector<StageDuels>& stage,
    int compare_batch, DuelCounts* counts) const {
  CHECK_EQ(tasks.size(), stage.size());
  const bool task_aware = comparator_->options().task_aware;
  DuelTable table;
  // One encoding per distinct candidate; table.candidates point in here.
  std::vector<ArchHyperEncoding> encodings;
  std::unordered_map<std::string, int> candidate_of;
  std::unordered_map<uint64_t, int> task_of;
  std::map<std::tuple<int, int, int>, int> slot_of;
  std::vector<std::vector<int>> slots(tasks.size());
  uint64_t requested = 0;
  for (size_t t = 0; t < tasks.size(); ++t) {
    if (task_aware) CHECK(tasks[t].embed.defined());
    auto task_it = task_of.try_emplace(
        tasks[t].key, static_cast<int>(table.task_rows.size()));
    if (task_it.second) table.task_rows.push_back(tasks[t].embed);
    const int task = task_it.first->second;
    // Only candidates a duel references enter the table (and the GIN).
    const std::vector<ArchHyper>& items = *stage[t].items;
    std::vector<int> slot_of_item(items.size(), -1);
    auto candidate = [&](int i) {
      int& slot = slot_of_item[static_cast<size_t>(i)];
      if (slot < 0) {
        const ArchHyper& ah = items[static_cast<size_t>(i)];
        auto it = candidate_of.try_emplace(
            ah.Signature(), static_cast<int>(encodings.size()));
        if (it.second) encodings.push_back(EncodeArchHyper(ah));
        slot = it.first->second;
      }
      return slot;
    };
    const std::vector<std::pair<int, int>>& pairs = stage[t].pairs;
    slots[t].reserve(pairs.size());
    for (const auto& p : pairs) {
      const int first = candidate(p.first);
      const int second = candidate(p.second);
      auto it = slot_of.try_emplace(std::make_tuple(first, second, task),
                                    static_cast<int>(table.duels.size()));
      if (it.second) table.duels.push_back({first, second, task});
      slots[t].push_back(it.first->second);
    }
    requested += pairs.size();
  }
  for (const ArchHyperEncoding& enc : encodings) {
    table.candidates.push_back(&enc);
  }
  if (counts != nullptr) {
    counts->requested += requested;
    counts->evaluated += table.duels.size();
  }

  const ComparatorPrecision precision =
      GlobalRuntimeConfig().comparator_precision;
  const QuantizedComparator* quant =
      precision != ComparatorPrecision::kFp32 ? Quantized(precision) : nullptr;
  DuelOutcomes outcomes;
  {
    ExecScope scope(ctx_);
    outcomes = CompareDuels(*comparator_, quant, table, compare_batch);
  }
  nonfinite_comparisons_.fetch_add(outcomes.nonfinite,
                                   std::memory_order_relaxed);
  std::vector<std::vector<char>> first_wins(tasks.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    first_wins[t].reserve(slots[t].size());
    for (int slot : slots[t]) {
      first_wins[t].push_back(outcomes.first_wins[static_cast<size_t>(slot)]);
    }
  }
  return first_wins;
}

const QuantizedComparator* EvolutionarySearcher::Quantized(
    ComparatorPrecision precision) const {
  std::lock_guard<std::mutex> lock(quant_mu_);
  if (quant_ == nullptr || quant_->precision() != precision) {
    quant_ = std::make_unique<QuantizedComparator>(*comparator_, precision);
  }
  return quant_.get();
}

std::vector<int> EvolutionarySearcher::SparseWinCounts(
    const std::vector<ArchHyper>& pool, const Tensor& task_embed,
    int opponents, int compare_batch, Rng* rng) const {
  StageDuels duels{&pool,
                   SparsePairs(static_cast<int>(pool.size()), opponents, rng)};
  const std::vector<char> outcomes =
      CompareStage({SearchTask{task_embed}}, {duels}, compare_batch, nullptr)
          .front();
  return CountWins(pool.size(), duels.pairs, outcomes, /*credit_second=*/true);
}

std::vector<int> EvolutionarySearcher::RoundRobinWins(
    const std::vector<ArchHyper>& candidates, const Tensor& task_embed,
    int compare_batch) const {
  StageDuels duels{&candidates,
                   RoundRobinPairs(static_cast<int>(candidates.size()))};
  const std::vector<char> outcomes =
      CompareStage({SearchTask{task_embed}}, {duels}, compare_batch, nullptr)
          .front();
  return CountWins(candidates.size(), duels.pairs, outcomes,
                   /*credit_second=*/false);
}

std::vector<ArchHyper> EvolutionarySearcher::SearchTopK(
    const Tensor& task_embed, const SearchOptions& options) const {
  return SearchTopK({SearchTask{task_embed, 0, options.seed}}, options)
      .front();
}

std::vector<std::vector<ArchHyper>> EvolutionarySearcher::SearchTopK(
    const std::vector<SearchTask>& tasks, const SearchOptions& options,
    DuelCounts* counts) const {
  const size_t num_tasks = tasks.size();
  std::vector<Rng> rngs;
  rngs.reserve(num_tasks);
  for (const SearchTask& task : tasks) rngs.emplace_back(task.seed);
  std::vector<StageDuels> stage(num_tasks);
  // Runs `stage` for every task and keeps each task's top `k` of its items.
  auto rank = [&](bool credit_second, int k) {
    const std::vector<std::vector<char>> outcomes =
        CompareStage(tasks, stage, options.compare_batch, counts);
    std::vector<std::vector<ArchHyper>> top(num_tasks);
    for (size_t t = 0; t < num_tasks; ++t) {
      const std::vector<ArchHyper>& items = *stage[t].items;
      top[t] = Top(items,
                   CountWins(items.size(), stage[t].pairs, outcomes[t],
                             credit_second),
                   k);
    }
    return top;
  };

  // Stage 1: sample K_s candidates and rank them by sparse tournament.
  std::vector<std::vector<ArchHyper>> pools(num_tasks);
  for (size_t t = 0; t < num_tasks; ++t) {
    pools[t] = space_->SampleDistinct(options.ranking_pool, &rngs[t]);
    stage[t] = {&pools[t],
                SparsePairs(static_cast<int>(pools[t].size()),
                            options.opponents_per_candidate, &rngs[t])};
  }
  std::vector<std::vector<ArchHyper>> population =
      rank(/*credit_second=*/true, options.population);
  pools.clear();

  // Stage 2: evolution — offspring via crossover/mutation, survivors by
  // comparator round-robin within the (small) population.
  std::vector<std::vector<ArchHyper>> merged(num_tasks);
  for (int gen = 0; gen < options.generations; ++gen) {
    for (size_t t = 0; t < num_tasks; ++t) {
      Rng& rng = rngs[t];
      merged[t] = population[t];
      for (const ArchHyper& parent : population[t]) {
        ArchHyper child = parent;
        if (rng.Bernoulli(options.crossover_prob)) {
          const ArchHyper& other = rng.Choice(population[t]);
          child = space_->Crossover(child, other, &rng);
        }
        if (rng.Bernoulli(options.mutation_prob)) {
          child = space_->Mutate(child, &rng);
        }
        merged[t].push_back(std::move(child));
      }
      stage[t] = {&merged[t],
                  RoundRobinPairs(static_cast<int>(merged[t].size()))};
    }
    population = rank(/*credit_second=*/false, options.population);
  }

  // Stage 3: transitivity-free top-K by round-robin wins (Alg. 2).
  for (size_t t = 0; t < num_tasks; ++t) {
    stage[t] = {&population[t],
                RoundRobinPairs(static_cast<int>(population[t].size()))};
  }
  return rank(/*credit_second=*/false, options.top_k);
}

}  // namespace autocts
