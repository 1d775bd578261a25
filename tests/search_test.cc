#include "search/evolutionary.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "comparator/pretrain.h"
#include "tensor/ops.h"
#include "tensor/plan.h"

namespace autocts {
namespace {

Comparator::Options SmallOptions(bool task_aware) {
  Comparator::Options opts;
  opts.gin.layers = 2;
  opts.gin.embed_dim = 8;
  opts.repr_dim = 4;
  opts.f1 = 8;
  opts.f2 = 4;
  opts.fc_dim = 16;
  opts.task_aware = task_aware;
  return opts;
}

/// Trains a task-blind comparator to prefer small hidden dimensions so the
/// search has a crisp, verifiable objective.
std::unique_ptr<Comparator> OracleLikeComparator() {
  auto comp = std::make_unique<Comparator>(SmallOptions(false), 21);
  JointSearchSpace space;
  Rng rng(22);
  TaskSampleSet set;
  for (int i = 0; i < 40; ++i) {
    LabeledSample s;
    s.arch_hyper = space.Sample(&rng);
    s.r_prime = s.arch_hyper.hyper.hidden_dim;
    s.shared = true;
    set.samples.push_back(std::move(s));
  }
  PretrainOptions opts;
  opts.epochs = 60;
  opts.batch_size = 20;
  opts.lr = 3e-3f;
  PretrainComparator(comp.get(), {set}, opts);
  return comp;
}

SearchOptions TinySearch() {
  SearchOptions s;
  s.ranking_pool = 40;
  s.opponents_per_candidate = 4;
  s.population = 6;
  s.generations = 2;
  s.top_k = 3;
  s.compare_batch = 32;
  return s;
}

TEST(EvolutionarySearchTest, ReturnsValidTopK) {
  auto comp = OracleLikeComparator();
  JointSearchSpace space;
  EvolutionarySearcher searcher(comp.get(), &space);
  std::vector<ArchHyper> top = searcher.SearchTopK(Tensor(), TinySearch());
  ASSERT_EQ(top.size(), 3u);
  for (const ArchHyper& ah : top) {
    EXPECT_TRUE(ValidateArchHyper(ah).ok());
    EXPECT_TRUE(HasSpatialAndTemporal(ah.arch));
  }
}

TEST(EvolutionarySearchTest, FollowsComparatorPreference) {
  // A comparator trained to prefer H=32 should surface mostly H=32
  // candidates.
  auto comp = OracleLikeComparator();
  JointSearchSpace space;
  EvolutionarySearcher searcher(comp.get(), &space);
  SearchOptions opts = TinySearch();
  opts.ranking_pool = 80;
  opts.generations = 4;
  std::vector<ArchHyper> top = searcher.SearchTopK(Tensor(), opts);
  int small_hidden = 0;
  for (const ArchHyper& ah : top) {
    if (ah.hyper.hidden_dim == 32) ++small_hidden;
  }
  EXPECT_GE(small_hidden, 2) << "search ignored the comparator signal";
}

TEST(EvolutionarySearchTest, DeterministicGivenSeed) {
  auto comp = OracleLikeComparator();
  JointSearchSpace space;
  EvolutionarySearcher searcher(comp.get(), &space);
  std::vector<ArchHyper> a = searcher.SearchTopK(Tensor(), TinySearch());
  std::vector<ArchHyper> b = searcher.SearchTopK(Tensor(), TinySearch());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].Signature(), b[i].Signature());
  }
}

TEST(EvolutionarySearchTest, RoundRobinWinsSumToPairCount) {
  auto comp = OracleLikeComparator();
  JointSearchSpace space;
  EvolutionarySearcher searcher(comp.get(), &space);
  Rng rng(23);
  std::vector<ArchHyper> candidates = space.SampleDistinct(5, &rng);
  std::vector<int> wins = searcher.RoundRobinWins(candidates, Tensor(), 16);
  // Every ordered pair (i, j), i≠j, is evaluated once; candidate i can win
  // at most its 2(n-1) duels. The comparator need not be anti-symmetric
  // (that is exactly why Alg. 2 uses round-robin), so totals are bounded,
  // not fixed.
  int total = 0;
  for (int w : wins) {
    EXPECT_GE(w, 0);
    EXPECT_LE(w, 4);  // i is "first" in n-1 = 4 duels.
    total += w;
  }
  EXPECT_LE(total, 5 * 4);
}

TEST(EvolutionarySearchTest, SparseTournamentCountsBounded) {
  auto comp = OracleLikeComparator();
  JointSearchSpace space;
  EvolutionarySearcher searcher(comp.get(), &space);
  Rng rng(24);
  std::vector<ArchHyper> pool = space.SampleDistinct(20, &rng);
  std::vector<int> wins = searcher.SparseWinCounts(pool, Tensor(), 4, 16, &rng);
  ASSERT_EQ(wins.size(), 20u);
  int total = 0;
  for (int w : wins) {
    EXPECT_GE(w, 0);
    total += w;
  }
  EXPECT_EQ(total, 20 * 4);  // One point per duel.
}

TEST(EvolutionarySearchTest, TaskAwarePathRuns) {
  Comparator comp(SmallOptions(true), 25);
  comp.SetTraining(false);
  JointSearchSpace space;
  EvolutionarySearcher searcher(&comp, &space);
  Rng rng(26);
  Tensor task_embed = Tensor::Randn({4}, &rng);
  std::vector<ArchHyper> top = searcher.SearchTopK(task_embed, TinySearch());
  EXPECT_EQ(top.size(), 3u);
}

std::vector<std::string> Signatures(const std::vector<ArchHyper>& ahs) {
  std::vector<std::string> sigs;
  for (const ArchHyper& ah : ahs) sigs.push_back(ah.Signature());
  return sigs;
}

/// Batched SearchTopK against one-task calls; the parameter is task_aware.
class BatchedSearchTest : public ::testing::TestWithParam<bool> {};

TEST_P(BatchedSearchTest, MatchesOneTaskCalls) {
  const bool task_aware = GetParam();
  Comparator comp(SmallOptions(task_aware), 51);
  comp.SetTraining(false);
  JointSearchSpace space;
  ThreadPool pool(4);
  ExecContext ctx;
  ctx.pool = &pool;
  EvolutionarySearcher searcher(&comp, &space, ctx);
  SearchOptions opts = TinySearch();
  ASSERT_GT(opts.generations, 0);
  Rng rng(52);
  std::map<uint64_t, Tensor> embeds;
  for (uint64_t key : {7u, 8u, 9u}) {
    if (task_aware) embeds[key] = Tensor::Randn({4}, &rng);
  }
  // Tasks 0 and 2 share a key (one embedding) under different seeds; task 3
  // repeats task 1 outright, so every one of its duels dedups across tasks;
  // task 4 draws task 0's duels under another key, so none of them may.
  const std::vector<std::pair<uint64_t, uint64_t>> key_seeds = {
      {7, 101}, {8, 102}, {7, 103}, {8, 102}, {9, 101}};
  std::vector<SearchTask> tasks;
  for (const auto& [key, seed] : key_seeds) {
    tasks.push_back({embeds[key], key, seed});
  }
  DuelCounts counts;
  const std::vector<std::vector<ArchHyper>> batched =
      searcher.SearchTopK(tasks, opts, &counts);
  ASSERT_EQ(batched.size(), tasks.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    SearchOptions one = opts;
    one.seed = tasks[t].seed;
    EXPECT_EQ(Signatures(batched[t]),
              Signatures(searcher.SearchTopK(tasks[t].embed, one)))
        << "task " << t;
  }
  EXPECT_EQ(Signatures(batched[1]), Signatures(batched[3]));
  EXPECT_LT(counts.evaluated, counts.requested);
  EXPECT_EQ(searcher.nonfinite_comparisons(), 0);
  EXPECT_TRUE(searcher.SearchTopK(std::vector<SearchTask>{}, opts).empty());
}

INSTANTIATE_TEST_SUITE_P(TaskAware, BatchedSearchTest, ::testing::Bool());

// ---------------------------------------------------------------------------
// The two-pass eval ranking (GIN once per candidate, head once per duel,
// fanned out over a pool) pinned to the one-pass definition: every duel
// scored alone through eager Comparator::CompareLogits on one thread.
// ---------------------------------------------------------------------------

/// Naive reference verdict: one pair at a time, eager, single thread.
bool ReferenceFirstWins(const Comparator& comp, const ArchHyper& first,
                        const ArchHyper& second, const Tensor& task_embed) {
  ThreadPool one(1);
  ExecContext ctx;
  ctx.pool = &one;
  ExecScope scope(ctx);
  NoGradScope no_grad;
  Tensor te;
  if (comp.options().task_aware) {
    te = Reshape(task_embed, {1, comp.options().f2});
  }
  const Tensor logit =
      comp.CompareLogits(StackEncodings({EncodeArchHyper(first)}),
                         StackEncodings({EncodeArchHyper(second)}), te);
  return logit.at(0) >= 0.0f;
}

/// (task_aware, compare_batch, plans enabled).
class TwoPassRankingTest
    : public ::testing::TestWithParam<std::tuple<bool, int, bool>> {
 protected:
  void SetUp() override {
    plans_were_enabled_ = plan::PlansEnabled();
    plan::SetPlansEnabled(std::get<2>(GetParam()));
  }
  void TearDown() override { plan::SetPlansEnabled(plans_were_enabled_); }

 private:
  bool plans_were_enabled_ = true;
};

TEST_P(TwoPassRankingTest, MatchesOnePairEagerReference) {
  const auto [task_aware, compare_batch, plans] = GetParam();
  // Seeded, untrained weights: many logits sit near zero, so any numeric
  // drift from the reference would flip verdicts.
  Comparator comp(SmallOptions(task_aware), 41);
  comp.SetTraining(false);
  JointSearchSpace space;
  Rng rng(42);
  Tensor task_embed;
  if (task_aware) task_embed = Tensor::Randn({4}, &rng);
  ThreadPool pool(4);
  ExecContext ctx;
  ctx.pool = &pool;
  EvolutionarySearcher searcher(&comp, &space, ctx);

  // Sparse tournament over a pool with repeated arch-hypers (duel dedup).
  std::vector<ArchHyper> candidates = space.SampleDistinct(30, &rng);
  for (int i = 0; i < 5; ++i) candidates.push_back(candidates[3 * i]);
  const int n = static_cast<int>(candidates.size());
  const int opponents = 4;
  Rng draw(43);
  Rng replay(43);
  const std::vector<int> sparse = searcher.SparseWinCounts(
      candidates, task_embed, opponents, compare_batch, &draw);
  std::vector<int> want_sparse(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    for (int o = 0; o < opponents; ++o) {
      int j = replay.Int(0, n - 1);
      if (j == i) j = (j + 1) % n;
      const bool first_wins =
          ReferenceFirstWins(comp, candidates[static_cast<size_t>(i)],
                             candidates[static_cast<size_t>(j)], task_embed);
      ++want_sparse[static_cast<size_t>(first_wins ? i : j)];
    }
  }
  EXPECT_EQ(sparse, want_sparse);

  // Full round-robin over a small set.
  candidates.resize(9);
  const std::vector<int> rr =
      searcher.RoundRobinWins(candidates, task_embed, compare_batch);
  std::vector<int> want_rr(candidates.size(), 0);
  for (size_t i = 0; i < candidates.size(); ++i) {
    for (size_t j = 0; j < candidates.size(); ++j) {
      if (i != j && ReferenceFirstWins(comp, candidates[i], candidates[j],
                                       task_embed)) {
        ++want_rr[i];
      }
    }
  }
  EXPECT_EQ(rr, want_rr);
  EXPECT_EQ(searcher.nonfinite_comparisons(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    TaskAwareBatchPlans, TwoPassRankingTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1, 7, 64),
                       ::testing::Bool()));

}  // namespace
}  // namespace autocts
