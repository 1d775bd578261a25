// search: zero-shot search on unseen tasks — AutoCtsPlusPlus::EmbedTask,
// then EvolutionarySearcher::SearchTopK, the calls SearchAndTrain makes
// minus training. Comparator inference dominates (GIN forward, eval plans,
// encoding memo, duel dedup) with almost no backward pass.
#include <iterator>
#include <set>

#include "common.h"
#include "searchspace/parse.h"

namespace autocts::e2e {
namespace {

/// The four forecasting settings of the paper's unseen-task grid.
struct Setting {
  int p, q;
  bool single_step;
};
constexpr Setting kSettings[] = {
    {12, 12, false}, {24, 24, false}, {48, 48, false}, {168, 3, true}};

SearchOptions BenchSearch(bool smoke) {
  SearchOptions s;
  s.ranking_pool = smoke ? 64 : 3000;  // K_s: 1/100 of the paper's 300,000.
  s.opponents_per_candidate = 8;
  s.population = 8;
  s.generations = 5;
  s.top_k = 3;
  return s;
}

class SearchWorkload : public Workload {
 public:
  explicit SearchWorkload(const RunConfig& config) : config_(config) {}

  void Setup() override {
    targets_ = TargetDatasets(ScaleConfig::Bench());
    framework_ = QuickPretrainedFramework();
  }

  void Run(Report* report) override {
    // 7 target datasets x 4 settings, visited in a seed-drawn order so every
    // run covers the grid evenly.
    std::vector<std::pair<int, int>> grid;
    for (int d = 0; d < static_cast<int>(targets_.size()); ++d) {
      for (int s = 0; s < static_cast<int>(std::size(kSettings)); ++s) grid.push_back({d, s});
    }
    Rng order(config_.seed);
    order.Shuffle(&grid);

    const SearchOptions search = BenchSearch(config_.smoke);
    std::vector<double> task_ms, embed_ms, rank_ms;
    int64_t nonfinite = 0, duplicate_tasks = 0;
    const RuntimeStats before = RuntimeStats::Snapshot();
    Span run("search.run", "bench");
    UnitPacer pacer(config_.seconds);
    for (uint64_t i = 0; pacer.Next(); ++i) {
      const auto [d, s] = grid[i % grid.size()];
      Rng rng(UnitSeed(config_.seed, i));
      const Setting& setting = kSettings[s];
      const ForecastTask task = SubsetTask(targets_[static_cast<size_t>(d)], setting.p,
                                           setting.q, setting.single_step, &rng);
      SearchOptions task_search = search;
      task_search.seed = rng.Fork();

      const Clock::time_point t0 = Clock::now();
      Tensor embed;
      {
        Span span("embedding.embed_task", "embedding", i);
        embed = framework_->EmbedTask(task);
      }
      const Clock::time_point t1 = Clock::now();
      EvolutionarySearcher searcher(framework_->comparator(), &framework_->space(),
                                    framework_->exec_context());
      std::vector<ArchHyper> top;
      {
        Span span("search.rank", "search", i);
        top = searcher.SearchTopK(embed, task_search);
      }
      const Clock::time_point t2 = Clock::now();
      embed_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
      rank_ms.push_back(std::chrono::duration<double, std::milli>(t2 - t1).count());
      task_ms.push_back(embed_ms.back() + rank_ms.back());

      ++report->attempted;
      nonfinite += searcher.nonfinite_comparisons();
      if (searcher.nonfinite_comparisons() > 0) ++report->failed;
      std::set<std::string> distinct;
      for (const ArchHyper& ah : top) {
        const std::string sig = ah.Signature();
        distinct.insert(sig);
        const StatusOr<ArchHyper> parsed = ParseArchHyper(sig);
        report->Check(parsed.ok() && parsed.value().Signature() == sig,
                      "top-k entry does not round-trip: " + sig);
        // One pass over the grid: every run completes it, so runs of one
        // seed print the same digest.
        if (i < grid.size()) report->Hash(sig);
      }
      report->Check(top.size() == static_cast<size_t>(search.top_k),
                    "top-k does not hold " + std::to_string(search.top_k) +
                        " arch-hypers");
      // SearchTopK can return one arch-hyper twice: an offspring that is an
      // unchanged copy of its parent survives next to it. Counted, not
      // failed, until the search dedups its population.
      if (distinct.size() < top.size()) ++duplicate_tasks;
    }
    const double elapsed = pacer.elapsed();
    run.End();
    const RuntimeStats after = RuntimeStats::Snapshot();
    const double n = static_cast<double>(task_ms.size());

    report->Set("throughput_per_s", n / elapsed, "1/s");
    report->Set("latency_p50_ms", Percentile(task_ms, 50), "ms");
    report->Set("embedding.embed_task_ms_p50", Percentile(embed_ms, 50), "ms");
    report->Set("search.rank_ms_p50", Percentile(rank_ms, 50), "ms");
    report->Set("search.rank_ms_max", Percentile(rank_ms, 100), "ms");
    report->Set("search.nonfinite_comparisons", static_cast<double>(nonfinite),
                "count");
    report->Set("search.duplicate_top_k", static_cast<double>(duplicate_tasks),
                "tasks");
    if (config_.trace) ReportTensorDelta(before, after, n, report);
  }

 private:
  RunConfig config_;
  std::vector<CtsDatasetPtr> targets_;
  std::unique_ptr<AutoCtsPlusPlus> framework_;
};

}  // namespace

std::unique_ptr<Workload> MakeSearchWorkload(const RunConfig& config) {
  return std::make_unique<SearchWorkload>(config);
}

}  // namespace autocts::e2e
