// pretrain: AutoCtsPlusPlus::TryPretrain with a fresh checkpoint directory,
// round after round until the measured time is up. Each round pretrains on
// kRoundTasks seed-drawn source tasks x (5 shared + 5 random) samples, then
// fits the comparator for 16 epochs: many short trainings of small models,
// where plan capture amortises poorly and collection scheduling, bank
// appends and comparator fitting dominate. A round's time includes building
// the framework, as a user's pretrain pays it.
//
// The traced run adds two legs after the measured rounds:
//   * a replay of round 0's three stages on fresh objects, one span per
//     stage; the comparator it fits must be byte-identical to the one
//     TryPretrain saved, or the split would not measure the same work;
//   * shard vs threads at equal cores: in-process collection on the 4-lane
//     pool against ShardedCollectSamples over 4 worker processes x 1 thread,
//     on the 8 source tasks of rounds 0-3. One shard is one task, so with
//     twice as many shards as workers a worker that finishes early takes
//     another shard. Both must give the same fates.
#include <malloc.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common.h"
#include "nn/serialize.h"
#include "shard/shard.h"

namespace autocts::e2e {
namespace {

constexpr int kRoundTasks = 2;
constexpr int kShardWorkers = 4;
/// Rounds whose tasks the shard leg collects: 8 tasks, 2 shards per worker.
constexpr uint64_t kShardRounds = 4;
/// Rounds the output digest covers: every run completes them, so runs of
/// one seed print the same digest however many rounds fit in the time.
constexpr uint64_t kDigestRounds = 2;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

bool SameFates(const std::vector<TaskSampleSet>& a,
               const std::vector<TaskSampleSet>& b) {
  if (a.size() != b.size()) return false;
  for (size_t t = 0; t < a.size(); ++t) {
    if (a[t].samples.size() != b[t].samples.size()) return false;
    for (size_t i = 0; i < a[t].samples.size(); ++i) {
      const LabeledSample& x = a[t].samples[i];
      const LabeledSample& y = b[t].samples[i];
      if (std::memcmp(&x.r_prime, &y.r_prime, sizeof(double)) != 0 ||
          x.quarantined != y.quarantined || x.retries != y.retries ||
          SampleFateSignature(x) != SampleFateSignature(y)) {
        return false;
      }
    }
  }
  return true;
}

class PretrainWorkload : public Workload {
 public:
  explicit PretrainWorkload(const RunConfig& config) : config_(config) {}

  void Setup() override { sources_ = SourceDatasets(ScaleConfig::Bench()); }

  void Run(Report* report) override;

 private:
  std::string Dir() const { return config_.workdir + "/pretrain"; }

  /// Program settings: the Bench preset, the same for every seed.
  AutoCtsOptions Options() const {
    AutoCtsOptions o = BenchOptions();
    if (config_.smoke) {
      o.collect.shared_count = 1;
      o.collect.random_count = 1;
      o.pretrain.epochs = 2;
    }
    return o;
  }

  std::vector<ForecastTask> RoundTasks(uint64_t round) const {
    Rng rng(UnitSeed(config_.seed, round));
    return DrawSourceTasks(sources_, kRoundTasks, &rng);
  }

  void TraceLegs(const std::string& saved_params, double pretrain_s,
                 Report* report);

  RunConfig config_;
  std::vector<CtsDatasetPtr> sources_;
};

void PretrainWorkload::Run(Report* report) {
  const AutoCtsOptions options = Options();
  const size_t per_task = static_cast<size_t>(options.collect.shared_count +
                                              options.collect.random_count);
  std::vector<double> round_ms, pretrain_s;
  double samples = 0.0, busy_s = 0.0, accuracy_sum = 0.0;
  int quarantined = 0, retries = 0, accuracy_rounds = 0;
  std::filesystem::remove_all(Dir());
  std::filesystem::create_directories(Dir());
  const RuntimeStats before = RuntimeStats::Snapshot();
  {
    Span run("pretrain.run", "bench");
    UnitPacer pacer(config_.seconds);
    for (uint64_t round = 0; pacer.Next(); ++round) {
      const std::vector<ForecastTask> tasks = RoundTasks(round);
      AutoCtsOptions o = options;
      o.checkpoint.dir = Dir() + "/round-" + std::to_string(round);
      const Clock::time_point t0 = Clock::now();
      std::unique_ptr<AutoCtsPlusPlus> framework = [&] {
        Span span("core.construct", "core", round);
        return std::make_unique<AutoCtsPlusPlus>(o);
      }();
      const Clock::time_point t1 = Clock::now();
      StatusOr<PretrainReport> result = [&] {
        Span span("core.pretrain", "core", round);
        return framework->TryPretrain(tasks);
      }();
      const double dt = SecondsSince(t0);
      ++report->attempted;
      if (!result.ok()) {
        ++report->failed;
        report->Check(false, "TryPretrain failed: " + result.status().message());
        continue;
      }
      round_ms.push_back(dt * 1e3);
      pretrain_s.push_back(SecondsSince(t1));
      busy_s += dt;
      const PretrainReport& r = result.value();
      report->Check(r.final_accuracy > 0.5,
                    "pair accuracy " + std::to_string(r.final_accuracy) +
                        " <= 0.5 in round " + std::to_string(round));
      const bool digest = round < kDigestRounds;
      if (digest) {
        accuracy_sum += r.final_accuracy;
        ++accuracy_rounds;
        report->Hash(r.final_accuracy);
      }
      for (const TaskSampleSet& set : framework->collected_samples()) {
        report->Check(set.samples.size() == per_task,
                      "a task lost planned samples");
        for (const LabeledSample& s : set.samples) {
          samples += 1.0;
          ++report->attempted;
          report->Check(s.quarantined || std::isfinite(s.r_prime),
                        "a planned sample has no fate");
          if (s.quarantined) {
            ++quarantined;
            ++report->failed;
          }
          retries += s.retries;
          if (digest) report->Hash(s.r_prime);
        }
      }
      // Round 0's checkpoint holds the parameters the stage replay checks.
      if (round > 0) std::filesystem::remove_all(o.checkpoint.dir);
      framework.reset();
      // A user pretrains once per process. Handing freed heap back to the
      // system between rounds keeps the peak RSS that of one round: what
      // the allocator kept of earlier rounds varied by 10% between runs.
      malloc_trim(0);
    }
  }
  const RuntimeStats after = RuntimeStats::Snapshot();

  report->Set("throughput_per_s", samples / busy_s, "1/s");
  report->Set("latency_p50_ms", Percentile(round_ms, 50), "ms");
  report->Set("core.pretrain_s", Percentile(pretrain_s, 50), "s");
  report->Set("comparator.pair_accuracy", accuracy_sum / std::max(1, accuracy_rounds),
              "fraction");
  report->Set("comparator.quarantined", quarantined, "count");
  report->Set("comparator.retries", retries, "count");
  if (!config_.trace) return;
  ReportTensorDelta(before, after, samples, report);
  const PipelineCheckpoint round0(Dir() + "/round-0", 0);
  TraceLegs(ReadFile(round0.ComparatorPath()), Percentile(pretrain_s, 50), report);
}

void PretrainWorkload::TraceLegs(const std::string& saved_params,
                                 double pretrain_s, Report* report) {
  Span legs("pretrain.trace_legs", "bench");
  const AutoCtsOptions o = Options();
  ThreadPool pool(kPoolThreads);
  const ExecContext ctx{&pool, o.seed};
  ExecScope scope(ctx);
  const std::vector<ForecastTask> tasks = RoundTasks(0);

  // Stage replay. The draws mirror the AutoCtsPlusPlus constructor, so the
  // replay starts from the framework's initial encoder and comparator.
  Rng rng(o.seed);
  Ts2Vec encoder(1, o.ts2vec, &rng);
  Comparator comparator(o.comparator, rng.Fork());
  JointSearchSpace space;
  std::vector<CtsDatasetPtr> corpora;
  for (const ForecastTask& t : tasks) corpora.push_back(t.data);
  double stage_s[4] = {0, 0, 0, 0};
  CollectPlan plan;
  {
    Span replay("core.stage_replay", "core");
    auto stage = [&](const char* name, const char* layer, int i, auto&& fn) {
      const Clock::time_point t = Clock::now();
      Span span(name, layer);
      fn();
      stage_s[i] = SecondsSince(t);
    };
    stage("embedding.ts2vec_pretrain", "embedding", 0,
          [&] { PretrainTs2Vec(&encoder, corpora, o.ts2vec_pretrain, &rng); });
    stage("comparator.plan", "comparator", 1, [&] {
      plan = PlanCollectSamples(tasks, space, encoder, o.scale, o.collect, ctx);
    });
    stage("comparator.collect", "comparator", 2, [&] {
      TrainPlannedSamples(&plan, 0, static_cast<int64_t>(plan.pending.size()), ctx);
    });
    stage("comparator.fit", "comparator", 3,
          [&] { PretrainComparator(&comparator, plan.sets, o.pretrain, ctx); });
  }
  const std::string replay_path = Dir() + "/replay.tahc.params";
  report->Check(SaveParameters(comparator, replay_path).ok() &&
                    !saved_params.empty() && ReadFile(replay_path) == saved_params,
                "the stage replay's comparator differs from TryPretrain's");
  report->Set("embedding.ts2vec_pretrain_s", stage_s[0], "s");
  report->Set("comparator.plan_s", stage_s[1], "s");
  report->Set("comparator.collect_s", stage_s[2], "s");
  report->Set("comparator.collect_samples_per_s",
              static_cast<double>(plan.pending.size()) / stage_s[2], "1/s");
  report->Set("comparator.fit_s", stage_s[3], "s");
  const double staged = stage_s[0] + stage_s[1] + stage_s[2] + stage_s[3];
  report->Set("core.unattributed_pct",
              pretrain_s > 0 ? 100.0 * (pretrain_s - staged) / pretrain_s : 0.0, "%");

  // Shard vs threads, both on 4 cores, with the encoder the replay trained.
  std::vector<ForecastTask> shard_tasks;
  for (uint64_t round = 0; round < kShardRounds; ++round) {
    for (const ForecastTask& t : RoundTasks(round)) shard_tasks.push_back(t);
  }
  Clock::time_point t = Clock::now();
  std::vector<TaskSampleSet> threaded;
  {
    Span span("comparator.collect_threads", "comparator");
    threaded = CollectSamples(shard_tasks, space, encoder, o.scale, o.collect, ctx);
  }
  const double threads_s = SecondsSince(t);
  ShardOptions shard;
  shard.num_workers = kShardWorkers;
  shard.worker_threads = 1;
  shard.dir = Dir() + "/shards";
  shard.config_hash = o.seed;
  std::filesystem::create_directories(shard.dir);
  const ShardStats shard_before = CurrentShardStats();
  t = Clock::now();
  StatusOr<std::vector<TaskSampleSet>> sharded = [&] {
    Span span("shard.collect", "shard");
    return ShardedCollectSamples(shard_tasks, space, encoder, o.scale, o.collect,
                                 shard, ctx);
  }();
  const double shard_s = SecondsSince(t);
  const ShardStats shard_after = CurrentShardStats();
  report->Check(sharded.ok() && SameFates(threaded, sharded.value()),
                "the shard leg's sample fates differ from in-process collection");
  report->Set("shard.collect_s", shard_s, "s");
  report->Set("shard.threads_collect_s", threads_s, "s");
  report->Set("shard.speedup_vs_threads", threads_s / shard_s, "x");
  report->Set("shard.bytes_in",
              static_cast<double>(shard_after.bytes_in - shard_before.bytes_in), "bytes");
  report->Set("shard.bytes_out",
              static_cast<double>(shard_after.bytes_out - shard_before.bytes_out),
              "bytes");
  report->Set("shard.stolen",
              static_cast<double>(shard_after.shards_stolen - shard_before.shards_stolen),
              "count");
}

}  // namespace

std::unique_ptr<Workload> MakePretrainWorkload(const RunConfig& config) {
  return std::make_unique<PretrainWorkload>(config);
}

}  // namespace autocts::e2e
