#ifndef AUTOCTS_BENCH_E2E_COMMON_H_
#define AUTOCTS_BENCH_E2E_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/runtime_stats.h"
#include "core/autocts.h"
#include "data/task.h"
#include "trace.h"

namespace autocts::e2e {

/// Lanes of every thread pool the benchmark builds. Fixed, so a run on a
/// larger host measures the same program.
constexpr int kPoolThreads = 4;

/// Seed of QuickPretrainedFramework's source tasks.
constexpr uint64_t kCheckpointSeed = 2023;

/// What the command line passes to a workload.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the smoke test: checks every path, measures nothing.
  bool smoke = false;
  /// Scratch directory inside the checkout (checkpoints, shard banks).
  std::string workdir;
};

/// What one workload run produced.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Output-check violations; any one makes the run incorrect.
  std::vector<std::string> violations;
  /// Metric name -> (value, unit).
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// FNV-1a over the run's outputs in order.
  uint64_t digest = 1469598103934665603ull;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
  void Hash(const void* data, size_t n);
  void Hash(const std::string& s) { Hash(s.data(), s.size()); }
  void Hash(double v) { Hash(&v, sizeof(v)); }
};

/// One user path. The benchmark constructs a fresh workload for each
/// set-up repetition, times Setup(), and runs the last one.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Setup() = 0;
  virtual void Run(Report* report) = 0;
};

std::unique_ptr<Workload> MakePretrainWorkload(const RunConfig& config);
std::unique_ptr<Workload> MakeSearchWorkload(const RunConfig& config);
std::unique_ptr<Workload> MakeTrainWorkload(const RunConfig& config);
std::unique_ptr<Workload> MakeServeWorkload(const RunConfig& config);
std::unique_ptr<Workload> MakeStreamWorkload(const RunConfig& config);

// ---- Helpers shared by the workloads -------------------------------------

/// Paces a measured loop of whole units of work: Next() is true for the
/// first unit and then while one more mean-sized unit would end within
/// `seconds`. Runs stop short of the budget instead of overshooting it by up
/// to a unit, so every run of a workload does about the same work.
class UnitPacer {
 public:
  explicit UnitPacer(double seconds) : seconds_(seconds) {}

  bool Next() {
    const double elapsed = SecondsSince(start_);
    if (units_ > 0 && elapsed * (units_ + 1) / units_ > seconds_) return false;
    ++units_;
    return true;
  }
  double elapsed() const { return SecondsSince(start_); }

 private:
  double seconds_;
  int64_t units_ = 0;
  Clock::time_point start_ = Clock::now();
};

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

/// Highest resident set of this process so far, in MB.
double PeakRssMb();

/// Seed stream for unit `index` of a workload run: independent of how many
/// units an earlier, faster or slower run completed.
uint64_t UnitSeed(uint64_t seed, uint64_t index);

/// The Bench-preset options every workload starts from, on a fixed pool.
AutoCtsOptions BenchOptions();

/// Source datasets (pretraining corpora) and target datasets (unseen tasks)
/// at the Bench preset, generated once per set-up.
std::vector<CtsDatasetPtr> SourceDatasets(const ScaleConfig& scale);
std::vector<CtsDatasetPtr> TargetDatasets(const ScaleConfig& scale);

/// Shape of every task SubsetTask draws: the sensor count of the smallest
/// Bench dataset and a slice every dataset can give.
constexpr int kSubsetSensors = 4;
constexpr int kSubsetSteps = 360;

/// kSubsetSensors distinct sensors out of `num_series`, ascending.
std::vector<int> DrawSensors(int num_series, Rng* rng);

/// A seed-drawn task on a contiguous slice and a sensor subset of `data`,
/// as DeriveSubsetTask (paper Fig. 5) makes them, but of one fixed shape:
/// model cost grows with sensors and steps, and the datasets differ 3x in
/// both, so drawn shapes would make each workload's size depend on the seed.
ForecastTask SubsetTask(const CtsDatasetPtr& data, int p, int q,
                        bool single_step, Rng* rng);

/// `count` source tasks drawn like the paper's pretraining mix: subsets of
/// distinct source datasets, alternating P12/Q12 and P48/Q48.
std::vector<ForecastTask> DrawSourceTasks(const std::vector<CtsDatasetPtr>& sources,
                                          int count, Rng* rng);

/// A framework whose encoder and comparator went through a short pretrain
/// on two source tasks, standing in for a loaded checkpoint in the search,
/// serve and stream paths. The same for every seed, like a checkpoint: the
/// served model depends on what the comparator prefers, and a seed-drawn
/// comparator would make the model size, and so every latency, vary.
std::unique_ptr<AutoCtsPlusPlus> QuickPretrainedFramework();

/// Difference of two RuntimeStats snapshots, reported as the `tensor.*`
/// per-layer metrics; `units` is the workload's unit of work.
void ReportTensorDelta(const RuntimeStats& before, const RuntimeStats& after,
                       double units, Report* report);

}  // namespace autocts::e2e

#endif  // AUTOCTS_BENCH_E2E_COMMON_H_
