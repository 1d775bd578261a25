#include "common.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

#include "data/synthetic.h"

namespace autocts::e2e {

void Report::Hash(const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    digest ^= p[i];
    digest *= 1099511628211ull;
  }
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

uint64_t UnitSeed(uint64_t seed, uint64_t index) {
  // splitmix64 of (seed, index): decorrelated streams per unit.
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

AutoCtsOptions BenchOptions() {
  AutoCtsOptions o = AutoCtsOptions::ForScale(ScaleConfig::Bench());
  o.num_threads = kPoolThreads;
  return o;
}

namespace {

std::vector<CtsDatasetPtr> Generate(const std::vector<std::string>& names,
                                    const ScaleConfig& scale) {
  std::vector<CtsDatasetPtr> out;
  for (const std::string& name : names) {
    out.push_back(MakeSyntheticDataset(name, scale).value());
  }
  return out;
}

}  // namespace

std::vector<CtsDatasetPtr> SourceDatasets(const ScaleConfig& scale) {
  return Generate(SourceDatasetNames(), scale);
}

std::vector<CtsDatasetPtr> TargetDatasets(const ScaleConfig& scale) {
  return Generate(TargetDatasetNames(), scale);
}

std::vector<int> DrawSensors(int num_series, Rng* rng) {
  std::vector<int> sensors(static_cast<size_t>(num_series));
  std::iota(sensors.begin(), sensors.end(), 0);
  rng->Shuffle(&sensors);
  sensors.resize(static_cast<size_t>(std::min(kSubsetSensors, num_series)));
  std::sort(sensors.begin(), sensors.end());
  return sensors;
}

ForecastTask SubsetTask(const CtsDatasetPtr& data, int p, int q,
                        bool single_step, Rng* rng) {
  const int steps = data->num_steps();
  const int len = std::min(steps, kSubsetSteps);
  CHECK_GE(len, p + q + 8) << "slice too short for P/Q";
  const int t0 = rng->Int(0, steps - len);
  ForecastTask task;
  task.data = std::make_shared<CtsDataset>(data->TemporalSlice(t0, len).SelectSensors(
      DrawSensors(data->num_series(), rng)));
  task.p = p;
  task.q = q;
  task.single_step = single_step;
  return task;
}

std::vector<ForecastTask> DrawSourceTasks(const std::vector<CtsDatasetPtr>& sources,
                                          int count, Rng* rng) {
  std::vector<CtsDatasetPtr> order = sources;
  rng->Shuffle(&order);
  std::vector<ForecastTask> tasks;
  for (int i = 0; i < count; ++i) {
    // Settings alternate rather than being drawn: a P48 task costs several
    // P12 tasks, and a seed-drawn mix would make the workload's size vary.
    const int p = i % 2 == 0 ? 12 : 48;
    tasks.push_back(SubsetTask(order[static_cast<size_t>(i) % order.size()], p,
                               p, /*single_step=*/false, rng));
  }
  return tasks;
}

std::unique_ptr<AutoCtsPlusPlus> QuickPretrainedFramework() {
  const std::vector<CtsDatasetPtr> sources = SourceDatasets(ScaleConfig::Bench());
  AutoCtsOptions o = BenchOptions();
  o.collect.shared_count = 2;
  o.collect.random_count = 2;
  o.collect.early_validation_epochs = 1;
  o.pretrain.epochs = 4;
  auto framework = std::make_unique<AutoCtsPlusPlus>(o);
  Rng rng(kCheckpointSeed);
  const StatusOr<PretrainReport> report =
      framework->TryPretrain(DrawSourceTasks(sources, 2, &rng));
  CHECK(report.ok()) << report.status().message();
  framework->comparator()->SetTraining(false);
  return framework;
}

void ReportTensorDelta(const RuntimeStats& before, const RuntimeStats& after,
                       double units, Report* report) {
  const double replays =
      static_cast<double>(after.plan.replays - before.plan.replays);
  const double captures =
      static_cast<double>(after.plan.captures - before.plan.captures);
  const double hits = static_cast<double>(after.pool.hits - before.pool.hits);
  const double misses =
      static_cast<double>(after.pool.misses - before.pool.misses);
  const double per = units > 0.0 ? 1.0 / units : 0.0;
  report->Set("tensor.plan_replay_ratio",
              replays + captures > 0.0 ? replays / (replays + captures) : 0.0,
              "fraction");
  report->Set("tensor.plan_poisoned",
              static_cast<double>(after.plan.poisoned - before.plan.poisoned),
              "count");
  report->Set("tensor.plan_invalidations",
              static_cast<double>(after.plan.invalidations -
                                  before.plan.invalidations),
              "count");
  report->Set("tensor.pool_hit_rate",
              hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "fraction");
  report->Set("tensor.gemm_small_per_unit",
              per * static_cast<double>(after.backend.gemm_small_calls -
                                        before.backend.gemm_small_calls),
              "calls");
  report->Set("tensor.gemm_micro_per_unit",
              per * static_cast<double>(after.backend.gemm_micro_calls -
                                        before.backend.gemm_micro_calls),
              "calls");
  report->Set("tensor.qgemm_per_unit",
              per * static_cast<double>(
                        after.backend.qgemm_s8_calls + after.backend.qgemm_bf16_calls -
                        before.backend.qgemm_s8_calls - before.backend.qgemm_bf16_calls),
              "calls");
}

}  // namespace autocts::e2e
