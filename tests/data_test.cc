#include "data/cts_dataset.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>

#include <gtest/gtest.h>

#include "data/csv_loader.h"
#include "data/metrics.h"
#include "data/synthetic.h"
#include "data/task.h"

namespace autocts {
namespace {

CtsDatasetPtr TinyDataset() {
  // 2 series, 6 steps, 1 feature. Series 0 = 0..5, series 1 = 10..15.
  std::vector<float> v = {0, 1, 2, 3, 4, 5, 10, 11, 12, 13, 14, 15};
  std::vector<float> adj = {1, 0.5f, 0.5f, 1};
  return std::make_shared<CtsDataset>("tiny", 2, 6, 1, v, adj);
}

TEST(CtsDatasetTest, AccessorsAndChecks) {
  auto d = TinyDataset();
  EXPECT_EQ(d->num_series(), 2);
  EXPECT_EQ(d->num_steps(), 6);
  EXPECT_EQ(d->value(0, 3, 0), 3.0f);
  EXPECT_EQ(d->value(1, 0, 0), 10.0f);
  EXPECT_EQ(d->adjacency(0, 1), 0.5f);
}

TEST(CtsDatasetTest, TemporalSlicePreservesValues) {
  auto d = TinyDataset();
  CtsDataset s = d->TemporalSlice(2, 3);
  EXPECT_EQ(s.num_steps(), 3);
  EXPECT_EQ(s.value(0, 0, 0), 2.0f);
  EXPECT_EQ(s.value(1, 2, 0), 14.0f);
  EXPECT_EQ(s.adjacency(0, 1), 0.5f);
}

TEST(CtsDatasetTest, SelectSensorsReprojectsAdjacency) {
  auto d = TinyDataset();
  CtsDataset s = d->SelectSensors({1});
  EXPECT_EQ(s.num_series(), 1);
  EXPECT_EQ(s.value(0, 0, 0), 10.0f);
  EXPECT_EQ(s.adjacency(0, 0), 1.0f);
}

TEST(CtsDatasetTest, MeanStdOnTrainFraction) {
  auto d = TinyDataset();
  float mean, std;
  d->MeanStd(0.5, &mean, &std);  // First 3 steps: {0,1,2,10,11,12}.
  EXPECT_NEAR(mean, 6.0f, 1e-5f);
  EXPECT_GT(std, 0.0f);
}

TEST(TaskTest, WindowCountAndSplits) {
  ForecastTask task;
  task.data = TinyDataset();
  task.p = 2;
  task.q = 1;
  task.train_ratio = 0.5;
  task.val_ratio = 0.25;
  EXPECT_EQ(task.num_windows(), 4);
  EXPECT_EQ(task.SplitStarts(0), (std::vector<int>{0, 1}));
  EXPECT_EQ(task.SplitStarts(1), (std::vector<int>{2}));
  EXPECT_EQ(task.SplitStarts(2), (std::vector<int>{3}));
}

TEST(TaskTest, NameEncodesSetting) {
  ForecastTask task;
  task.data = TinyDataset();
  task.p = 2;
  task.q = 1;
  EXPECT_NE(task.name().find("P2/Q1"), std::string::npos);
  task.single_step = true;
  EXPECT_NE(task.name().find("(1rd)"), std::string::npos);
}

TEST(WindowProviderTest, BatchShapesMultiStep) {
  ForecastTask task;
  task.data = TinyDataset();
  task.p = 2;
  task.q = 2;
  WindowProvider provider(task);
  WindowBatch b = provider.MakeBatch({0, 1});
  EXPECT_EQ(b.x.shape(), (std::vector<int>{2, 2, 2, 1}));
  EXPECT_EQ(b.y.shape(), (std::vector<int>{2, 2, 2, 1}));
  // Targets are on the original scale.
  EXPECT_EQ(b.y.at(0), 2.0f);  // window 0, series 0, step p+0
  EXPECT_EQ(b.y.at(1), 3.0f);
}

TEST(WindowProviderTest, InputIsScaled) {
  ForecastTask task;
  task.data = TinyDataset();
  task.p = 2;
  task.q = 2;
  WindowProvider provider(task);
  WindowBatch b = provider.MakeBatch({0});
  float expect = (0.0f - provider.mean()) / provider.std();
  EXPECT_NEAR(b.x.at(0), expect, 1e-5f);
}

TEST(WindowProviderTest, SingleStepTargetsQthStep) {
  ForecastTask task;
  task.data = TinyDataset();
  task.p = 2;
  task.q = 3;  // 3rd future step
  task.single_step = true;
  WindowProvider provider(task);
  WindowBatch b = provider.MakeBatch({0});
  EXPECT_EQ(b.y.shape(), (std::vector<int>{1, 2, 1, 1}));
  EXPECT_EQ(b.y.at(0), 4.0f);   // series 0: steps 0,1 input; target step 4
  EXPECT_EQ(b.y.at(1), 14.0f);  // series 1
}

TEST(WindowProviderTest, StartsSubsamplesEvenly) {
  ForecastTask task;
  task.data = std::make_shared<CtsDataset>(
      "long", 1, 100, 1, std::vector<float>(100, 1.0f),
      std::vector<float>{1.0f});
  task.p = 4;
  task.q = 4;
  WindowProvider provider(task);
  std::vector<int> all = provider.Starts(0);
  std::vector<int> some = provider.Starts(0, 10);
  EXPECT_EQ(some.size(), 10u);
  EXPECT_LT(some.back(), all.back() + 1);
  EXPECT_TRUE(std::is_sorted(some.begin(), some.end()));
}

TEST(MetricsTest, KnownValues) {
  std::vector<float> pred = {1, 2, 3};
  std::vector<float> tgt = {2, 2, 5};
  EXPECT_NEAR(Mae(pred, tgt), 1.0, 1e-9);
  EXPECT_NEAR(Rmse(pred, tgt), std::sqrt(5.0 / 3.0), 1e-9);
  EXPECT_NEAR(Mape(pred, tgt), 100.0 * (0.5 + 0.0 + 0.4) / 3.0, 1e-6);
}

TEST(MetricsTest, MapeMasksZeros) {
  std::vector<float> pred = {5, 1};
  std::vector<float> tgt = {0, 2};
  EXPECT_NEAR(Mape(pred, tgt), 50.0, 1e-9);
}

TEST(MetricsTest, RrsePerfectAndMeanPredictor) {
  std::vector<float> tgt = {1, 2, 3, 4};
  EXPECT_NEAR(Rrse(tgt, tgt), 0.0, 1e-9);
  std::vector<float> mean_pred(4, 2.5f);
  EXPECT_NEAR(Rrse(mean_pred, tgt), 1.0, 1e-6);
}

TEST(MetricsTest, CorrSignAndStride) {
  std::vector<float> a = {1, 2, 3, 4};
  std::vector<float> b = {2, 4, 6, 8};
  EXPECT_NEAR(Corr(a, b), 1.0, 1e-6);
  std::vector<float> c = {4, 3, 2, 1};
  EXPECT_NEAR(Corr(a, c), -1.0, 1e-6);
  // Two series of length 2, each perfectly correlated.
  EXPECT_NEAR(Corr(a, b, 2), 1.0, 1e-6);
}

TEST(MetricsTest, SpearmanHandlesMonotoneAndTies) {
  EXPECT_NEAR(SpearmanRho({1, 2, 3}, {10, 20, 30}), 1.0, 1e-9);
  EXPECT_NEAR(SpearmanRho({1, 2, 3}, {30, 20, 10}), -1.0, 1e-9);
  double rho = SpearmanRho({1, 1, 2, 3}, {1, 1, 2, 3});
  EXPECT_NEAR(rho, 1.0, 1e-9);
}

TEST(SyntheticTest, AllNamedDatasetsGenerate) {
  ScaleConfig cfg = ScaleConfig::Test();
  for (const auto& name : SourceDatasetNames()) {
    auto d = MakeSyntheticDataset(name, cfg).value();
    EXPECT_GE(d->num_series(), 3) << name;
    EXPECT_GE(d->num_steps(), 200) << name;
  }
  for (const auto& name : TargetDatasetNames()) {
    auto d = MakeSyntheticDataset(name, cfg).value();
    EXPECT_GE(d->num_series(), 3) << name;
  }
}

TEST(SyntheticTest, UnknownNameIsError) {
  ScaleConfig cfg = ScaleConfig::Test();
  StatusOr<CtsDatasetPtr> d = MakeSyntheticDataset("NOT-A-DATASET", cfg);
  EXPECT_FALSE(d.ok());
  EXPECT_NE(d.status().message().find("NOT-A-DATASET"), std::string::npos);
  // The error names the valid alternatives.
  EXPECT_NE(d.status().message().find("PEMS-BAY"), std::string::npos);
  StatusOr<DatasetProfile> p = ProfileFor("", cfg);
  EXPECT_FALSE(p.ok());
}

TEST(SyntheticTest, Deterministic) {
  ScaleConfig cfg = ScaleConfig::Test();
  auto a = MakeSyntheticDataset("PEMS-BAY", cfg).value();
  auto b = MakeSyntheticDataset("PEMS-BAY", cfg).value();
  EXPECT_EQ(a->values(), b->values());
  EXPECT_EQ(a->adjacency(), b->adjacency());
}

TEST(SyntheticTest, DomainSignatures) {
  ScaleConfig cfg = ScaleConfig::Test();
  // Traffic speeds stay within physical bounds.
  auto speed = MakeSyntheticDataset("PEMS-BAY", cfg).value();
  for (float v : speed->values()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 80.0f);
  }
  // Solar has exact zeros (night) and positive values (day).
  auto solar = MakeSyntheticDataset("Solar-Energy", cfg).value();
  int zeros = 0, positives = 0;
  for (float v : solar->values()) {
    if (v == 0.0f) ++zeros;
    if (v > 1.0f) ++positives;
  }
  EXPECT_GT(zeros, 0);
  EXPECT_GT(positives, 0);
  // Demand counts are non-negative.
  auto taxi = MakeSyntheticDataset("NYC-TAXI", cfg).value();
  for (float v : taxi->values()) EXPECT_GE(v, 0.0f);
  // Electricity scale is much larger than traffic-speed scale.
  auto elec = MakeSyntheticDataset("Electricity", cfg).value();
  float ms, ss, me, se;
  speed->MeanStd(1.0, &ms, &ss);
  elec->MeanStd(1.0, &me, &se);
  EXPECT_GT(me, 2.0f * ms);
}

TEST(SyntheticTest, SpatialCorrelationFollowsAdjacency) {
  ScaleConfig cfg;
  cfg.num_sensors = 8;
  cfg.num_steps = 400;
  auto d = MakeSyntheticDataset("PEMS-BAY", cfg).value();
  // Average |corr| between strongly-connected pairs should exceed that of
  // disconnected pairs.
  int n = d->num_series(), t_len = d->num_steps();
  auto series_corr = [&](int i, int j) {
    std::vector<float> a(static_cast<size_t>(t_len)), b(static_cast<size_t>(t_len));
    for (int t = 0; t < t_len; ++t) {
      a[static_cast<size_t>(t)] = d->value(i, t, 0);
      b[static_cast<size_t>(t)] = d->value(j, t, 0);
    }
    return Corr(a, b);
  };
  double linked = 0.0, unlinked = 0.0;
  int nl = 0, nu = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      double c = series_corr(i, j);
      if (d->adjacency(i, j) > 0.5f) {
        linked += c;
        ++nl;
      } else if (d->adjacency(i, j) == 0.0f) {
        unlinked += c;
        ++nu;
      }
    }
  }
  if (nl > 0 && nu > 0) {
    EXPECT_GE(linked / nl, unlinked / nu - 0.05);
  }
}

TEST(SubsetTaskTest, DeriveSubsetKeepsStructure) {
  ScaleConfig cfg = ScaleConfig::Test();
  auto d = MakeSyntheticDataset("PEMS04", cfg).value();
  Rng rng(3);
  ForecastTask task = DeriveSubsetTask(d, 12, 12, false, &rng);
  EXPECT_LE(task.data->num_series(), d->num_series());
  EXPECT_GE(task.data->num_series(), 2);
  EXPECT_LE(task.data->num_steps(), d->num_steps());
  EXPECT_GT(task.num_windows(), 0);
}

std::string MalformedCsvPath(const std::string& name,
                             const std::string& contents) {
  // Prefixed: parse_csv_test writes same-named files into the same
  // directory, and ctest -j runs the two binaries concurrently.
  std::string path = testing::TempDir() + "/data_test_" + name;
  std::ofstream(path) << contents;
  return path;
}

TEST(CsvGuardrailTest, RejectsNanValueWithLocation) {
  std::string path =
      MalformedCsvPath("nan.csv", "s0,s1\n1,2\n3,nan\n5,6\n");
  StatusOr<CtsDataset> d = LoadCtsCsv(path);
  ASSERT_FALSE(d.ok());
  // Row 3 of the file (header is row 1), column 1 (0-based).
  EXPECT_NE(d.status().message().find("non-finite"), std::string::npos)
      << d.status().message();
  EXPECT_NE(d.status().message().find("row 3"), std::string::npos)
      << d.status().message();
  EXPECT_NE(d.status().message().find("column 1"), std::string::npos)
      << d.status().message();
}

TEST(CsvGuardrailTest, RejectsInfinityAndOverflow) {
  // Explicit inf spelling and a value that overflows float to +inf: both
  // would poison the z-score scaler silently.
  EXPECT_FALSE(
      LoadCtsCsv(MalformedCsvPath("inf.csv", "s0\n1\ninf\n")).ok());
  EXPECT_FALSE(
      LoadCtsCsv(MalformedCsvPath("huge.csv", "s0\n1\n1e99\n")).ok());
  EXPECT_FALSE(
      LoadCtsCsv(MalformedCsvPath("neginf.csv", "s0\n1\n-inf\n")).ok());
}

TEST(CsvGuardrailTest, RejectsRaggedRowWithCounts) {
  std::string path =
      MalformedCsvPath("ragged.csv", "s0,s1\n1,2\n3\n5,6\n");
  StatusOr<CtsDataset> d = LoadCtsCsv(path);
  ASSERT_FALSE(d.ok());
  EXPECT_NE(d.status().message().find("ragged row 3"), std::string::npos)
      << d.status().message();
  EXPECT_NE(d.status().message().find("expected 2"), std::string::npos)
      << d.status().message();
  EXPECT_NE(d.status().message().find("got 1"), std::string::npos)
      << d.status().message();
}

TEST(CsvGuardrailTest, RejectsNonFiniteAdjacency) {
  std::string data = MalformedCsvPath("okdata.csv", "s0,s1\n1,2\n3,4\n5,6\n");
  std::string adj = MalformedCsvPath("badadj.csv", "1,nan\nnan,1\n");
  CsvOptions opts;
  opts.adjacency_path = adj;
  EXPECT_FALSE(LoadCtsCsv(data, opts).ok());
}

TEST(CsvMissingTest, StrictModeRejectsHolesAllowMissingAccepts) {
  // Same file, both modes: an empty cell and a "nan" cell.
  std::string path = MalformedCsvPath("holes.csv", "s0,s1\n,10\n2,nan\n4,30\n");
  // Strict (default) keeps rejecting with a locatable error.
  StatusOr<CtsDataset> strict = LoadCtsCsv(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("row 2"), std::string::npos)
      << strict.status().message();
  // allow_missing loads, masks the holes, and imputes.
  CsvOptions opts;
  opts.allow_missing = true;
  StatusOr<CtsDataset> loaded = LoadCtsCsv(path, opts);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const CtsDataset& d = loaded.value();
  ASSERT_TRUE(d.has_missing());
  EXPECT_TRUE(d.is_missing(0, 0, 0));   // Empty cell.
  EXPECT_TRUE(d.is_missing(1, 1, 0));   // "nan" cell.
  EXPECT_FALSE(d.is_missing(0, 1, 0));
  EXPECT_FALSE(d.is_missing(1, 2, 0));
  // Series 0 leads with a hole: imputed with the mean of its observed
  // points {2, 4}. Series 1's interior hole carries the last observation.
  EXPECT_FLOAT_EQ(d.value(0, 0, 0), 3.0f);
  EXPECT_FLOAT_EQ(d.value(0, 1, 0), 2.0f);
  EXPECT_FLOAT_EQ(d.value(1, 1, 0), 10.0f);
  EXPECT_FLOAT_EQ(d.value(1, 2, 0), 30.0f);
}

TEST(CsvMissingTest, FullyObservedFileCarriesNoMask) {
  std::string path = MalformedCsvPath("full.csv", "s0,s1\n1,2\n3,4\n");
  CsvOptions opts;
  opts.allow_missing = true;
  StatusOr<CtsDataset> loaded = LoadCtsCsv(path, opts);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_FALSE(loaded.value().has_missing());
  EXPECT_FLOAT_EQ(loaded.value().value(1, 1, 0), 4.0f);
}

TEST(CtsDatasetTest, MissingMaskPropagatesAndScalerSkipsHoles) {
  // Series 0 = 0..5 with t=1,2 masked; series 1 = 10..15 fully observed.
  std::vector<float> v = {0, 1, 2, 3, 4, 5, 10, 11, 12, 13, 14, 15};
  std::vector<float> adj = {1, 0.5f, 0.5f, 1};
  CtsDataset d("tiny-miss", 2, 6, 1, v, adj);
  std::vector<uint8_t> mask(12, 0);
  mask[1] = mask[2] = 1;
  d.SetMissing(mask);
  ASSERT_TRUE(d.has_missing());
  // MeanStd over the full span skips the two masked points:
  // observed = {0,3,4,5, 10..15} -> mean = 87/10.
  float mean = 0, std = 0;
  d.MeanStd(1.0, &mean, &std);
  EXPECT_NEAR(mean, 8.7f, 1e-5);
  // TemporalSlice keeps the overlapping mask entries.
  CtsDataset slice = d.TemporalSlice(1, 3);  // t = 1..3
  ASSERT_TRUE(slice.has_missing());
  EXPECT_TRUE(slice.is_missing(0, 0, 0));
  EXPECT_TRUE(slice.is_missing(0, 1, 0));
  EXPECT_FALSE(slice.is_missing(0, 2, 0));
  EXPECT_FALSE(slice.is_missing(1, 0, 0));
  // SelectSensors keeps the selected series' mask rows.
  CtsDataset sel = d.SelectSensors({1, 0});
  ASSERT_TRUE(sel.has_missing());
  EXPECT_FALSE(sel.is_missing(0, 1, 0));  // Old series 1 -> new series 0.
  EXPECT_TRUE(sel.is_missing(1, 1, 0));   // Old series 0 -> new series 1.
}

TEST(MetricsTest, MaskedVariantsMatchHandComputedValues) {
  std::vector<float> pred = {1, 2, 3, 4};
  std::vector<float> tgt = {2, 2, 5, 0};
  std::vector<uint8_t> skip = {0, 1, 0, 0};  // Point 1 excluded.
  // Included errors: |1-2|=1, |3-5|=2, |4-0|=4.
  EXPECT_NEAR(MaskedMae(pred, tgt, skip), 7.0 / 3.0, 1e-9);
  EXPECT_NEAR(MaskedRmse(pred, tgt, skip), std::sqrt(21.0 / 3.0), 1e-9);
  // MAPE further drops point 3 (|target| below threshold):
  // 100 * (1/2 + 2/5) / 2.
  EXPECT_NEAR(MaskedMape(pred, tgt, skip), 45.0, 1e-6);
  // Empty skip vector = include everything (matches unmasked metrics).
  EXPECT_NEAR(MaskedMae(pred, tgt, {}), Mae(pred, tgt), 1e-12);
  EXPECT_NEAR(MaskedRmse(pred, tgt, {}), Rmse(pred, tgt), 1e-12);
  // Fully masked tick contributes 0, not a division by zero.
  std::vector<uint8_t> all(4, 1);
  EXPECT_EQ(MaskedMae(pred, tgt, all), 0.0);
  EXPECT_EQ(MaskedRmse(pred, tgt, all), 0.0);
  EXPECT_EQ(MaskedMape(pred, tgt, all), 0.0);
}

TEST(SyntheticTest, ScenarioOverlaysAreDeterministicAndWellFormed) {
  ScaleConfig cfg;
  StatusOr<CtsDatasetPtr> clean = MakeSyntheticDataset("METR-LA", cfg);
  ASSERT_TRUE(clean.ok()) << clean.status().message();

  ScenarioSpec spec;
  spec.kind = ScenarioKind::kSensorDropout;
  spec.onset = 40;
  spec.duration = 30;
  spec.fraction = 0.5f;
  spec.seed = 77;
  ScenarioData a = ApplyScenario(clean.value(), spec);
  ScenarioData b = ApplyScenario(clean.value(), spec);
  // Same (clean, spec) -> bit-identical overlay.
  EXPECT_EQ(a.observed->values(), b.observed->values());
  EXPECT_EQ(a.missing, b.missing);
  EXPECT_EQ(a.anomaly, b.anomaly);
  // Dropout marks readings missing and mirrors the mask onto the dataset.
  size_t dropped = 0;
  for (uint8_t m : a.missing) dropped += m != 0;
  EXPECT_GT(dropped, 0u);
  EXPECT_TRUE(a.observed->has_missing());
  // Ground truth is untouched.
  EXPECT_EQ(a.clean->values(), clean.value()->values());

  // Stationary = identity overlay.
  ScenarioSpec none;
  none.kind = ScenarioKind::kStationary;
  ScenarioData s = ApplyScenario(clean.value(), none);
  EXPECT_EQ(s.observed->values(), clean.value()->values());
  EXPECT_TRUE(s.missing.empty() ||
              std::count(s.missing.begin(), s.missing.end(), 1) == 0);

  // Regime shift changes values only from onset on.
  ScenarioSpec shift;
  shift.kind = ScenarioKind::kRegimeShift;
  shift.onset = 60;
  shift.magnitude = 3.0f;
  ScenarioData r = ApplyScenario(clean.value(), shift);
  const CtsDataset& cd = *clean.value();
  for (int n = 0; n < cd.num_series(); ++n) {
    for (int t = 0; t < shift.onset; ++t) {
      ASSERT_EQ(r.observed->value(n, t, 0), cd.value(n, t, 0));
    }
  }
  bool changed = false;
  for (int n = 0; n < cd.num_series() && !changed; ++n) {
    for (int t = shift.onset; t < cd.num_steps(); ++t) {
      if (r.observed->value(n, t, 0) != cd.value(n, t, 0)) {
        changed = true;
        break;
      }
    }
  }
  EXPECT_TRUE(changed);
}

}  // namespace
}  // namespace autocts
