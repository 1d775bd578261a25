// stream: the serving layer used for writes. The service of the serve
// workload opens 4 sessions with StreamOpen on target-dataset windows, one
// per ScenarioKind: regime shift, sensor dropout, anomaly burst and
// stationary. Two phases:
//   scheduled  one generator thread pushes every session's next tick at
//              kTickRate ticks/s per session (80% of the time) — tick
//              latency, from when a tick was due until every session has
//              it, and a drift that sends a re-search through the
//              service queue, trains a model and hot-swaps it while ticks
//              keep arriving;
//   burst      the same thread pushes the following ticks back to back
//              (20% of the time) — how many ticks/s one producer sustains.
#include <cmath>
#include <cstdio>
#include <thread>

#include "common.h"
#include "data/synthetic.h"
#include "serve/service.h"

namespace autocts::e2e {
namespace {

using serve::RecommendationService;

constexpr double kTickRate = 100.0;
constexpr double kScheduledShare = 0.8;
constexpr int kBurstTicks = 3000;  ///< Per session: more than a burst can use.
constexpr int kSeedSteps = 256;    ///< Seed window = re-search history.
constexpr int kTailTicks = 500;    ///< Ticks of the recovered-MAE window.
constexpr ScenarioKind kKinds[] = {ScenarioKind::kRegimeShift,
                                   ScenarioKind::kSensorDropout,
                                   ScenarioKind::kAnomalyBurst,
                                   ScenarioKind::kStationary};
constexpr int kSessions = 4;
constexpr uint64_t kSessionSeed = 7;

stream::StreamOptions Knobs() {
  stream::StreamOptions k;
  k.warmup = 64;
  // The library defaults (delta 0.05, lambda 8) trigger on the synthetic
  // datasets' seasonal error swings; these keep the stationary session
  // quiet and still catch a 3-sigma regime shift within ~20 ticks.
  k.ph_delta = 0.5f;
  k.ph_lambda = 30.0f;
  k.error_window = 128;
  k.recovery = true;
  k.research_retries = 2;
  k.research_backoff = 16;
  k.research_deadline = 32;
  // Launch re-search once the history ring holds only post-drift ticks.
  k.research_delay = kSeedSteps;
  return k;
}

struct Session {
  ScenarioKind kind = ScenarioKind::kStationary;
  uint64_t id = 0;
  ScenarioData live;  ///< Ticks pushed after the open.
  std::vector<double> errors;  ///< Scored error per pushed tick (NaN = none).
  uint64_t drifts = 0, swaps = 0;
  int first_drift = -1, first_swap = -1;
};

class StreamWorkload : public Workload {
 public:
  explicit StreamWorkload(const RunConfig& config) : config_(config) {}

  ~StreamWorkload() override {
    if (service_ != nullptr) service_->Shutdown();
  }

  void Setup() override;
  void Run(Report* report) override;

 private:
  int ScheduledTicks() const {
    return config_.smoke ? 700
                         : static_cast<int>(kTickRate * kScheduledShare * config_.seconds);
  }
  int LiveTicks() const { return ScheduledTicks() + kBurstTicks; }

  /// Pushes tick `t` of `s`; returns the push time in ms.
  double Push(Session* s, int t, Report* report);

  RunConfig config_;
  std::unique_ptr<AutoCtsPlusPlus> framework_;
  std::unique_ptr<RecommendationService> service_;
  std::vector<Session> sessions_;
  std::vector<double> open_s_;
  std::vector<double> swap_ms_;
};

void StreamWorkload::Setup() {
  const ScaleConfig bench = ScaleConfig::Bench();
  framework_ = QuickPretrainedFramework();
  service_ = std::make_unique<RecommendationService>(
      framework_->comparator(), framework_->encoder(), &framework_->space(),
      serve::ServeOptions::ForScale(bench));
  CHECK(service_->Start().ok());

  // Longer series than the Bench preset: the smallest target dataset has
  // about half the preset's steps, and a session needs seed + live ticks.
  const int live = LiveTicks();
  ScaleConfig long_scale = bench;
  long_scale.num_steps = 2 * (kSeedSteps + live) + 64;
  // The session windows are fixed and only the fault overlays come from
  // the seed: the seed window decides which arch-hyper a session serves, and
  // served models differ 10x in cost per tick, so seed-drawn windows would
  // make the tick latency a random variable of the seed.
  std::vector<std::string> names = TargetDatasetNames();
  Rng rng(kSessionSeed);
  rng.Shuffle(&names);
  for (int s = 0; s < kSessions; ++s) {
    const CtsDatasetPtr full = MakeSyntheticDataset(names[s], long_scale).value();
    Session session;
    session.kind = kKinds[s];
    const int t0 = rng.Int(0, full->num_steps() - kSeedSteps - live);
    const CtsDataset picked = full->TemporalSlice(t0, kSeedSteps + live)
                                  .SelectSensors(DrawSensors(full->num_series(), &rng));
    ScenarioSpec spec;
    spec.kind = session.kind;
    spec.onset = ScheduledTicks() / 4;
    spec.magnitude = 3.0f;
    spec.fraction = 0.3f;
    spec.seed = UnitSeed(config_.seed, static_cast<uint64_t>(s));
    session.live = ApplyScenario(
        std::make_shared<const CtsDataset>(picked.TemporalSlice(kSeedSteps, live)), spec);

    const CtsDataset seed_window = picked.TemporalSlice(0, kSeedSteps);
    serve::RecommendRequest request;
    request.window = seed_window.values();
    request.num_series = seed_window.num_series();
    request.num_steps = kSeedSteps;
    request.adjacency = seed_window.adjacency();
    request.p = 12;
    request.q = 12;
    const Clock::time_point t = Clock::now();
    StatusOr<uint64_t> id = [&] {
      Span span("stream.open", "stream", static_cast<uint64_t>(s));
      return service_->StreamOpen(request, Knobs());
    }();
    open_s_.push_back(SecondsSince(t));
    CHECK(id.ok()) << id.status().message();
    session.id = id.value();
    sessions_.push_back(std::move(session));
  }
}

double StreamWorkload::Push(Session* s, int t, Report* report) {
  const int live = LiveTicks();
  const CtsDataset& observed = *s->live.observed;
  std::vector<float> values(kSubsetSensors);
  std::vector<uint8_t> missing(kSubsetSensors);
  bool any_missing = false;
  for (int n = 0; n < kSubsetSensors; ++n) {
    values[static_cast<size_t>(n)] = observed.value(n, t, 0);
    missing[static_cast<size_t>(n)] = s->live.missing[static_cast<size_t>(n) * live + t];
    any_missing = any_missing || missing[static_cast<size_t>(n)] != 0;
  }
  const Clock::time_point t0 = Clock::now();
  StatusOr<stream::TickResult> r = [&] {
    Span span("stream.push", "stream", s->id);
    return service_->StreamPush(s->id, values,
                                any_missing ? missing : std::vector<uint8_t>{});
  }();
  const double push_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  ++report->attempted;
  if (!r.ok()) {
    ++report->failed;
    report->Check(false, "StreamPush failed: " + r.status().message());
    s->errors.push_back(std::nan(""));
    return push_ms;
  }
  const stream::TickResult& tick = r.value();
  s->errors.push_back(tick.scored ? tick.error : std::nan(""));
  if (tick.drift && s->first_drift < 0) s->first_drift = t;
  if (tick.swapped && s->first_swap < 0) s->first_swap = t;
  s->drifts += tick.drift ? 1 : 0;
  s->swaps += tick.swapped ? 1 : 0;
  if (tick.swapped) swap_ms_.push_back(push_ms);
  return push_ms;
}

void StreamWorkload::Run(Report* report) {
  const int scheduled = ScheduledTicks();
  const double rate = config_.smoke ? 2000.0 : kTickRate;
  std::vector<double> tick_ms, push_ms, late_ms;
  const ServeStats before = service_->stats();
  {
    Span phase("stream.scheduled", "bench");
    const Clock::time_point start = Clock::now();
    for (int t = 0; t < scheduled; ++t) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(t / rate));
      std::this_thread::sleep_until(due);
      late_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - due).count());
      for (Session& s : sessions_) push_ms.push_back(Push(&s, t, report));
      // A tick is done when every session has it. Per session, the sessions
      // serve models of different cost, so a median over (session, tick)
      // would sit in the gap between two sessions' latencies.
      tick_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - due).count());
    }
  }
  int burst_ticks = 0;
  double burst_s = 0.0;
  {
    Span phase("stream.burst", "bench");
    const double seconds = config_.seconds * (1.0 - kScheduledShare);
    const Clock::time_point start = Clock::now();
    for (int t = scheduled; t < LiveTicks() && SecondsSince(start) < seconds; ++t) {
      for (Session& s : sessions_) Push(&s, t, report);
      burst_ticks += kSessions;
    }
    burst_s = SecondsSince(start);
  }
  const ServeStats after = service_->stats();

  double ratio_sum = 0.0, recovery_sum = 0.0;
  int faulted = 0, recovered = 0;
  uint64_t failures = 0, drifts = 0, swaps = 0;
  const int onset = scheduled / 4;
  for (const Session& s : sessions_) {
    const StatusOr<stream::StreamEngineStats> st = service_->StreamStats(s.id);
    if (st.ok()) failures += st.value().research_failures;
    drifts += s.drifts;
    swaps += s.swaps;
    // Online MAE over scheduled ticks [from, to).
    auto mae = [&](int from, int to) {
      double sum = 0.0;
      int n = 0;
      for (int t = std::max(from, 0); t < to; ++t) {
        const double e = s.errors[static_cast<size_t>(t)];
        if (std::isfinite(e)) {
          sum += e;
          ++n;
        }
      }
      return n > 0 ? sum / n : std::nan("");
    };
    // The scheduled phase is the same ticks in every run; how far the burst
    // got is not, so the digest covers the scheduled errors only.
    for (int t = 0; t < scheduled; ++t) report->Hash(s.errors[static_cast<size_t>(t)]);
    std::printf("[e2e] stream session %-14s drifts %llu swaps %llu first drift %d "
                "first swap %d mae pre-onset %.4f last %d %.4f\n",
                ScenarioKindName(s.kind), static_cast<unsigned long long>(s.drifts),
                static_cast<unsigned long long>(s.swaps), s.first_drift, s.first_swap,
                mae(0, onset), kTailTicks, mae(scheduled - kTailTicks, scheduled));
    if (s.kind == ScenarioKind::kStationary) {
      report->Check(s.drifts == 0, "the stationary session drifted");
      continue;
    }
    if (s.kind == ScenarioKind::kRegimeShift) {
      report->Check(s.swaps >= 1, "the regime-shift session never swapped");
    }
    ratio_sum += mae(scheduled - kTailTicks, scheduled) / mae(0, onset);
    ++faulted;
    if (s.first_swap >= 0) {
      recovery_sum += s.first_swap - onset;
      ++recovered;
    }
  }
  report->failed += static_cast<int64_t>(failures);
  report->Check(failures == 0, "a re-search failed");

  report->Set("throughput_per_s", burst_ticks / burst_s, "1/s");
  report->Set("latency_p50_ms", Percentile(tick_ms, 50), "ms");
  report->Set("stream.tick_p99_ms", Percentile(tick_ms, 99), "ms");
  report->Set("stream.push_ms_p50", Percentile(push_ms, 50), "ms");
  report->Set("stream.push_ms_p99", Percentile(push_ms, 99), "ms");
  report->Set("stream.swap_tick_ms", Percentile(swap_ms_, 100), "ms");
  report->Set("stream.generator_late_ms_p99", Percentile(late_ms, 99), "ms");
  report->Set("stream.open_s", Percentile(open_s_, 50), "s");
  report->Set("stream.models_trained",
              static_cast<double>(after.models_trained - before.models_trained), "count");
  report->Set("stream.drifts", static_cast<double>(drifts), "count");
  report->Set("stream.swaps", static_cast<double>(swaps), "count");
  report->Set("stream.recovery_ticks", recovered > 0 ? recovery_sum / recovered : 0.0,
              "ticks");
  report->Set("stream.research_failures", static_cast<double>(failures), "count");
  report->Set("stream.mae_ratio", faulted > 0 ? ratio_sum / faulted : 0.0, "ratio");
}

}  // namespace

std::unique_ptr<Workload> MakeStreamWorkload(const RunConfig& config) {
  return std::make_unique<StreamWorkload>(config);
}

}  // namespace autocts::e2e
