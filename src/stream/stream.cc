#include "stream/stream.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <utility>

#include "common/check.h"
#include "common/fault.h"
#include "data/metrics.h"
#include "tensor/plan.h"

namespace autocts {
namespace stream {
namespace {

/// Process-unique engine ids: keys of the per-thread plan cache below. An
/// atomic counter, not the engine address, so an id is never reused — a
/// recycled allocation cannot alias a dead engine's cached plan.
std::atomic<uint64_t> g_engine_ids{1};

/// Per-thread cache of captured stream-forecast plans, keyed by engine id.
/// A StepPlan must replay (and die) on its capture thread, while successive
/// pushes of one engine may come from different threads — so each pushing
/// thread captures its own plan per engine and invalidates it locally when
/// the engine's model generation moves past it. Capped: least-recently-used
/// entries are destroyed (safely: this thread owns them) to bound pinned
/// model memory when one thread serves many streams.
struct TlsPlanEntry {
  std::unique_ptr<StepPlan> plan;
  uint64_t generation = ~uint64_t{0};
  int num_series = 0;
  int p = 0;
  uint64_t last_use = 0;
};

struct TlsStreamPlans {
  std::map<uint64_t, TlsPlanEntry> by_engine;
  uint64_t use_clock = 0;
};

thread_local TlsStreamPlans t_stream_plans;
constexpr size_t kMaxStreamPlansPerThread = 8;

TlsPlanEntry& PlanEntryFor(uint64_t engine_id) {
  TlsStreamPlans& tls = t_stream_plans;
  auto it = tls.by_engine.find(engine_id);
  if (it == tls.by_engine.end()) {
    if (tls.by_engine.size() >= kMaxStreamPlansPerThread) {
      auto victim = tls.by_engine.begin();
      for (auto jt = tls.by_engine.begin(); jt != tls.by_engine.end(); ++jt) {
        if (jt->second.last_use < victim->second.last_use) victim = jt;
      }
      tls.by_engine.erase(victim);
    }
    it = tls.by_engine.emplace(engine_id, TlsPlanEntry{}).first;
    it->second.plan = std::make_unique<StepPlan>();
  }
  it->second.last_use = ++tls.use_clock;
  return it->second;
}

/// FNV-1a over raw float bytes — the content half of re-search seeds, so a
/// re-search over the same history is the same search wherever it runs.
uint64_t HashFloats(const std::vector<float>& v) {
  uint64_t h = 1469598103934665603ull;
  const unsigned char* bytes =
      reinterpret_cast<const unsigned char*>(v.data());
  for (size_t i = 0; i < v.size() * sizeof(float); ++i) {
    h ^= static_cast<uint64_t>(bytes[i]);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

StreamEngine::StreamEngine(StreamOptions options, StreamModel initial,
                           Researcher researcher)
    : options_(std::move(options)),
      current_(std::move(initial)),
      researcher_(std::move(researcher)),
      engine_id_(g_engine_ids.fetch_add(1, std::memory_order_relaxed)),
      ring_(options_.num_series, options_.p),
      detector_(options_.warmup, options_.ph_delta, options_.ph_lambda) {
  CHECK_GT(options_.num_series, 0);
  CHECK_GT(options_.p, 0);
  CHECK_GT(options_.history, options_.p);
  CHECK_GT(options_.error_window, 0);
  CHECK_GT(options_.research_backoff, 0);
  CHECK_GT(options_.research_deadline, 0);
  CHECK_GE(options_.research_delay, 0);
  CHECK(current_.model != nullptr) << "stream engine needs an initial model";
  CHECK(!options_.recovery || researcher_ != nullptr)
      << "recovery enabled but no researcher injected";
  if (!options_.adjacency.empty()) {
    CHECK_EQ(options_.adjacency.size(),
             static_cast<size_t>(options_.num_series) * options_.num_series);
  }
  hist_values_.assign(
      static_cast<size_t>(options_.history) * options_.num_series, 0.0f);
  hist_missing_.assign(hist_values_.size(), 0);
  recent_errors_.assign(static_cast<size_t>(options_.error_window), 0.0);
}

StreamEngine::~StreamEngine() {
  if (inflight_.valid()) inflight_.wait();
}

TickResult StreamEngine::Push(const float* values, const uint8_t* missing) {
  TickResult out;
  const int n = options_.num_series;

  // 1. Score the previous forecast against this tick's observations —
  //    BEFORE ingesting, so the target is the genuinely new data.
  Score(values, missing, &out);

  // 2. Ingest: ring window (LOCF imputation) + raw history ring.
  const int64_t tick = ring_.ticks();  // This tick's index.
  ring_.Push(values, missing);
  float* hrow = hist_values_.data() +
                static_cast<size_t>(tick % options_.history) * n;
  uint8_t* hmiss = hist_missing_.data() +
                   static_cast<size_t>(tick % options_.history) * n;
  for (int i = 0; i < n; ++i) {
    const bool miss = missing != nullptr && missing[i] != 0;
    // History holds the imputed value for missing points (ring_.last was
    // just refreshed), so re-search trains on the same finite series the
    // forecaster saw — the mask still marks the hole.
    hrow[i] = miss ? ring_.last(i) : values[i];
    hmiss[i] = miss ? 1 : 0;
    if (miss) ++stats_.imputed_points;
  }
  ++stats_.ticks;

  // 3. Recovery state machine, clocked purely by ticks. Runs BEFORE drift
  //    detection so a launch tick (either path) never counts toward its own
  //    deadline: a search launched at tick T is collected exactly at tick
  //    T + research_deadline.
  if (recovery_state_ == RecoveryState::kSearching) {
    if (++ticks_waiting_ >= options_.research_deadline) {
      CollectResearch(&out);
    }
  } else if (recovery_state_ == RecoveryState::kBackoff) {
    if (--backoff_wait_ <= 0) LaunchResearch();
  }

  // 4. Drift detection over the online error. A swap tick's error was
  //    scored against the OLD model's forecast — keep it out of the new
  //    model's fresh warm-up.
  if (out.scored && !out.swapped) {
    if (detector_.Update(out.error)) {
      out.drift = true;
      ++stats_.drifts;
      // Re-warm: the statistic stays above lambda once crossed, and after
      // recovery the baseline must re-freeze against the new model's error
      // level anyway.
      detector_.Reset();
      if (options_.recovery && recovery_state_ == RecoveryState::kIdle) {
        attempts_left_ = options_.research_retries + 1;
        backoff_ticks_ = options_.research_backoff;
        if (options_.research_delay > 0) {
          // Collection delay: reuse the backoff countdown so the launch
          // lands at exactly trigger + research_delay, once the history
          // ring has refilled with post-drift ticks.
          recovery_state_ = RecoveryState::kBackoff;
          backoff_wait_ = options_.research_delay;
        } else {
          LaunchResearch();
        }
      }
    }
  }

  // 5. Forecast the next step once the window has filled.
  if (ring_.full()) Forecast(&out);

  out.generation = stats_.generation;
  return out;
}

void StreamEngine::Score(const float* values, const uint8_t* missing,
                         TickResult* out) {
  if (!have_forecast_) return;
  const int n = options_.num_series;
  std::vector<float> target(values, values + n);
  std::vector<uint8_t> skip;
  int observed = n;
  if (missing != nullptr) {
    skip.assign(missing, missing + n);
    for (int i = 0; i < n; ++i) {
      if (skip[static_cast<size_t>(i)] != 0) --observed;
    }
  }
  if (observed == 0) return;  // Fully masked tick: nothing to score.
  out->error = MaskedMae(prev_forecast_, target, skip);
  out->scored = true;
  ++stats_.scored_ticks;

  // Rolling recent-MAE window.
  const size_t cap = recent_errors_.size();
  if (recent_count_ == cap) {
    recent_sum_ -= recent_errors_[recent_head_];
  } else {
    ++recent_count_;
  }
  recent_errors_[recent_head_] = out->error;
  recent_head_ = (recent_head_ + 1) % cap;
  recent_sum_ += out->error;
  out->recent_mae = recent_sum_ / static_cast<double>(recent_count_);
}

void StreamEngine::LaunchResearch() {
  CHECK_GT(attempts_left_, 0);
  --attempts_left_;
  ++stats_.research_launched;
  const int64_t ordinal = research_ordinal_++;
  // Probed on the push thread at launch so an injected failure lands at a
  // deterministic tick regardless of background scheduling.
  if (FaultFires(FaultPoint::kStreamResearchFail, ordinal)) {
    ++stats_.research_failures;
    ResearchAttemptFailed();
    return;
  }
  CtsDatasetPtr snapshot = HistorySnapshot();
  const uint64_t seed =
      options_.seed ^ HashFloats(snapshot->values()) ^ stats_.generation;
  Researcher researcher = researcher_;
  inflight_ = std::async(std::launch::async,
                         [researcher = std::move(researcher), snapshot,
                          seed]() -> StatusOr<StreamModel> {
                           return researcher(snapshot, seed);
                         });
  recovery_state_ = RecoveryState::kSearching;
  ticks_waiting_ = 0;
}

void StreamEngine::CollectResearch(TickResult* out) {
  // Blocking at the deadline tick is the determinism anchor: the swap (or
  // failure) lands at tick trigger+deadline whatever the background
  // thread's actual pace. A slow search costs latency on this one tick,
  // never correctness.
  StatusOr<StreamModel> result = inflight_.get();
  if (!result.ok() || result.value().model == nullptr) {
    ++stats_.research_failures;
    ResearchAttemptFailed();
    return;
  }
  const int64_t swap_ordinal = swap_ordinal_++;
  if (FaultFires(FaultPoint::kStreamSwapStall, swap_ordinal)) {
    // The replacement is treated as having stalled past its deadline: too
    // stale to install. The old bundle keeps serving untouched — there is
    // no partial installation to unwind, the swap below is all-or-nothing.
    ++stats_.swap_stalls;
    ResearchAttemptFailed();
    return;
  }
  // Atomic hot-swap between two ticks: model, scaler, and arch move as one
  // bundle; the next Forecast() sees the complete new state.
  current_ = std::move(result).value();
  ++stats_.swaps;
  ++stats_.generation;
  out->swapped = true;
  recovery_state_ = RecoveryState::kIdle;
  // The new model starts with a clean slate: fresh detector warm-up at its
  // own error level, fresh recent-error window, and no carried-over
  // forecast from the old model.
  detector_.Reset();
  recent_head_ = 0;
  recent_count_ = 0;
  recent_sum_ = 0.0;
  have_forecast_ = false;
}

void StreamEngine::ResearchAttemptFailed() {
  if (attempts_left_ > 0) {
    recovery_state_ = RecoveryState::kBackoff;
    backoff_wait_ = backoff_ticks_;
    backoff_ticks_ *= 2;
  } else {
    // Out of budget: keep the old model, record the degradation, move on.
    // The detector was reset at trigger time, so a persisting regime shift
    // re-triggers after re-warm-up and earns a fresh retry budget.
    recovery_state_ = RecoveryState::kIdle;
  }
}

CtsDatasetPtr StreamEngine::HistorySnapshot() const {
  const int n = options_.num_series;
  const int64_t ticks = ring_.ticks();
  const int h =
      static_cast<int>(std::min<int64_t>(ticks, options_.history));
  CHECK_GT(h, 0);
  const int64_t start = ticks - h;
  std::vector<float> values(static_cast<size_t>(n) * h);
  std::vector<uint8_t> mask(values.size(), 0);
  bool any_missing = false;
  for (int t = 0; t < h; ++t) {
    const size_t row =
        static_cast<size_t>((start + t) % options_.history) * n;
    for (int i = 0; i < n; ++i) {
      values[static_cast<size_t>(i) * h + t] = hist_values_[row + i];
      if (hist_missing_[row + i] != 0) {
        mask[static_cast<size_t>(i) * h + t] = 1;
        any_missing = true;
      }
    }
  }
  std::vector<float> adjacency = options_.adjacency;
  if (adjacency.empty()) {
    adjacency.assign(static_cast<size_t>(n) * n, 1.0f);
  }
  auto data = std::make_shared<CtsDataset>(
      "stream-g" + std::to_string(stats_.generation), n, h, 1,
      std::move(values), std::move(adjacency));
  if (any_missing) data->SetMissing(std::move(mask));
  return data;
}

void StreamEngine::FillScaledWindow(float* dst) const {
  const int n = options_.num_series;
  const int p = options_.p;
  const float inv_std = current_.std != 0.0f ? 1.0f / current_.std : 1.0f;
  for (int i = 0; i < n; ++i) {
    const float* w = ring_.window(i);
    float* d = dst + static_cast<size_t>(i) * p;
    for (int t = 0; t < p; ++t) {
      d[t] = (w[t] - current_.mean) * inv_std;
    }
  }
}

void StreamEngine::Forecast(TickResult* out) {
  const int n = options_.num_series;
  const int p = options_.p;
  NoGradScope no_grad;

  TlsPlanEntry& entry = PlanEntryFor(engine_id_);
  StepPlan& plan = *entry.plan;
  if (entry.generation != stats_.generation || entry.num_series != n ||
      entry.p != p) {
    if (plan.ready()) plan.Invalidate();
    entry.generation = stats_.generation;
    entry.num_series = n;
    entry.p = p;
  }

  const Tensor* y = nullptr;
  Tensor y_eager;
  if (plan::PlansEnabled() && !plan.capture_failed()) {
    if (plan.ready()) {
      // Structurally on the capture thread (thread-local entry); the CHECK
      // enforces plan.h's affinity invariant all the same.
      const Status thread_ok = plan.ValidateReplayThread();
      CHECK(thread_ok.ok()) << thread_ok.message();
      float* dst = plan.input_data(0);
      if (dst != nullptr) {
        // The streaming fast path: refresh the captured input buffer in
        // place from the ring window — no tensor build, no BeginStep copy.
        FillScaledWindow(dst);
        plan.BeginStepInPlace();
      } else {
        // Degenerate capture whose input no op reads; feed it the slow way.
        std::vector<float> xv(static_cast<size_t>(n) * p);
        FillScaledWindow(xv.data());
        plan.BeginStep({Tensor::FromVector({1, n, p, 1}, std::move(xv))});
      }
      plan.RunForward();
      y = &plan.output(0);
    } else {
      std::vector<float> xv(static_cast<size_t>(n) * p);
      FillScaledWindow(xv.data());
      Tensor x = Tensor::FromVector({1, n, p, 1}, std::move(xv));
      const bool capture =
          LiveTapeNodesThisThread() == plan::PinnedTapeNodesThisThread();
      if (capture) plan.BeginCapture({x}, "stream_forecast");
      y_eager = current_.model->Forward(x);
      if (capture) {
        plan.AddOutput(y_eager);
        plan.EndCapture();  // Poisoned captures fall back to eager forever.
      }
      y = &y_eager;
    }
  } else {
    std::vector<float> xv(static_cast<size_t>(n) * p);
    FillScaledWindow(xv.data());
    Tensor x = Tensor::FromVector({1, n, p, 1}, std::move(xv));
    y_eager = current_.model->Forward(x);
    y = &y_eager;
  }

  // [1, N, Q_out, 1] scaled -> unscaled next-step forecast per series.
  const auto& yd = y->data();
  CHECK_EQ(yd.size() % static_cast<size_t>(n), 0u);
  const size_t q_out = yd.size() / static_cast<size_t>(n);
  prev_forecast_.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    prev_forecast_[static_cast<size_t>(i)] =
        yd[static_cast<size_t>(i) * q_out] * current_.std + current_.mean;
  }
  have_forecast_ = true;
  out->forecast = prev_forecast_;
}

}  // namespace stream
}  // namespace autocts
