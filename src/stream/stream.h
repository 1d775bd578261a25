#ifndef REPRO_STREAM_STREAM_H_
#define REPRO_STREAM_STREAM_H_

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/cts_dataset.h"
#include "model/forecaster.h"
#include "stream/drift.h"
#include "stream/ring_window.h"

namespace autocts {
namespace stream {

/// The forecast model a stream serves, bundled with the scaler it was
/// trained under. The bundle swaps as ONE unit: a tick either sees the old
/// (model, mean, std) triple or the new one, never a mix — the "never serve
/// a half-swapped model" guarantee.
struct StreamModel {
  std::shared_ptr<const Forecaster> model;
  float mean = 0.0f;
  float std = 1.0f;
  /// Arch-hyper signature (or family name) for reporting.
  std::string arch;
};

/// Zero-shot re-search hook: given the stream's recent history (missing
/// mask attached when the stream saw dropouts) and a content-derived seed,
/// produce a replacement model trained on that history. Invoked on a
/// background thread; must be self-contained (own ExecContext, no shared
/// mutable state) and return an error Status on failure — the engine keeps
/// serving the old model either way. The indirection keeps src/stream free
/// of the search/serve layers: RecommendationService plugs in the full
/// rank-then-train pipeline, tests plug in cheap trainers.
using Researcher =
    std::function<StatusOr<StreamModel>(const CtsDatasetPtr& recent,
                                        uint64_t seed)>;

/// Knobs of one streaming session. Callers start from the defaults below
/// and override fields (the CLI maps its --warmup/--ph-*/... flags here).
struct StreamOptions {
  int num_series = 0;  ///< N (required).
  int p = 12;          ///< Input window length.
  /// Row-major N×N adjacency handed to re-search tasks (empty = all-ones).
  std::vector<float> adjacency;
  /// Ticks of raw history retained for re-search (also the re-search
  /// training window). Must comfortably exceed p + q.
  int history = 256;
  /// Seed folded with the history content hash into re-search seeds.
  uint64_t seed = 9001;

  // Drift detector (see drift.h).
  int warmup = 64;
  float ph_delta = 0.05f;
  float ph_lambda = 8.0f;
  /// Rolling window of recent online errors (TickResult::recent_mae).
  int error_window = 128;

  // Recovery policy.
  bool recovery = true;        ///< Master switch (degraded-baseline mode off).
  int research_retries = 2;    ///< Extra attempts after the first failure.
  int research_backoff = 16;   ///< Ticks before a retry (doubles per failure).
  int research_deadline = 32;  ///< Ticks a background re-search may run
                               ///< before the engine collects it (the swap
                               ///< point; the old model serves until then).
  /// Ticks between a drift trigger and the re-search launch. The detector
  /// typically fires within a few ticks of a regime change, when the
  /// retained history still holds mostly pre-drift data — a model trained
  /// on that snapshot learns the OLD regime. Delaying the launch lets the
  /// history ring refill with post-drift ticks first (size it so
  /// delay ≈ history keeps the snapshot fresh). 0 = launch immediately.
  int research_delay = 0;
};

/// What one Push produced.
struct TickResult {
  /// Next-step forecast per series (unscaled), made AFTER ingesting this
  /// tick; empty until the window has filled (the first p ticks).
  std::vector<float> forecast;
  /// Masked MAE of the previous tick's forecast against this tick's
  /// observations (missing series skipped); valid when `scored`.
  double error = 0.0;
  bool scored = false;
  /// Mean online error over the last `error_window` scored ticks.
  double recent_mae = 0.0;
  bool drift = false;    ///< Detector fired on this tick.
  bool swapped = false;  ///< A re-searched model was installed this tick.
  uint64_t generation = 0;  ///< Model generation serving this tick.
};

/// Lifetime counters of one engine (mirrored into ServeStats by the
/// serving layer's per-tenant sessions).
struct StreamEngineStats {
  uint64_t ticks = 0;
  uint64_t scored_ticks = 0;
  uint64_t imputed_points = 0;       ///< Missing readings imputed at ingest.
  uint64_t drifts = 0;               ///< Detector triggers.
  uint64_t research_launched = 0;    ///< Background re-search attempts.
  uint64_t research_failures = 0;    ///< Attempts that errored (incl. the
                                     ///< kStreamResearchFail injection).
  uint64_t swap_stalls = 0;          ///< Ready models discarded as stale
                                     ///< (kStreamSwapStall injection).
  uint64_t swaps = 0;                ///< Models installed.
  uint64_t generation = 0;           ///< Current model generation.
};

/// Online forecasting engine: one logical stream of N-series ticks.
///
/// Per tick (Push): ingest into the ring window (missing values imputed
/// last-observation-carried-forward), score the previous forecast against
/// the new observations (masked MAE), feed the drift detector, run the
/// recovery state machine, and forecast the next step — through a captured
/// inference StepPlan whose input buffer the engine updates in place
/// (RingWindow + StepPlan::BeginStepInPlace; falls back to eager execution
/// when plans are disabled, with bit-identical results).
///
/// Recovery: a detector trigger launches the Researcher on a background
/// thread over the retained history. The old model serves every tick while
/// the search runs; after `research_deadline` ticks the engine collects the
/// result and either installs it — atomically, between two ticks — or
/// records the failure and retries with doubled backoff, up to
/// `research_retries` extra attempts, then gives up and keeps the old
/// model. Re-search failures NEVER propagate out of Push.
///
/// Determinism: tick count is the engine's only clock — launch, collect,
/// swap, and backoff all happen at tick boundaries, and collection blocks
/// on the background result at the deadline tick, so the tick at which a
/// swap lands is a pure function of the input stream (given a deterministic
/// Researcher), independent of wall clock, kernel thread count, and plan
/// on/off. stream_test enforces this bit-exactly.
///
/// Threading: Push is not re-entrant (one tick at a time); successive
/// pushes may come from different threads (captured plans are per-thread,
/// keyed by engine id). Destruction waits for any in-flight re-search.
class StreamEngine {
 public:
  /// `initial.model` must match (num_series, p) and must be trained for
  /// the horizon the caller scores; `researcher` may be null only when
  /// options.recovery is false.
  StreamEngine(StreamOptions options, StreamModel initial,
               Researcher researcher);
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Ingests one tick: `values[n]` per series; `missing[n]` non-zero when
  /// series n did not report this tick (nullptr = fully observed).
  TickResult Push(const float* values, const uint8_t* missing = nullptr);

  StreamEngineStats stats() const { return stats_; }
  const StreamOptions& options() const { return options_; }
  uint64_t generation() const { return stats_.generation; }
  const std::string& arch() const { return current_.arch; }

 private:
  enum class RecoveryState { kIdle, kSearching, kBackoff };

  /// Scores prev_forecast_ against this tick's observations.
  void Score(const float* values, const uint8_t* missing, TickResult* out);
  /// Launches (or injects the failure of) one re-search attempt.
  void LaunchResearch();
  /// Collects the in-flight re-search at the deadline tick.
  void CollectResearch(TickResult* out);
  /// One failed attempt: budget bookkeeping, backoff or give up.
  void ResearchAttemptFailed();
  /// Builds the re-search dataset from the retained history.
  CtsDatasetPtr HistorySnapshot() const;
  /// Forecasts the next step from the current ring window.
  void Forecast(TickResult* out);
  /// Writes the scaled [1, N, P, 1] window into `dst` (plan input buffer
  /// or a fresh tensor's storage — the single fill path both share, so
  /// plan and eager inputs are bit-identical).
  void FillScaledWindow(float* dst) const;

  StreamOptions options_;
  StreamModel current_;
  Researcher researcher_;
  const uint64_t engine_id_;  ///< Process-unique; keys per-thread plans.

  RingWindow ring_;
  /// Raw history ring, series-major snapshot source: [history][N] values
  /// plus missing flags, indexed by tick % history.
  std::vector<float> hist_values_;
  std::vector<uint8_t> hist_missing_;

  std::vector<float> prev_forecast_;  ///< Next-step forecast per series.
  bool have_forecast_ = false;

  PageHinkleyDetector detector_;
  std::vector<double> recent_errors_;  ///< Ring of the last error_window.
  size_t recent_head_ = 0;
  size_t recent_count_ = 0;
  double recent_sum_ = 0.0;

  RecoveryState recovery_state_ = RecoveryState::kIdle;
  std::future<StatusOr<StreamModel>> inflight_;
  int ticks_waiting_ = 0;
  int attempts_left_ = 0;
  int backoff_ticks_ = 0;
  int backoff_wait_ = 0;
  int64_t research_ordinal_ = 0;  ///< kStreamResearchFail fault address.
  int64_t swap_ordinal_ = 0;      ///< kStreamSwapStall fault address.

  StreamEngineStats stats_;
};

}  // namespace stream
}  // namespace autocts

#endif  // REPRO_STREAM_STREAM_H_
