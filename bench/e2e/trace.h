#ifndef AUTOCTS_BENCH_E2E_TRACE_H_
#define AUTOCTS_BENCH_E2E_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace autocts::e2e {

using Clock = std::chrono::steady_clock;

/// This repository's modules that the benchmark calls into, the layers of
/// the per-layer split. `tensor` is not among them: it is only reached
/// through the others, so its metrics are RuntimeStats counters, not spans.
inline const char* const kLayers[] = {"embedding", "comparator", "search",
                                      "model",     "core",       "shard",
                                      "serve",     "stream"};

/// Seconds elapsed since `from`.
inline double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

/// One recorded span: a call into one layer's public API, timed from the
/// benchmark side. `parent` is the enclosing span on the same thread (-1 at
/// the top); `tag` is the request, task or sample id the span served.
struct SpanRecord {
  const char* name = "";
  const char* layer = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;
  uint64_t tag = 0;
  uint32_t thread = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// In-memory span log. Off by default: a disabled Span costs one relaxed
/// atomic load, so the untraced run measures the program, not the probes.
class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();
  /// Drops every recorded span.
  static void Clear();

  /// Spans recorded so far (completed spans only), in completion order.
  static std::vector<SpanRecord> Spans();

  /// Writes the spans as Chrome trace-event JSON (opens in Perfetto).
  static bool WriteChromeTrace(const std::string& path);

  /// Nanoseconds one Span costs when tracing is on, measured by recording
  /// and discarding `n` empty spans.
  static double MeasureSpanCostNs(int n);
};

/// RAII span around one call into a layer.
class Span {
 public:
  Span(const char* name, const char* layer, uint64_t tag = 0);
  ~Span() { End(); }

  /// Closes the span early; later calls do nothing.
  void End();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord rec_;
  int64_t saved_parent_ = -1;
};

/// Wall time per span name minus the part its same-thread children cover,
/// summed over all spans of that name.
struct SelfTime {
  std::string name;
  std::string layer;
  int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::vector<SelfTime> SelfTimes(const std::vector<SpanRecord>& spans);

/// Share of the time of the "bench"-layer spans (each workload's measured
/// phases) that their direct children, the calls into the layers, cover.
double AttributedPct(const std::vector<SpanRecord>& spans);

/// Self time summed per layer.
double LayerSelfSeconds(const std::vector<SelfTime>& table,
                        const std::string& layer);

}  // namespace autocts::e2e

#endif  // AUTOCTS_BENCH_E2E_TRACE_H_
