#include "trace.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iomanip>
#include <string_view>
#include <map>
#include <mutex>
#include <unordered_map>

namespace autocts::e2e {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int64_t> g_next_id{0};
std::atomic<uint32_t> g_next_thread{0};
std::mutex g_mu;
std::vector<SpanRecord> g_spans;  // Guarded by g_mu.
const Clock::time_point g_epoch = Clock::now();

thread_local int64_t t_current = -1;
thread_local uint32_t t_thread = g_next_thread.fetch_add(1);

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

}  // namespace

void Tracer::Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.clear();
}

std::vector<SpanRecord> Tracer::Spans() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_spans;
}

bool Tracer::WriteChromeTrace(const std::string& path) {
  const std::vector<SpanRecord> spans = Spans();
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << "{\"name\": \"" << s.name << "\", \"cat\": \"" << s.layer
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << static_cast<double>(s.start_ns) / 1e3
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"tag\": " << s.tag << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double Tracer::MeasureSpanCostNs(int n) {
  const bool was = enabled();
  Enable(true);
  size_t before = 0;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    before = g_spans.size();
  }
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < n; ++i) {
    Span probe("trace.probe", "trace");
  }
  const double ns = SecondsSince(t0) * 1e9 / std::max(1, n);
  {
    std::lock_guard<std::mutex> lock(g_mu);
    g_spans.resize(before);
  }
  Enable(was);
  return ns;
}

Span::Span(const char* name, const char* layer, uint64_t tag) {
  if (!Tracer::enabled()) return;
  active_ = true;
  rec_.name = name;
  rec_.layer = layer;
  rec_.tag = tag;
  rec_.thread = t_thread;
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = t_current;
  saved_parent_ = t_current;
  t_current = rec_.id;
  rec_.start_ns = NowNs();
}

void Span::End() {
  if (!active_) return;
  active_ = false;
  rec_.end_ns = NowNs();
  t_current = saved_parent_;
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back(rec_);
}

std::vector<SelfTime> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::unordered_map<int64_t, double> child_s;
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) child_s[s.parent] += s.seconds();
  }
  std::map<std::string, SelfTime> by_name;
  for (const SpanRecord& s : spans) {
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    t.layer = s.layer;
    ++t.count;
    t.total_s += s.seconds();
    auto it = child_s.find(s.id);
    t.self_s += s.seconds() - (it == child_s.end() ? 0.0 : it->second);
  }
  std::vector<SelfTime> table;
  for (auto& kv : by_name) table.push_back(kv.second);
  std::sort(table.begin(), table.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_s > b.self_s;
  });
  return table;
}

double AttributedPct(const std::vector<SpanRecord>& spans) {
  std::unordered_map<int64_t, double> phase_s;
  for (const SpanRecord& s : spans) {
    if (std::string_view(s.layer) == "bench") phase_s[s.id] = s.seconds();
  }
  double total = 0.0, covered = 0.0;
  for (const auto& kv : phase_s) total += kv.second;
  for (const SpanRecord& s : spans) {
    if (phase_s.count(s.parent) > 0) covered += s.seconds();
  }
  return total > 0.0 ? 100.0 * covered / total : 0.0;
}

double LayerSelfSeconds(const std::vector<SelfTime>& table,
                        const std::string& layer) {
  double s = 0.0;
  for (const SelfTime& t : table) {
    if (t.layer == layer) s += t.self_s;
  }
  return s;
}

}  // namespace autocts::e2e
