// serve: RecommendationService (ServeOptions::ForScale(Bench)) behind its
// HttpServer on loopback. Traffic is 512 distinct CSV windows of the target
// datasets with Zipf(1.0) popularity and P/Q in {12, 24}, sent by 4 client
// threads over at most 4 open connections. After a warm-up, three phases:
//   low   open loop at kLowRps  — unloaded latency, where a batching delay
//         only costs;
//   high  open loop at kHighRps — queueing;
//   peak  closed loop, 4 connections back to back — capacity.
// Open-loop latency runs from when a request was due, not when it was sent,
// so a stall also charges the requests queued behind it.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>
#include <map>

#include "common.h"
#include "serve/http.h"
#include "serve/service.h"

namespace autocts::e2e {
namespace {

using serve::HttpServer;
using serve::RecommendationService;
using serve::RecommendRequest;

constexpr int kWindows = 512;
constexpr int kWindowSteps = 96;
constexpr int kConnections = 4;
constexpr int kTopK = 3;
constexpr size_t kReplayWindows = 32;
/// Open-loop rates, frozen from the measured closed-loop peak of about 415
/// requests/s on a 4-core host: a tenth and a half of it. At 70% of the
/// peak, 4 connections queue so much that p90 varied 36% between seeds.
constexpr double kLowRps = 40.0;
constexpr double kHighRps = 200.0;
constexpr double kWarmupSeconds = 1.0;
/// A response slower than this counts as failed.
constexpr int kTimeoutSeconds = 5;

struct Window {
  std::string target;  ///< "/recommend?p=..&q=..&topk=.."
  std::string body;    ///< CSV, one line per series.
  int p = 12;
};

/// One measured request.
struct Sample {
  int window = 0;
  double latency_ms = 0.0;  ///< Response time from when it was due.
  double late_ms = 0.0;     ///< How late the client sent it.
  double queue_ms = 0.0;
  double service_ms = 0.0;
  int batch = 0;
  bool ok = false;
};

struct HttpReply {
  int status = 0;
  std::string body;
};

HttpReply Post(int port, const std::string& target, const std::string& body) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  timeval timeout{kTimeoutSeconds, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  const std::string request = "POST " + target +
                              " HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (sent != request.size() || response.rfind("HTTP/1.1 ", 0) != 0) return reply;
  reply.status = std::atoi(response.c_str() + 9);
  const size_t body_at = response.find("\r\n\r\n");
  if (body_at != std::string::npos) reply.body = response.substr(body_at + 4);
  return reply;
}

/// Number after `"key": ` in a flat JSON object; NaN when absent.
double JsonNumber(const std::string& json, const std::string& key) {
  const size_t at = json.find("\"" + key + "\": ");
  if (at == std::string::npos) return std::nan("");
  return std::strtod(json.c_str() + at + key.size() + 4, nullptr);
}

/// The "ranked" string array of a /recommend response.
bool JsonRanked(const std::string& json, std::vector<std::string>* ranked) {
  size_t at = json.find("\"ranked\": [");
  if (at == std::string::npos) return false;
  at += 11;
  ranked->clear();
  while (at < json.size() && json[at] != ']') {
    if (json[at] == '"') {
      const size_t end = json.find('"', at + 1);
      if (end == std::string::npos) return false;
      ranked->push_back(json.substr(at + 1, end - at - 1));
      at = end + 1;
    } else {
      ++at;
    }
  }
  return at < json.size();
}

class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(const RunConfig& config) : config_(config) {}

  ~ServeWorkload() override {
    if (server_ != nullptr) server_->Stop();
    if (service_ != nullptr) service_->Shutdown();
  }

  void Setup() override {
    const ScaleConfig scale = ScaleConfig::Bench();
    framework_ = QuickPretrainedFramework();
    service_ = std::make_unique<RecommendationService>(
        framework_->comparator(), framework_->encoder(), &framework_->space(),
        serve::ServeOptions::ForScale(scale));
    CHECK(service_->Start().ok());
    serve::HttpOptions http;
    http.port = 0;
    server_ = std::make_unique<HttpServer>(service_.get(), http);
    CHECK(server_->Start().ok());
    MakeTraffic(TargetDatasets(scale));
  }

  void Run(Report* report) override;

 private:
  void MakeTraffic(const std::vector<CtsDatasetPtr>& targets);

  /// Sends requests seq_[first], seq_[first + 1], ... due every 1/`rate`
  /// seconds (open loop), or back to back when `rate` is 0 (closed loop),
  /// for `seconds`. Returns the samples in completion order.
  std::vector<Sample> RunPhase(const char* phase, size_t first, double rate,
                               double seconds);

  RunConfig config_;
  std::unique_ptr<AutoCtsPlusPlus> framework_;
  std::unique_ptr<RecommendationService> service_;
  std::unique_ptr<HttpServer> server_;
  std::vector<Window> windows_;
  std::vector<int> seq_;  ///< Window of each request, Zipf-drawn.
  std::vector<uint8_t> seen_;  ///< Window already requested once.
  std::map<int, std::vector<std::string>> http_ranked_;  ///< First answer.
  int64_t repeats_ = 0;
  int64_t parse_failures_ = 0;
};

void ServeWorkload::MakeTraffic(const std::vector<CtsDatasetPtr>& targets) {
  Rng rng(config_.seed);
  const int windows = config_.smoke ? 16 : kWindows;
  for (int w = 0; w < windows; ++w) {
    const CtsDataset& d = *rng.Choice(targets);
    const int t0 = rng.Int(0, d.num_steps() - kWindowSteps);
    const std::vector<int> sensors = DrawSensors(d.num_series(), &rng);
    Window win;
    win.p = w % 2 == 0 ? 12 : 24;
    win.target = "/recommend?p=" + std::to_string(win.p) +
                 "&q=" + std::to_string(win.p) + "&topk=" + std::to_string(kTopK);
    char cell[32];
    for (int n : sensors) {
      for (int t = 0; t < kWindowSteps; ++t) {
        std::snprintf(cell, sizeof(cell), t == 0 ? "%.6g" : ",%.6g",
                      static_cast<double>(d.value(n, t0 + t, 0)));
        win.body += cell;
      }
      win.body += "\n";
    }
    windows_.push_back(std::move(win));
  }
  // Zipf(1.0): the window of popularity rank k is asked for with weight 1/k.
  std::vector<double> cdf(windows_.size());
  double total = 0.0;
  for (size_t k = 0; k < cdf.size(); ++k) cdf[k] = total += 1.0 / static_cast<double>(k + 1);
  std::vector<int> by_rank(windows_.size());
  for (size_t k = 0; k < by_rank.size(); ++k) by_rank[k] = static_cast<int>(k);
  rng.Shuffle(&by_rank);
  seq_.resize(size_t{1} << 18);
  for (int& s : seq_) {
    const double u = rng.Uniform(0.0f, 1.0f) * total;
    const size_t k = std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
    s = by_rank[std::min(k, by_rank.size() - 1)];
  }
  seen_.assign(windows_.size(), 0);
}

std::vector<Sample> ServeWorkload::RunPhase(const char* phase, size_t first,
                                            double rate, double seconds) {
  // Evenly spaced arrivals rather than Poisson ones: with 4 connections the
  // seed's chance bursts moved the high-rate p90 by a third between seeds.
  const size_t due_count = static_cast<size_t>(rate * seconds);
  std::mutex mu;
  std::vector<Sample> samples;
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  auto sender = [&] {
    Span phase_span(phase, "bench");
    for (;;) {
      const size_t k = next.fetch_add(1);
      Clock::time_point due = Clock::now();
      if (rate > 0.0) {
        if (k >= due_count) return;
        due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(static_cast<double>(k) / rate));
        std::this_thread::sleep_until(due);
      } else if (SecondsSince(start) >= seconds) {
        return;
      }
      Sample s;
      s.window = seq_[(first + k) % seq_.size()];
      const Window& w = windows_[static_cast<size_t>(s.window)];
      const Clock::time_point sent = Clock::now();
      HttpReply reply;
      {
        Span span("serve.request", "serve", first + k);
        reply = Post(server_->port(), w.target, w.body);
      }
      const Clock::time_point done = Clock::now();
      s.latency_ms = std::chrono::duration<double, std::milli>(done - due).count();
      s.late_ms = std::chrono::duration<double, std::milli>(sent - due).count();
      std::vector<std::string> ranked;
      s.ok = reply.status == 200 && JsonRanked(reply.body, &ranked);
      s.queue_ms = JsonNumber(reply.body, "queue_us") / 1e3;
      s.service_ms = JsonNumber(reply.body, "service_us") / 1e3;
      const double batch = JsonNumber(reply.body, "batch_size");
      std::lock_guard<std::mutex> lock(mu);
      if (s.ok && !(std::isfinite(s.queue_ms) && std::isfinite(s.service_ms) &&
                    batch >= 1.0)) {
        ++parse_failures_;
        s.ok = false;
      }
      if (s.ok) s.batch = static_cast<int>(batch);
      if (seen_[static_cast<size_t>(s.window)] != 0) ++repeats_;
      seen_[static_cast<size_t>(s.window)] = 1;
      if (s.ok && http_ranked_.count(s.window) == 0) http_ranked_[s.window] = ranked;
      samples.push_back(s);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) threads.emplace_back(sender);
  for (std::thread& t : threads) t.join();
  return samples;
}

void ServeWorkload::Run(Report* report) {
  const double low_s = 0.25 * config_.seconds;
  const double high_s = 0.4 * config_.seconds;
  const double peak_s = config_.seconds - low_s - high_s;
  // Each phase reads its own stretch of the request sequence, so the
  // open-loop phases send the same requests whatever the closed loops did.
  const size_t stretch = seq_.size() / 4;
  RunPhase("serve.warmup", 0, 0.0, config_.smoke ? 0.2 : kWarmupSeconds);
  const int64_t repeats_before = repeats_;
  const ServeStats before = service_->stats();
  const std::vector<Sample> low =
      RunPhase("serve.low", stretch, kLowRps, low_s);
  const std::vector<Sample> high =
      RunPhase("serve.high", 2 * stretch, kHighRps, high_s);
  const Clock::time_point peak0 = Clock::now();
  const std::vector<Sample> peak =
      RunPhase("serve.peak", 3 * stretch, 0.0, peak_s);
  const double peak_elapsed = SecondsSince(peak0);
  const ServeStats after = service_->stats();

  std::vector<double> low_ms, high_ms, http_ms, queue_ms, service_ms, late_ms;
  int64_t peak_ok = 0, batch_sum = 0, measured = 0;
  for (const auto* phase : {&low, &high, &peak}) {
    for (const Sample& s : *phase) {
      ++measured;
      ++report->attempted;
      // A failed request misses any latency limit: it counts as at least
      // the timeout, however fast the failure came back.
      const double latency_ms =
          s.ok ? s.latency_ms : std::max(s.latency_ms, 1e3 * kTimeoutSeconds);
      if (phase == &low) low_ms.push_back(latency_ms);
      if (phase == &high) high_ms.push_back(latency_ms);
      if (!s.ok) {
        ++report->failed;
        continue;
      }
      if (phase == &peak) ++peak_ok;
      if (phase != &peak) late_ms.push_back(s.late_ms);
      queue_ms.push_back(s.queue_ms);
      service_ms.push_back(s.service_ms);
      http_ms.push_back(s.latency_ms - s.late_ms - s.queue_ms - s.service_ms);
      batch_sum += s.batch;
    }
  }
  report->Check(parse_failures_ == 0, "a 200 response did not parse");

  // Serving determinism contract: the first distinct windows of the low
  // phase, sent again in-process, rank exactly as they did over HTTP.
  std::vector<int> replay;
  for (size_t k = stretch; k < 2 * stretch && replay.size() < kReplayWindows; ++k) {
    if (std::find(replay.begin(), replay.end(), seq_[k]) == replay.end()) {
      replay.push_back(seq_[k]);
    }
  }
  for (int window : replay) {
    const auto served = http_ranked_.find(window);
    if (served == http_ranked_.end()) continue;  // Its request failed: counted.
    const std::vector<std::string>& ranked = served->second;
    const Window& w = windows_[static_cast<size_t>(window)];
    RecommendRequest request;
    report->Check(serve::ParseCsvWindow(w.body, &request).ok(),
                  "a traffic window does not parse");
    request.p = request.q = w.p;
    request.top_k = kTopK;
    const StatusOr<serve::Recommendation> rec = service_->Recommend(request);
    report->Check(rec.ok() && rec.value().ranked == ranked,
                  "window " + std::to_string(window) +
                      " ranks differently in-process than over HTTP");
    for (const std::string& sig : ranked) report->Hash(sig);
  }

  report->Set("throughput_per_s", static_cast<double>(peak_ok) / peak_elapsed, "1/s");
  report->Set("latency_p50_ms", Percentile(high_ms, 50), "ms");
  report->Set("serve.low_p90_ms", Percentile(low_ms, 90), "ms");
  report->Set("serve.high_p99_ms", Percentile(high_ms, 99), "ms");
  report->Set("serve.http_ms_p50", Percentile(http_ms, 50), "ms");
  report->Set("serve.http_ms_p99", Percentile(http_ms, 99), "ms");
  report->Set("serve.queue_ms_p50", Percentile(queue_ms, 50), "ms");
  report->Set("serve.queue_ms_p99", Percentile(queue_ms, 99), "ms");
  report->Set("serve.service_ms_p50", Percentile(service_ms, 50), "ms");
  report->Set("serve.service_ms_p99", Percentile(service_ms, 99), "ms");
  report->Set("serve.queue_highwater", static_cast<double>(after.queue_highwater),
              "requests");
  const double hits = static_cast<double>(after.embed_hits - before.embed_hits);
  const double misses = static_cast<double>(after.embed_misses - before.embed_misses);
  report->Set("serve.embed_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0,
              "fraction");
  report->Set("serve.batch_size_mean",
              measured > 0 ? static_cast<double>(batch_sum) / measured : 0.0,
              "requests");
  const double rows = static_cast<double>(after.duel_rows - before.duel_rows);
  report->Set("serve.dedup_ratio",
              rows > 0 ? static_cast<double>(after.duel_rows_evaluated -
                                             before.duel_rows_evaluated) / rows
                       : 0.0,
              "fraction");
  report->Set("serve.repeat_share",
              measured > 0 ? static_cast<double>(repeats_ - repeats_before) / measured
                           : 0.0,
              "fraction");
  report->Set("serve.generator_late_ms_p99", Percentile(late_ms, 99), "ms");
  report->Set("serve.requests_low", static_cast<double>(low.size()), "count");
  report->Set("serve.requests_high", static_cast<double>(high.size()), "count");
}

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload(const RunConfig& config) {
  return std::make_unique<ServeWorkload>(config);
}

}  // namespace autocts::e2e
