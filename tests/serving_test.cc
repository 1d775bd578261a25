#include "serve/service.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/runtime_config.h"
#include "search/evolutionary.h"
#include "serve/embed_cache.h"
#include "serve/http.h"

namespace autocts {
namespace serve {
namespace {

// ---------------------------------------------------------------------------
// Embed-cache unit tests (satellite: signature stability, eviction order,
// context invalidation, concurrent get-or-compute).
// ---------------------------------------------------------------------------

std::vector<float> MakeWindow(uint64_t seed, int n, int t) {
  Rng rng(seed);
  std::vector<float> w(static_cast<size_t>(n) * static_cast<size_t>(t));
  for (float& v : w) v = rng.Uniform(-1.0f, 1.0f);
  return w;
}

TEST(WindowSignatureTest, StableAndContentSensitive) {
  std::vector<float> w = MakeWindow(1, 3, 32);
  const uint64_t sig = WindowSignature(w.data(), 3, 32, 8, 8, false);
  EXPECT_EQ(sig, WindowSignature(w.data(), 3, 32, 8, 8, false));
  // Any byte of content or geometry flips the signature.
  std::vector<float> w2 = w;
  w2[17] += 1e-6f;
  EXPECT_NE(sig, WindowSignature(w2.data(), 3, 32, 8, 8, false));
  EXPECT_NE(sig, WindowSignature(w.data(), 3, 32, 9, 8, false));
  EXPECT_NE(sig, WindowSignature(w.data(), 3, 32, 8, 9, false));
  EXPECT_NE(sig, WindowSignature(w.data(), 3, 32, 8, 8, true));
}

Tensor ScalarTensor(float v) { return Tensor::FromVector({1}, {v}); }

TEST(TaskEmbedCacheTest, LruEvictionOrder) {
  TaskEmbedCache cache(2);
  bool hit = true;
  cache.GetOrCompute(1, [] { return ScalarTensor(1); }, &hit);
  EXPECT_FALSE(hit);
  cache.GetOrCompute(2, [] { return ScalarTensor(2); }, &hit);
  EXPECT_FALSE(hit);
  // Touch 1 so 2 becomes least-recently-used.
  cache.GetOrCompute(1, [] { return ScalarTensor(-1); }, &hit);
  EXPECT_TRUE(hit);
  cache.GetOrCompute(3, [] { return ScalarTensor(3); }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // 1 survived (was MRU), 2 was evicted.
  cache.GetOrCompute(1, [] { return ScalarTensor(-1); }, &hit);
  EXPECT_TRUE(hit);
  Tensor two = cache.GetOrCompute(2, [] { return ScalarTensor(22); }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(two.data()[0], 22.0f);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(TaskEmbedCacheTest, ZeroCapacityDisablesCaching) {
  TaskEmbedCache cache(0);
  bool hit = true;
  cache.GetOrCompute(1, [] { return ScalarTensor(1); }, &hit);
  EXPECT_FALSE(hit);
  cache.GetOrCompute(1, [] { return ScalarTensor(1); }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(TaskEmbedCacheTest, ContextChangeInvalidates) {
  TaskEmbedCache cache(4);
  cache.SetContext("scalar/fp32");
  bool hit = true;
  cache.GetOrCompute(1, [] { return ScalarTensor(1); }, &hit);
  cache.SetContext("scalar/fp32");  // Same context: nothing flushed.
  cache.GetOrCompute(1, [] { return ScalarTensor(1); }, &hit);
  EXPECT_TRUE(hit);
  // The service derives the context from (backend, comparator precision), so
  // a SetActiveBackend or precision swap lands here as a different string.
  cache.SetContext("scalar/bf16");
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  cache.GetOrCompute(1, [] { return ScalarTensor(1); }, &hit);
  EXPECT_FALSE(hit);
}

TEST(TaskEmbedCacheTest, ConcurrentGetOrComputeComputesOnce) {
  TaskEmbedCache cache(4);
  std::atomic<int> computations{0};
  std::vector<std::thread> threads;
  std::vector<float> seen(8, 0.0f);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      Tensor t = cache.GetOrCompute(42, [&] {
        computations.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return ScalarTensor(7);
      });
      seen[static_cast<size_t>(i)] = t.data()[0];
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(computations.load(), 1) << "duplicate computation for one key";
  for (float v : seen) EXPECT_EQ(v, 7.0f);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 7u);
}

// ---------------------------------------------------------------------------
// Service fixture: a small task-aware comparator + TS2Vec encoder. Weights
// are seeded (untrained) — determinism tests need stable weights, not good
// recommendations.
// ---------------------------------------------------------------------------

Comparator::Options SmallComparator() {
  Comparator::Options opts;
  opts.gin.layers = 2;
  opts.gin.embed_dim = 8;
  opts.repr_dim = 4;
  opts.f1 = 8;
  opts.f2 = 4;
  opts.fc_dim = 16;
  opts.task_aware = true;
  return opts;
}

ServeOptions TinyServe(int workers, int max_batch) {
  ServeOptions o = ServeOptions::ForScale(ScaleConfig::Test());
  o.workers = workers;
  o.max_batch = max_batch;
  o.max_delay_us = 2000;
  o.search.ranking_pool = 12;
  o.search.opponents_per_candidate = 2;
  o.search.population = 3;
  o.search.top_k = 3;
  o.windows_per_task = 3;
  return o;
}

struct ServeFixture {
  Rng rng{78};
  Comparator comparator;
  Ts2Vec encoder;
  JointSearchSpace space;

  ServeFixture()
      : comparator(SmallComparator(), 77),
        encoder(1, MakeEncoderOptions(), &rng) {}

  static Ts2Vec::Options MakeEncoderOptions() {
    Ts2Vec::Options o;
    o.repr_dim = 4;
    o.hidden = 4;
    o.layers = 1;
    return o;
  }

  RecommendRequest Request(uint64_t seed, int top_k = 3) const {
    RecommendRequest r;
    r.num_series = 3;
    r.num_steps = 48;
    r.window = MakeWindow(seed, r.num_series, r.num_steps);
    r.p = 8;
    r.q = 8;
    r.top_k = top_k;
    return r;
  }
};

/// Serves `requests` through a fresh service with the given knobs and
/// returns the ranked signature lists (fixture-order).
std::vector<std::vector<std::string>> ServeAll(
    ServeFixture* fx, const std::vector<RecommendRequest>& requests,
    const ServeOptions& options) {
  RecommendationService service(&fx->comparator, &fx->encoder, &fx->space,
                                options);
  EXPECT_TRUE(service.Start().ok());
  std::vector<std::future<StatusOr<Recommendation>>> futures;
  futures.reserve(requests.size());
  for (const RecommendRequest& r : requests) futures.push_back(service.Submit(r));
  std::vector<std::vector<std::string>> ranked;
  for (auto& f : futures) {
    StatusOr<Recommendation> rec = f.get();
    EXPECT_TRUE(rec.ok()) << rec.status().message();
    ranked.push_back(rec.ok() ? rec.value().ranked
                              : std::vector<std::string>{});
  }
  service.Shutdown();
  return ranked;
}

TEST(ServingTest, ResponsesIdenticalAcrossBatchWorkersAndCacheState) {
  ServeFixture fx;
  // Six requests over three distinct windows — duplicates force duel
  // dedup inside micro-batches, the batching fast path under test.
  std::vector<RecommendRequest> reqs;
  for (uint64_t s : {11u, 12u, 13u, 11u, 12u, 11u}) {
    reqs.push_back(fx.Request(s));
  }
  // Reference: unbatched single worker, cold caches.
  const auto baseline = ServeAll(&fx, reqs, TinyServe(1, 1));
  ASSERT_EQ(baseline.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_FALSE(baseline[i].empty());
  }
  // Same window => same answer, independent of batch neighbors.
  EXPECT_EQ(baseline[0], baseline[3]);
  EXPECT_EQ(baseline[0], baseline[5]);
  EXPECT_EQ(baseline[1], baseline[4]);
  for (const auto& [workers, max_batch] :
       std::vector<std::pair<int, int>>{{1, 8}, {4, 1}, {4, 8}}) {
    EXPECT_EQ(ServeAll(&fx, reqs, TinyServe(workers, max_batch)), baseline)
        << "workers=" << workers << " max_batch=" << max_batch;
  }
  // Cache state: a warm repeat within one service must match the cold run.
  {
    RecommendationService service(&fx.comparator, &fx.encoder, &fx.space,
                                  TinyServe(2, 8));
    ASSERT_TRUE(service.Start().ok());
    StatusOr<Recommendation> cold = service.Recommend(reqs[0]);
    StatusOr<Recommendation> warm = service.Recommend(reqs[0]);
    ASSERT_TRUE(cold.ok() && warm.ok());
    EXPECT_FALSE(cold.value().embed_cache_hit);
    EXPECT_TRUE(warm.value().embed_cache_hit);
    EXPECT_EQ(cold.value().ranked, baseline[0]);
    EXPECT_EQ(warm.value().ranked, baseline[0]);
    EXPECT_GT(service.stats().embed_hit_rate(), 0.0);
    service.Shutdown();
  }
}

TEST(ServingTest, QuantizedPrecisionsDeterministicAcrossBatching) {
  // Runs at the process AUTOCTS_COMPARATOR_PRECISION: ctest registers this
  // binary once at fp32 and once at bf16.
  ServeFixture fx;
  std::vector<RecommendRequest> reqs;
  for (uint64_t s : {21u, 22u, 21u, 23u}) reqs.push_back(fx.Request(s));
  const auto a = ServeAll(&fx, reqs, TinyServe(1, 1));
  const auto b = ServeAll(&fx, reqs, TinyServe(2, 8));
  EXPECT_EQ(a, b) << "precision "
                  << ComparatorPrecisionName(
                         GlobalRuntimeConfig().comparator_precision);
  EXPECT_EQ(a[0], a[2]);  // Rank agreement between identical requests.
}

TEST(ServingTest, MatchesLibrarySearcherAtGenerationsZero) {
  // A serve response is exactly EvolutionarySearcher::SearchTopK at
  // generations=0 with the content-derived seed — the equivalence that lets
  // tests (and users) audit serve results against the library.
  ServeFixture fx;
  RecommendRequest req = fx.Request(31);
  ServeOptions opts = TinyServe(1, 4);
  RecommendationService service(&fx.comparator, &fx.encoder, &fx.space, opts);
  ASSERT_TRUE(service.Start().ok());
  StatusOr<Recommendation> served = service.Recommend(req);
  ASSERT_TRUE(served.ok()) << served.status().message();
  Tensor task_embed = service.TaskEmbeddingFor(req);
  service.Shutdown();

  EvolutionarySearcher searcher(&fx.comparator, &fx.space);
  SearchOptions search = opts.search;
  search.generations = 0;
  search.top_k = served.value().ranked.size();
  search.seed = opts.search.seed ^ served.value().task_signature;
  std::vector<ArchHyper> expected = searcher.SearchTopK(task_embed, search);
  ASSERT_EQ(expected.size(), served.value().ranked.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].Signature(), served.value().ranked[i]);
  }
}

TEST(ServingTest, ForecastServedAndModelCached) {
  ServeFixture fx;
  RecommendRequest req = fx.Request(41, /*top_k=*/1);
  req.want_forecast = true;
  RecommendationService service(&fx.comparator, &fx.encoder, &fx.space,
                                TinyServe(1, 2));
  ASSERT_TRUE(service.Start().ok());
  StatusOr<Recommendation> cold = service.Recommend(req);
  ASSERT_TRUE(cold.ok()) << cold.status().message();
  ASSERT_EQ(cold.value().forecast.size(),
            static_cast<size_t>(req.num_series * req.q));
  EXPECT_FALSE(cold.value().model_cache_hit);
  StatusOr<Recommendation> warm = service.Recommend(req);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().model_cache_hit);
  EXPECT_EQ(cold.value().forecast, warm.value().forecast);
  EXPECT_EQ(service.stats().models_trained, 1u);
  service.Shutdown();
}

TEST(ServingTest, ValidatesRequests) {
  ServeFixture fx;
  RecommendationService service(&fx.comparator, &fx.encoder, &fx.space,
                                TinyServe(1, 1));
  ASSERT_TRUE(service.Start().ok());
  RecommendRequest bad = fx.Request(51);
  bad.window.pop_back();
  EXPECT_FALSE(service.Recommend(bad).ok());
  RecommendRequest short_window = fx.Request(52);
  short_window.p = 30;
  short_window.q = 30;  // p + q > num_steps.
  EXPECT_FALSE(service.Recommend(short_window).ok());
  // p + q past INT_MAX must be rejected, not wrap negative past the check.
  RecommendRequest huge = fx.Request(53);
  huge.p = std::numeric_limits<int>::max();
  huge.q = 1;
  const StatusOr<Recommendation> rejected = service.Recommend(huge);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("window too short"),
            std::string::npos)
      << rejected.status().message();
  service.Shutdown();
}

TEST(ServingTest, TrySubmitRejectsWhenQueueFull) {
  ServeFixture fx;
  ServeOptions opts = TinyServe(1, 1);
  opts.queue_capacity = 2;
  // Never started: submissions stay queued, so the bound is observable.
  RecommendationService service(&fx.comparator, &fx.encoder, &fx.space, opts);
  std::future<StatusOr<Recommendation>> f1, f2, f3;
  EXPECT_TRUE(service.TrySubmit(fx.Request(61), &f1).ok());
  EXPECT_TRUE(service.TrySubmit(fx.Request(62), &f2).ok());
  EXPECT_FALSE(service.TrySubmit(fx.Request(63), &f3).ok());
  EXPECT_EQ(service.stats().rejected, 1u);
  // Shutdown fails the queued-but-never-served requests instead of leaving
  // their futures dangling.
  service.Shutdown();
  EXPECT_FALSE(f1.get().ok());
  EXPECT_FALSE(f2.get().ok());
}

TEST(ServingTest, ShutdownDrainsInFlightRequests) {
  ServeFixture fx;
  RecommendationService service(&fx.comparator, &fx.encoder, &fx.space,
                                TinyServe(2, 4));
  ASSERT_TRUE(service.Start().ok());
  std::vector<std::future<StatusOr<Recommendation>>> futures;
  for (uint64_t s = 0; s < 6; ++s) futures.push_back(service.Submit(fx.Request(70 + s)));
  service.Shutdown();  // Must drain, not drop.
  for (auto& f : futures) {
    StatusOr<Recommendation> rec = f.get();
    EXPECT_TRUE(rec.ok()) << rec.status().message();
  }
}

// ---------------------------------------------------------------------------
// HTTP front end.
// ---------------------------------------------------------------------------

TEST(HttpTest, ParseCsvWindow) {
  RecommendRequest req;
  ASSERT_TRUE(ParseCsvWindow("1,2,3\r\n4,5,6\n", &req).ok());
  EXPECT_EQ(req.num_series, 2);
  EXPECT_EQ(req.num_steps, 3);
  EXPECT_EQ(req.window, (std::vector<float>{1, 2, 3, 4, 5, 6}));
  EXPECT_FALSE(ParseCsvWindow("", &req).ok());
  EXPECT_FALSE(ParseCsvWindow("1,2\n3\n", &req).ok());
  EXPECT_FALSE(ParseCsvWindow("1,x,3\n", &req).ok());
  // Non-finite values never reach the embedding; the Status names them.
  for (const char* bad : {"nan", "inf", "1e40"}) {
    const Status s = ParseCsvWindow(std::string("1,2,3\n4,") + bad + ",6\n",
                                    &req);
    ASSERT_FALSE(s.ok()) << bad;
    EXPECT_NE(s.message().find(std::string("'") + bad + "'"),
              std::string::npos)
        << s.message();
  }
}

/// A client socket connected to the loopback `port`.
int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

/// Minimal blocking HTTP client: one request, returns the full response.
/// A positive `recv_timeout_s` bounds each receive (a stalled server then
/// yields a short or empty response instead of a hung test).
std::string HttpRequest(int port, const std::string& raw,
                        int recv_timeout_s = 0) {
  const int fd = ConnectLoopback(port);
  if (recv_timeout_s > 0) {
    timeval tv{};
    tv.tv_sec = recv_timeout_s;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(HttpTest, RecommendStatsAndHealthRoundTrip) {
  ServeFixture fx;
  RecommendationService service(&fx.comparator, &fx.encoder, &fx.space,
                                TinyServe(1, 4));
  ASSERT_TRUE(service.Start().ok());
  HttpOptions http;
  http.port = 0;  // Ephemeral.
  HttpServer server(&service, http);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  EXPECT_NE(HttpRequest(server.port(),
                        "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("200 OK"),
            std::string::npos);

  // CSV body: 3 series x 48 steps drawn from the fixture's generator.
  RecommendRequest req = fx.Request(81);
  std::ostringstream body;
  for (int s = 0; s < req.num_series; ++s) {
    for (int t = 0; t < req.num_steps; ++t) {
      body << (t > 0 ? "," : "") << req.window[static_cast<size_t>(s) * req.num_steps + t];
    }
    body << "\n";
  }
  auto recommend = [&](const std::string& query) {
    std::ostringstream post;
    post << "POST /recommend?" << query << " HTTP/1.1\r\nHost: x\r\n"
         << "Content-Length: " << body.str().size() << "\r\n\r\n"
         << body.str();
    return HttpRequest(server.port(), post.str());
  };
  const std::string response = recommend("p=8&q=8&topk=2");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("\"ranked\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"task_signature\""), std::string::npos);

  // Hostile query integers: a value that is not an int is a 400; an int so
  // large that p + q would overflow parses, then fails validation (422).
  for (const char* query :
       {"p=abc", "p=8x", "p=", "p=2147483648&q=8", "p=8&q=-99999999999"}) {
    EXPECT_NE(recommend(query).find("400 Bad Request"), std::string::npos)
        << query;
  }
  EXPECT_NE(recommend("p=2147483647&q=1").find("422"), std::string::npos);

  const std::string stats =
      HttpRequest(server.port(), "GET /stats HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(stats.find("\"serve\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"requests\""), std::string::npos);

  EXPECT_NE(HttpRequest(server.port(),
                        "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("404"),
            std::string::npos);

  server.Stop();
  service.Shutdown();
}

TEST(HttpTest, SilentClientDoesNotStallAccept) {
  // One client connects and never sends its request, so its handler stays
  // blocked in the read. Later clients — more of them than the server has
  // ever held handlers for at once — must still be accepted and answered.
  ServeFixture fx;
  RecommendationService service(&fx.comparator, &fx.encoder, &fx.space,
                                TinyServe(1, 4));
  ASSERT_TRUE(service.Start().ok());
  HttpOptions http;
  http.port = 0;
  HttpServer server(&service, http);
  ASSERT_TRUE(server.Start().ok());
  const int silent = ConnectLoopback(server.port());
  int answered = 0;
  while (answered < 70 &&
         HttpRequest(server.port(),
                     "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
                     /*recv_timeout_s=*/2)
                 .find("200 OK") != std::string::npos) {
    ++answered;
  }
  // Closing the silent socket ends its handler's read, so Stop can join it
  // (whether or not the requests above got through).
  ::close(silent);
  EXPECT_EQ(answered, 70) << "accept() stalled behind the silent client";
  server.Stop();
  service.Shutdown();
}

TEST(ServingTest, StatsCountersAdvance) {
  ServeFixture fx;
  RecommendationService service(&fx.comparator, &fx.encoder, &fx.space,
                                TinyServe(1, 4));
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(service.Recommend(fx.Request(91)).ok());
  ASSERT_TRUE(service.Recommend(fx.Request(91)).ok());
  ServeStats s = service.stats();
  EXPECT_EQ(s.requests, 2u);
  EXPECT_GE(s.batches, 1u);
  EXPECT_EQ(s.batched_requests, 2u);
  EXPECT_GT(s.duel_rows, 0u);
  EXPECT_GT(s.duel_rows_evaluated, 0u);
  EXPECT_GE(s.mean_batch_size(), 1.0);
  EXPECT_EQ(s.embed_hits, 1u);
  EXPECT_EQ(s.embed_misses, 1u);
  // The registered provider surfaces the same counters process-wide.
  RuntimeStats snap = RuntimeStats::Snapshot();
  EXPECT_EQ(snap.serve.requests, 2u);
  EXPECT_NE(snap.ToJson().find("\"serve\""), std::string::npos);
  service.Shutdown();
}

}  // namespace
}  // namespace serve
}  // namespace autocts
