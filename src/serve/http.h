#ifndef REPRO_SERVE_HTTP_H_
#define REPRO_SERVE_HTTP_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "serve/service.h"

namespace autocts {
namespace serve {

/// Knobs of the embedded HTTP front end.
struct HttpOptions {
  /// TCP port to bind; 0 picks an ephemeral port (tests) — read the actual
  /// port from HttpServer::port() after Start().
  int port = 8080;
  int backlog = 16;
  /// Largest accepted request body (the CSV window).
  size_t max_body_bytes = size_t{1} << 24;
};

/// Minimal HTTP/1.1 front end over the in-process RecommendationService —
/// plain POSIX sockets, no dependencies, one connection-handler thread per
/// accepted client (micro-batching needs concurrent in-flight requests to
/// coalesce, so handlers block on Recommend() in parallel).
///
/// Endpoints:
///   POST /recommend?p=12&q=12&single=0&topk=1&forecast=0
///        Body: CSV window — one line per series, comma-separated values;
///        num_series = line count, num_steps = values per line. Optional
///        query params mirror RecommendRequest. JSON response.
///   GET  /stats    RuntimeStats::Snapshot().ToJson() (includes "serve").
///   GET  /config   The process RuntimeConfig as JSON.
///   GET  /healthz  "ok".
class HttpServer {
 public:
  /// `service` must be Start()ed and must outlive the server.
  HttpServer(RecommendationService* service, const HttpOptions& options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds + listens + spawns the accept thread.
  Status Start();

  /// Stops accepting, joins every handler. Idempotent.
  void Stop();

  /// The bound port (equals options.port unless it was 0 = ephemeral).
  int port() const { return port_; }

 private:
  void AcceptLoop();
  void HandleConnection(int fd);

  RecommendationService* service_;
  HttpOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  /// One connection's thread. `done` flips as the thread's last act, so
  /// the accept loop joins only handlers that can no longer block.
  struct Handler {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::mutex handlers_mu_;
  std::vector<Handler> handlers_;
};

/// Parses a CSV window body into `request` (window/num_series/num_steps).
/// Exposed for tests; query parameters are handled by the server.
Status ParseCsvWindow(const std::string& body, RecommendRequest* request);

/// Serializes a served Recommendation as the /recommend JSON response body.
std::string RecommendationToJson(const Recommendation& rec);

}  // namespace serve
}  // namespace autocts

#endif  // REPRO_SERVE_HTTP_H_
