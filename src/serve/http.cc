#include "serve/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "common/jsonio.h"
#include "common/runtime_config.h"
#include "common/runtime_stats.h"

namespace autocts {
namespace serve {
namespace {

/// One parsed request line + headers + body.
struct HttpRequest {
  std::string method;
  std::string path;    ///< Target up to '?'.
  std::string query;   ///< After '?', may be empty.
  std::string body;
};

/// Reads one HTTP/1.1 request off `fd`. Returns false on malformed input,
/// client disconnect, or an over-limit body.
bool ReadRequest(int fd, size_t max_body, HttpRequest* req) {
  std::string buf;
  char chunk[4096];
  size_t header_end = std::string::npos;
  while (header_end == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<size_t>(n));
    header_end = buf.find("\r\n\r\n");
    if (buf.size() > max_body + 8192) return false;
  }
  const std::string head = buf.substr(0, header_end);
  std::istringstream hs(head);
  std::string request_line;
  if (!std::getline(hs, request_line)) return false;
  {
    std::istringstream rl(request_line);
    std::string target, version;
    if (!(rl >> req->method >> target >> version)) return false;
    const size_t qpos = target.find('?');
    req->path = target.substr(0, qpos);
    if (qpos != std::string::npos) req->query = target.substr(qpos + 1);
  }
  size_t content_length = 0;
  std::string line;
  while (std::getline(hs, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    if (name == "content-length") {
      content_length = static_cast<size_t>(
          std::strtoull(line.c_str() + colon + 1, nullptr, 10));
    }
  }
  if (content_length > max_body) return false;
  req->body = buf.substr(header_end + 4);
  while (req->body.size() < content_length) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    req->body.append(chunk, static_cast<size_t>(n));
  }
  req->body.resize(content_length);
  return true;
}

void WriteResponse(int fd, int code, const char* reason,
                   const std::string& body, const char* content_type) {
  std::ostringstream os;
  os << "HTTP/1.1 " << code << ' ' << reason << "\r\n"
     << "Content-Type: " << content_type << "\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << body;
  const std::string out = os.str();
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent, 0);
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

void WriteError(int fd, int code, const char* reason,
                const std::string& message) {
  JsonWriter w;
  w.BeginObject();
  w.Field("error", message);
  w.EndObject();
  WriteResponse(fd, code, reason, w.str(), "application/json");
}

/// Reads integer query parameter `name` from "a=1&b=2" into `*value`, which
/// keeps its prior value when the parameter is absent. A value that is not
/// a whole decimal integer, or does not fit in an int, is an error.
Status QueryInt(const std::string& query, const std::string& name,
                int* value) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string kv = query.substr(pos, amp - pos);
    const size_t eq = kv.find('=');
    if (eq != std::string::npos && kv.substr(0, eq) == name) {
      const char* text = kv.c_str() + eq + 1;
      char* end = nullptr;
      errno = 0;
      const long n = std::strtol(text, &end, 10);
      if (end == text || *end != '\0' || errno == ERANGE ||
          n < std::numeric_limits<int>::min() ||
          n > std::numeric_limits<int>::max()) {
        return Status::Error("query parameter '" + name +
                             "' is not an int: '" + text + "'");
      }
      *value = static_cast<int>(n);
      return Status::Ok();
    }
    pos = amp + 1;
  }
  return Status::Ok();
}

}  // namespace

Status ParseCsvWindow(const std::string& body, RecommendRequest* request) {
  request->window.clear();
  request->num_series = 0;
  request->num_steps = 0;
  std::istringstream bs(body);
  std::string line;
  while (std::getline(bs, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    int steps = 0;
    const char* p = line.c_str();
    while (*p != '\0') {
      char* end = nullptr;
      const float v = std::strtof(p, &end);
      if (end == p) return Status::Error("unparseable CSV value in window");
      // strtof accepts "nan"/"inf" and overflows "1e40" to inf; any of them
      // would poison the task embedding, so reject with a locatable message.
      if (!std::isfinite(v)) {
        const std::string token(p, static_cast<size_t>(end - p));
        return Status::Error("non-finite value '" + token +
                             "' in CSV window at row " +
                             std::to_string(request->num_series) +
                             ", column " + std::to_string(steps));
      }
      request->window.push_back(v);
      ++steps;
      p = end;
      while (*p == ' ') ++p;
      if (*p == ',') ++p;
    }
    if (request->num_series == 0) {
      request->num_steps = steps;
    } else if (steps != request->num_steps) {
      return Status::Error("CSV rows have differing lengths");
    }
    ++request->num_series;
  }
  if (request->num_series == 0) return Status::Error("empty CSV window");
  return Status::Ok();
}

std::string RecommendationToJson(const Recommendation& rec) {
  JsonWriter w;
  w.BeginObject();
  {
    std::ostringstream sig;
    sig << std::hex << rec.task_signature;
    w.Field("task_signature", sig.str());
  }
  w.Key("ranked");
  w.BeginArray();
  for (const std::string& s : rec.ranked) w.Value(s);
  w.EndArray();
  if (!rec.forecast.empty()) {
    w.Key("forecast");
    w.BeginArray();
    for (float v : rec.forecast) w.Value(static_cast<double>(v));
    w.EndArray();
  }
  w.Field("embed_cache_hit", rec.embed_cache_hit);
  w.Field("model_cache_hit", rec.model_cache_hit);
  w.Field("queue_us", rec.queue_us);
  w.Field("service_us", rec.service_us);
  w.Field("batch_size", rec.batch_size);
  w.EndObject();
  return w.str();
}

HttpServer::HttpServer(RecommendationService* service,
                       const HttpOptions& options)
    : service_(service), options_(options) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Error("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Error("bind() failed (port in use?)");
  }
  if (::listen(listen_fd_, options_.backlog) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Error("listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = static_cast<int>(ntohs(addr.sin_port));
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void HttpServer::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true, std::memory_order_release);
  // Unblocks accept(): shutdown makes the blocked call return with an
  // error; close alone is not reliable on all platforms.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    handlers.swap(handlers_);
  }
  for (std::thread& t : handlers) {
    if (t.joinable()) t.join();
  }
}

void HttpServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;  // Transient (EINTR etc.).
    }
    std::lock_guard<std::mutex> lock(handlers_mu_);
    // Reap handlers that already finished so long-lived servers don't
    // accumulate joinable-but-done threads... joinable threads can't be
    // probed portably, so just bound growth: join all once past the cap
    // (handlers are short-lived — Connection: close).
    if (handlers_.size() > 64) {
      for (std::thread& t : handlers_) {
        if (t.joinable()) t.join();
      }
      handlers_.clear();
    }
    handlers_.emplace_back([this, fd] {
      HandleConnection(fd);
      ::close(fd);
    });
  }
}

void HttpServer::HandleConnection(int fd) {
  HttpRequest req;
  if (!ReadRequest(fd, options_.max_body_bytes, &req)) {
    WriteError(fd, 400, "Bad Request", "malformed HTTP request");
    return;
  }
  if (req.method == "GET" && req.path == "/healthz") {
    WriteResponse(fd, 200, "OK", "ok\n", "text/plain");
    return;
  }
  if (req.method == "GET" && req.path == "/stats") {
    WriteResponse(fd, 200, "OK", RuntimeStats::Snapshot().ToJson(),
                  "application/json");
    return;
  }
  if (req.method == "GET" && req.path == "/config") {
    WriteResponse(fd, 200, "OK", GlobalRuntimeConfig().ToJson(),
                  "application/json");
    return;
  }
  if (req.method == "POST" && req.path == "/recommend") {
    RecommendRequest rec;
    Status s = ParseCsvWindow(req.body, &rec);
    if (!s.ok()) {
      WriteError(fd, 400, "Bad Request", s.message());
      return;
    }
    int single = 0;
    int forecast = 0;
    const std::pair<const char*, int*> params[] = {
        {"p", &rec.p},
        {"q", &rec.q},
        {"single", &single},
        {"topk", &rec.top_k},
        {"forecast", &forecast},
    };
    for (const auto& [name, value] : params) {
      s = QueryInt(req.query, name, value);
      if (!s.ok()) {
        WriteError(fd, 400, "Bad Request", s.message());
        return;
      }
    }
    rec.single_step = single != 0;
    rec.want_forecast = forecast != 0;
    StatusOr<Recommendation> result = service_->Recommend(std::move(rec));
    if (!result.ok()) {
      WriteError(fd, 422, "Unprocessable Entity", result.status().message());
      return;
    }
    WriteResponse(fd, 200, "OK", RecommendationToJson(result.value()),
                  "application/json");
    return;
  }
  WriteError(fd, 404, "Not Found", "unknown endpoint: " + req.path);
}

}  // namespace serve
}  // namespace autocts
