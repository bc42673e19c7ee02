#include "net/http_endpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/log.h"

namespace adarts::net {

namespace {

constexpr int kBacklog = 16;
/// Hard cap on one request's header bytes: anything longer is answered 400
/// and dropped, the same "validate before allocating" contract the frame
/// decoder applies (DESIGN.md §14).
constexpr std::size_t kMaxRequestBytes = 8192;
/// SO_RCVTIMEO per connection: a scraper that connects and stalls is cut
/// loose instead of pinning a thread.
constexpr double kReadTimeoutSeconds = 5.0;
/// Concurrent connection threads; beyond the cap connections are answered
/// 503 and closed (the scrape analogue of the frame server's
/// accept-then-refuse).
constexpr std::size_t kMaxConnections = 32;

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

/// Serializes one reply with the framing headers every response carries.
/// `Connection: close` is deliberate: one request per connection keeps the
/// endpoint free of keep-alive state machines (scrapers reconnect cheaply
/// on loopback).
std::string SerializeReply(const HttpReply& reply) {
  std::ostringstream out;
  out << "HTTP/1.1 " << reply.status << ' ' << ReasonPhrase(reply.status)
      << "\r\nContent-Type: " << reply.content_type
      << "\r\nContent-Length: " << reply.body.size()
      << "\r\nConnection: close\r\n\r\n"
      << reply.body;
  return out.str();
}

void WriteReply(Socket& sock, const HttpReply& reply) {
  const std::string wire = SerializeReply(reply);
  // Best-effort: the scraper may already be gone.
  (void)sock.WriteAll(wire.data(), wire.size());
}

HttpReply PlainReply(int status, std::string body) {
  HttpReply reply;
  reply.status = status;
  reply.body = std::move(body);
  return reply;
}

/// Prometheus metric-name charset: `[a-zA-Z_:][a-zA-Z0-9_:]*`. The repo's
/// dotted `<stage>.<name>` scheme maps onto it by replacing every
/// out-of-charset byte with '_' (we do not emit ':' — it is reserved for
/// recording rules by convention).
std::string SanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9f", seconds);
  return buf;
}

void AppendSummary(std::ostringstream* out, const std::string& metric,
                   const HistogramSnapshot& snapshot,
                   const std::string& extra_labels) {
  const std::string comma = extra_labels.empty() ? "" : ",";
  *out << metric << "{quantile=\"0.5\"" << comma << extra_labels << "} "
       << FormatSeconds(static_cast<double>(snapshot.p50_ns) / 1e9) << '\n'
       << metric << "{quantile=\"0.9\"" << comma << extra_labels << "} "
       << FormatSeconds(static_cast<double>(snapshot.p90_ns) / 1e9) << '\n'
       << metric << "{quantile=\"0.99\"" << comma << extra_labels << "} "
       << FormatSeconds(static_cast<double>(snapshot.p99_ns) / 1e9) << '\n';
  if (!extra_labels.empty()) {
    *out << metric << "_count{" << extra_labels << "} " << snapshot.count
         << '\n'
         << metric << "_sum{" << extra_labels << "} "
         << FormatSeconds(static_cast<double>(snapshot.sum_ns) / 1e9) << '\n';
  } else {
    *out << metric << "_count " << snapshot.count << '\n'
         << metric << "_sum "
         << FormatSeconds(static_cast<double>(snapshot.sum_ns) / 1e9) << '\n';
  }
}

}  // namespace

std::string PrometheusText(const ServeTelemetry& telemetry) {
  std::ostringstream out;

  // --- identity + pressure gauges ---------------------------------------
  out << "# TYPE adarts_engine_version gauge\n"
      << "adarts_engine_version " << telemetry.engine_version << '\n';
  out << "# TYPE adarts_uptime_seconds gauge\n"
      << "adarts_uptime_seconds " << FormatSeconds(telemetry.uptime_seconds)
      << '\n';
  out << "# TYPE adarts_queue_depth gauge\n"
      << "adarts_queue_depth " << telemetry.queue_depth << '\n';
  out << "# TYPE adarts_queue_capacity gauge\n"
      << "adarts_queue_capacity " << telemetry.queue_capacity << '\n';
  out << "# TYPE adarts_ready gauge\n"
      << "adarts_ready " << (telemetry.ready ? 1 : 0) << '\n';

  // --- folded registry: counters, spans, cumulative histograms ----------
  for (const auto& [name, value] : telemetry.metrics.counters) {
    const std::string metric = "adarts_" + SanitizeMetricName(name) + "_total";
    out << "# TYPE " << metric << " counter\n" << metric << ' ' << value
        << '\n';
  }
  for (const auto& [name, seconds] : telemetry.metrics.spans_seconds) {
    const std::string metric = "adarts_" + SanitizeMetricName(name);
    out << "# TYPE " << metric << " counter\n" << metric << ' '
        << FormatSeconds(seconds) << '\n';
  }
  for (const auto& [name, snapshot] : telemetry.metrics.histograms) {
    const std::string metric =
        "adarts_" + SanitizeMetricName(name) + "_seconds";
    out << "# TYPE " << metric << " summary\n";
    AppendSummary(&out, metric, snapshot, "");
  }

  // --- windowed percentiles (the "right now" view) ----------------------
  const std::string window_label =
      "window=\"" + FormatSeconds(telemetry.window_latency.window_seconds) +
      "\"";
  out << "# TYPE adarts_serve_window_latency_seconds summary\n";
  AppendSummary(&out, "adarts_serve_window_latency_seconds",
                telemetry.window_latency.histogram, window_label);
  out << "# TYPE adarts_serve_window_queue_wait_seconds summary\n";
  AppendSummary(&out, "adarts_serve_window_queue_wait_seconds",
                telemetry.window_queue_wait.histogram, window_label);
  return out.str();
}

HttpEndpoint::~HttpEndpoint() {
  Shutdown();
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

void HttpEndpoint::Handle(std::string path, HttpHandler handler) {
  handlers_[std::move(path)] = std::move(handler);
}

Status HttpEndpoint::Start(std::uint16_t port) {
  ADARTS_ASSIGN_OR_RETURN(listener_, ListenTcp(port, kBacklog, &port_));
  int fds[2];
  if (::pipe(fds) != 0) {
    return Status::Internal(std::string("http wake pipe: ") +
                            std::strerror(errno));
  }
  wake_read_fd_ = fds[0];
  wake_write_fd_ = fds[1];
  for (int fd : fds) {
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    ::fcntl(fd, F_SETFL, O_NONBLOCK);
  }
  started_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpEndpoint::Shutdown() {
  if (!started_.exchange(false, std::memory_order_acq_rel)) return;
  shutdown_.store(true, std::memory_order_release);
  if (wake_write_fd_ >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  // Connection threads are short-lived (one request, receive-timeout
  // bounded); wait them out instead of tracking join handles.
  while (active_connections_.load(std::memory_order_acquire) > 0) {
    ::usleep(1000);
  }
}

void HttpEndpoint::AcceptLoop() {
  while (!shutdown_.load(std::memory_order_acquire)) {
    auto accepted = AcceptConnection(listener_, wake_read_fd_);
    if (!accepted.ok()) {
      if (accepted.status().code() != StatusCode::kCancelled) {
        LogWarn("http: accept failed: " + accepted.status().ToString());
      }
      break;
    }
    Socket sock = std::move(accepted).value();
    if (active_connections_.load(std::memory_order_acquire) >=
        kMaxConnections) {
      // Scrape-storm backpressure: explicit 503, never an unbounded thread
      // per excess scraper.
      WriteReply(sock, PlainReply(503, "too many connections\n"));
      continue;
    }
    active_connections_.fetch_add(1, std::memory_order_acq_rel);
    std::thread([this, s = std::move(sock)]() mutable {
      ServeConnection(std::move(s));
      active_connections_.fetch_sub(1, std::memory_order_acq_rel);
    }).detach();
  }
}

void HttpEndpoint::ServeConnection(Socket sock) {
  (void)sock.SetReceiveTimeout(kReadTimeoutSeconds);
  // Read until the end of the header block (or EOF / timeout / size cap).
  // The buffer is capped BEFORE any read can grow it past
  // kMaxRequestBytes — a hostile endless request line dies at the cap,
  // exactly as an oversized frame length dies before allocation.
  std::string request;
  bool complete = false;
  while (request.size() < kMaxRequestBytes) {
    char chunk[1024];
    const std::size_t want =
        std::min(kMaxRequestBytes - request.size(), sizeof(chunk));
    auto got = sock.ReadSome(chunk, want);
    if (!got.ok() || *got == 0) break;
    request.append(chunk, *got);
    if (request.find("\r\n\r\n") != std::string::npos ||
        request.find("\n\n") != std::string::npos) {
      complete = true;
      break;
    }
  }
  if (!complete) {
    WriteReply(sock, PlainReply(400, "malformed or oversized request\n"));
    return;
  }

  // Parse exactly the request line: METHOD SP TARGET SP VERSION.
  const std::size_t line_end = request.find_first_of("\r\n");
  const std::string line = request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      line.find(' ', sp2 + 1) != std::string::npos ||
      (line.compare(sp2 + 1, std::string::npos, "HTTP/1.1") != 0 &&
       line.compare(sp2 + 1, std::string::npos, "HTTP/1.0") != 0)) {
    WriteReply(sock, PlainReply(400, "malformed request line\n"));
    return;
  }
  const std::string method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  // Query strings are accepted and ignored ("/metrics?foo=1" scrapes).
  const std::size_t query = target.find('?');
  if (query != std::string::npos) target.resize(query);
  if (method != "GET") {
    WriteReply(sock, PlainReply(405, "only GET is served\n"));
    return;
  }
  const auto it = handlers_.find(target);
  if (it == handlers_.end()) {
    WriteReply(sock, PlainReply(404, "unknown path\n"));
    return;
  }
  WriteReply(sock, it->second());
}

}  // namespace adarts::net
