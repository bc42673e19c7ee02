#ifndef ADARTS_NET_HTTP_ENDPOINT_H_
#define ADARTS_NET_HTTP_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "common/status.h"
#include "net/server.h"
#include "net/socket.h"

namespace adarts::net {

/// One HTTP reply a handler produces. `status` is the numeric code (200,
/// 404, 503, ...); the endpoint adds the reason phrase and framing headers.
struct HttpReply {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Handler for one GET path, invoked per request on the connection thread.
using HttpHandler = std::function<HttpReply()>;

/// A deliberately minimal, hostile-input-hardened HTTP/1.1 listener for the
/// telemetry plane (DESIGN.md §14): `GET /metrics`, `GET /healthz`,
/// `GET /readyz`. It is NOT a general web server — GET only, no keep-alive
/// (`Connection: close` on every reply), no TLS, loopback only. Prometheus
/// and curl both speak this subset happily, and the tiny surface keeps the
/// parse hardening auditable: request line length is capped before any
/// allocation, the method/target are validated, and anything else is 400.
///
/// Lifecycle mirrors `Server`: `Start()` binds and spawns the accept
/// thread; `Shutdown()` wakes it via the self-pipe, joins, and closes.
class HttpEndpoint {
 public:
  HttpEndpoint() = default;
  ~HttpEndpoint();

  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;

  /// Registers `handler` for `GET <path>` (exact match, e.g. "/metrics").
  /// Must be called before Start.
  void Handle(std::string path, HttpHandler handler);

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port, read back via
  /// `port()`) and spawns the accept thread.
  Status Start(std::uint16_t port);

  /// The bound port (valid after Start).
  std::uint16_t port() const { return port_; }

  /// Stops accepting, waits for in-flight connection threads, closes.
  /// Idempotent.
  void Shutdown();

 private:
  void AcceptLoop();
  void ServeConnection(Socket sock);

  std::map<std::string, HttpHandler> handlers_;
  std::uint16_t port_ = 0;
  Socket listener_;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> started_{false};
  std::thread accept_thread_;
  /// Live connection threads (each detached; this counter + a spin-join in
  /// Shutdown bounds them).
  std::atomic<std::size_t> active_connections_{0};
};

/// Renders one telemetry snapshot in the Prometheus text exposition format
/// (version 0.0.4): gauges for engine version / uptime / queue depth /
/// readiness, then the folded metrics registry — the same one the kStats
/// JSON carries — with each counter once as `adarts_<name>_total` (so
/// `serve.reload.ok` is `adarts_serve_reload_ok_total`), spans in seconds,
/// histogram summaries as `adarts_<name>_seconds{quantile="..."}`, and the
/// windowed latency summaries. Metric names are sanitized
/// (`[^a-zA-Z0-9_]` -> `_`).
std::string PrometheusText(const ServeTelemetry& telemetry);

}  // namespace adarts::net

#endif  // ADARTS_NET_HTTP_ENDPOINT_H_
