#ifndef ADARTS_NET_SERVER_H_
#define ADARTS_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "adarts/adarts.h"
#include "common/bounded_queue.h"
#include "common/cancellation.h"
#include "common/exec_context.h"
#include "common/metrics.h"
#include "common/sliding_histogram.h"
#include "common/status.h"
#include "net/engine_registry.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace adarts::net {

/// Operator knobs for the serving daemon (DESIGN.md §10).
struct ServeOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back via
  /// `Server::port()`).
  std::uint16_t port = 0;
  /// Request executor threads. Each owns one long-lived `ExecContext`, so
  /// with the default single worker every request drives through one shared
  /// context; more workers trade strict sharing for parallel requests and
  /// their metrics are folded back into one registry at export.
  std::size_t num_workers = 1;
  /// Pool width of each worker's ExecContext (batch requests fan out on
  /// it). 1 = serial.
  std::size_t threads_per_worker = 1;
  /// Admission-queue bound: requests beyond it are shed with kUnavailable
  /// instead of queueing unboundedly.
  std::size_t queue_capacity = 64;
  /// Concurrent connections; beyond the cap the server accepts, answers one
  /// kUnavailable refusal frame, and closes — an explicit signal the client
  /// can back off on, instead of unbounded reader-thread growth.
  std::size_t max_connections = 256;
  /// Snapshot path reloads fall back to when a kReload request (or SIGHUP)
  /// names no path of its own; also recorded in the swap log. Empty
  /// disables pathless reloads.
  std::string model_path;
  /// Default per-request deadline (measured from admission) applied when a
  /// request carries none; <= 0 disables.
  double default_deadline_ms = 0.0;
  /// Test-only: run by the executing worker right before each admitted
  /// request (never for shed or expired-deadline short-circuits). Lets
  /// tests hold a worker mid-request to fill the queue deterministically.
  std::function<void(const Request&)> worker_hook_for_test;
};

/// One live telemetry scrape (DESIGN.md §14): everything an operator needs
/// to see "right now" folded into a copyable snapshot — identity (engine
/// version, uptime), queue pressure, the swap log tail, the cumulative
/// folded metrics (every `serve.*` counter among them), and the last-minute
/// windowed latency percentiles the cumulative histograms cannot show.
/// Produced by `Server::Telemetry()` against live recorders; rendered as
/// JSON for the kStats frame and as Prometheus exposition text for
/// `GET /metrics`.
struct ServeTelemetry {
  std::uint64_t engine_version = 0;
  double uptime_seconds = 0.0;
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  /// False once a drain began: the readiness signal `/readyz` reports.
  bool ready = false;
  bool draining = false;
  /// The most recent swap-log entries (newest last, at most kSwapTail).
  std::vector<SwapRecord> swap_tail;
  /// Cumulative: serve-level registry + every worker context, folded live.
  StageMetrics metrics;
  /// Last-window percentiles of request latency (admission to response,
  /// queue wait included) and of queue wait alone.
  WindowedSnapshot window_latency;
  WindowedSnapshot window_queue_wait;

  static constexpr std::size_t kSwapTail = 8;

  /// The kStats JSON document (one object; keys are stable and sorted
  /// within each section — tools/adarts_top and the tests parse it with
  /// common/json).
  std::string ToJson() const;
};

/// The long-lived serving front end: accepts length-prefixed request frames
/// on loopback TCP, pushes them through a bounded admission queue, and
/// executes them against a loaded `Adarts` engine on worker-owned
/// `ExecContext`s with per-request cooperative deadlines.
///
/// Lifecycle: `Start()` binds and spawns threads; `RequestShutdown()`
/// (async-signal-safe — an atomic store plus a self-pipe write) begins
/// graceful drain; `Wait()` blocks until the drain completes: accepting
/// stops, connection read sides shut down, every request already admitted
/// to the queue is executed and answered, metrics are folded, sockets
/// close. No in-flight reply is ever dropped.
class Server {
 public:
  /// `engine` must outlive the server (non-owning; the server wraps it in a
  /// no-op-deleter shared_ptr for the registry). Reloads still work: the
  /// replacement engines are owned by the registry normally.
  Server(const Adarts& engine, ServeOptions options);
  /// Owning form: the server's registry keeps the engine alive.
  Server(std::shared_ptr<const Adarts> engine, ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the accept loop + workers.
  Status Start();

  /// The bound port (valid after Start).
  std::uint16_t port() const { return port_; }

  /// Begins graceful shutdown; safe from any thread and from signal
  /// handlers, idempotent.
  void RequestShutdown();

  /// Blocks until shutdown is requested and the drain completes. Returns
  /// the accept loop's terminal status (OK for a clean drain).
  Status Wait();

  /// Serve-level metrics plus every worker context's engine metrics
  /// (`recommend.latency`, per-stage spans) folded into one snapshot. The
  /// serve counters, all registered at 0 by the constructor:
  /// `serve.conn_accepted` / `serve.conn_refused`; `serve.requests` (every
  /// frame read); the verdicts `serve.ok`, `serve.errors` and `serve.shed`,
  /// which sum to `serve.requests` for recommend/ping/repair traffic, with
  /// `serve.deadline_exceeded` counting the errors that were deadline
  /// expiries; `serve.responses_sent`, `serve.write_errors`,
  /// `serve.bad_frames`, `serve.drained_in_flight`, `serve.reload.ok`,
  /// `serve.reload.failed` and `serve.stats_scrapes`.
  /// Callable at any time — workers record wait-free, so folding live
  /// registries observes a consistent monotone prefix of the traffic.
  StageMetrics MetricsSnapshot() const;

  /// The full live telemetry snapshot (DESIGN.md §14): MetricsSnapshot
  /// plus identity, queue pressure, windowed percentiles and the swap-log
  /// tail. This is what a kStats frame or a `GET /metrics` scrape renders;
  /// it never stops the workers.
  ServeTelemetry Telemetry() const;

  /// Runs an out-of-band reload (the SIGHUP path) on the calling thread:
  /// load-validate the snapshot at `path` (empty = ServeOptions::model_path),
  /// canary-check it, swap on success. Returns the outcome, which also lands
  /// in the swap log and the `serve.reload.*` counters. kUnavailable if
  /// another reload is in flight or a drain began.
  Status RequestReload(const std::string& path);

  /// The registry holding the live engine; valid for the server's lifetime.
  /// Exposed for swap-log inspection and version queries.
  const EngineRegistry& registry() const { return registry_; }

 private:
  struct ConnState {
    Socket sock;
    std::mutex write_mu;
    std::uint64_t index = 0;
    std::atomic<std::uint64_t> requests{0};
  };

  struct WorkItem {
    std::shared_ptr<ConnState> conn;
    Request request;
    CancellationToken token;
    bool has_token = false;
    std::uint64_t enqueue_steady_ns = 0;
    std::uint64_t enqueue_trace_ns = 0;
  };

  void AcceptLoop();
  void RefuseConnection(Socket& sock);
  void ReaderLoop(std::shared_ptr<ConnState> conn);
  void WorkerLoop(std::size_t worker_index);
  /// One reload on the calling thread, under `reload_mu_`: DoReload on a
  /// serial context, then the `serve.reload.*` counter. kUnavailable without
  /// loading anything if another reload holds the mutex.
  Status Reload(const std::string& path);
  /// The whole reload pipeline: Load (header + checksum verified), canary
  /// recommend on a synthetic series, registry swap. Any failure leaves the
  /// active engine serving and returns the precise error.
  Status DoReload(ExecContext& ctx, const std::string& requested_path);
  void Execute(ExecContext& ctx, const Adarts& engine, const WorkItem& item,
               Response* response);
  void SendResponse(const std::shared_ptr<ConnState>& conn,
                    const Response& response);

  EngineRegistry registry_;
  const ServeOptions options_;
  std::uint16_t port_ = 0;
  Socket listener_;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> started_{false};

  BoundedQueue<WorkItem> queue_;
  /// Held for the whole of one reload and taken with try_lock: at most one
  /// reload in flight; a request while one runs is answered kUnavailable
  /// ("reload already in progress").
  std::mutex reload_mu_;
  std::vector<std::unique_ptr<ExecContext>> worker_contexts_;
  std::vector<std::thread> workers_;
  std::thread accept_thread_;
  Status accept_status_;

  mutable std::mutex conns_mu_;
  std::condition_variable readers_done_;
  std::vector<std::shared_ptr<ConnState>> conns_;
  std::size_t active_readers_ = 0;
  std::uint64_t next_conn_index_ = 0;

  mutable Metrics metrics_;
  /// The serve counters listed at `MetricsSnapshot`, registered by the
  /// constructor so every scrape shows each one, at 0 before its first
  /// event; the request paths increment these pointers, never a name.
  struct Counters {
    MetricCounter* conn_accepted;
    MetricCounter* conn_refused;
    MetricCounter* requests;
    MetricCounter* ok;
    MetricCounter* errors;
    MetricCounter* shed;
    MetricCounter* deadline_exceeded;
    MetricCounter* responses_sent;
    MetricCounter* write_errors;
    MetricCounter* bad_frames;
    MetricCounter* drained_in_flight;
    MetricCounter* reload_ok;
    MetricCounter* reload_failed;
    MetricCounter* stats_scrapes;
  };
  const Counters counters_;

  /// Steady-clock origin for `ServeTelemetry::uptime_seconds` (set in
  /// Start).
  std::uint64_t start_steady_ns_ = 0;
  /// Last-minute request-latency / queue-wait windows (12 × 5 s buckets);
  /// workers record wait-free, scrapes fold without stopping them.
  SlidingHistogram window_latency_;
  SlidingHistogram window_queue_wait_;
};

}  // namespace adarts::net

#endif  // ADARTS_NET_SERVER_H_
