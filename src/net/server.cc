#include "net/server.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>

#include "common/failpoint.h"
#include "common/json.h"
#include "common/log.h"
#include "common/trace.h"
#include "impute/imputer.h"

namespace adarts::net {

namespace {

constexpr int kBacklog = 64;

std::uint64_t SteadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The self-check input every staged engine must handle before it may serve:
// a plausible sine-plus-trend series with one missing block, exercising the
// full feature-extract → committee-vote path.
ts::TimeSeries CanarySeries() {
  constexpr std::size_t kLength = 96;
  la::Vector values(kLength);
  std::vector<bool> missing(kLength, false);
  for (std::size_t i = 0; i < kLength; ++i) {
    values[i] = std::sin(0.2 * static_cast<double>(i)) +
                0.01 * static_cast<double>(i);
  }
  for (std::size_t i = 40; i < 48; ++i) {
    missing[i] = true;
    values[i] = 0.0;
  }
  ts::TimeSeries series(std::move(values), std::move(missing));
  series.set_name("__reload_canary__");
  return series;
}

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

void AppendWindowJson(std::ostringstream* out,
                      const WindowedSnapshot& window) {
  *out << "{\"window_seconds\":" << FormatDouble(window.window_seconds)
       << ",\"covered_seconds\":" << FormatDouble(window.covered_seconds)
       << ",\"histogram\":" << HistogramSnapshotToJson(window.histogram)
       << "}";
}

}  // namespace

std::string ServeTelemetry::ToJson() const {
  std::ostringstream out;
  out << "{\"engine_version\":" << engine_version
      << ",\"uptime_seconds\":" << FormatDouble(uptime_seconds)
      << ",\"queue_depth\":" << queue_depth
      << ",\"queue_capacity\":" << queue_capacity
      << ",\"ready\":" << (ready ? "true" : "false")
      << ",\"draining\":" << (draining ? "true" : "false");
  out << ",\"swap_tail\":[";
  bool first = true;
  for (const SwapRecord& record : swap_tail) {
    if (!first) out << ',';
    first = false;
    out << "{\"engine_version\":" << record.engine_version << ",\"path\":\""
        << json::Escape(record.path) << "\",\"success\":"
        << (record.success ? "true" : "false") << ",\"detail\":\""
        << json::Escape(record.detail) << "\"}";
  }
  out << "],\"window_latency\":";
  AppendWindowJson(&out, window_latency);
  out << ",\"window_queue_wait\":";
  AppendWindowJson(&out, window_queue_wait);
  out << ",\"metrics\":" << metrics.ToJson() << "}";
  return out.str();
}

Server::Server(const Adarts& engine, ServeOptions options)
    : Server(std::shared_ptr<const Adarts>(&engine, [](const Adarts*) {}),
             std::move(options)) {}

Server::Server(std::shared_ptr<const Adarts> engine, ServeOptions options)
    : registry_(std::move(engine),
                options.model_path.empty() ? "<startup>" : options.model_path),
      options_(std::move(options)),
      queue_(options_.queue_capacity),
      counters_{
          .conn_accepted = metrics_.counter("serve.conn_accepted"),
          .conn_refused = metrics_.counter("serve.conn_refused"),
          .requests = metrics_.counter("serve.requests"),
          .ok = metrics_.counter("serve.ok"),
          .errors = metrics_.counter("serve.errors"),
          .shed = metrics_.counter("serve.shed"),
          .deadline_exceeded = metrics_.counter("serve.deadline_exceeded"),
          .responses_sent = metrics_.counter("serve.responses_sent"),
          .write_errors = metrics_.counter("serve.write_errors"),
          .bad_frames = metrics_.counter("serve.bad_frames"),
          .drained_in_flight = metrics_.counter("serve.drained_in_flight"),
          .reload_ok = metrics_.counter("serve.reload.ok"),
          .reload_failed = metrics_.counter("serve.reload.failed"),
          .stats_scrapes = metrics_.counter("serve.stats_scrapes"),
      } {}

Server::~Server() {
  if (started_.load(std::memory_order_acquire)) {
    RequestShutdown();
    (void)Wait();
  }
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

Status Server::Start() {
  ADARTS_ASSIGN_OR_RETURN(listener_,
                          ListenTcp(options_.port, kBacklog, &port_));
  int fds[2];
  if (::pipe(fds) != 0) {
    return Status::Internal(std::string("server wake pipe: ") +
                            std::strerror(errno));
  }
  wake_read_fd_ = fds[0];
  wake_write_fd_ = fds[1];
  for (int fd : fds) {
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    ::fcntl(fd, F_SETFL, O_NONBLOCK);
  }

  const std::size_t workers = options_.num_workers == 0 ? 1
                                                        : options_.num_workers;
  worker_contexts_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    // Spans a worker records land in the daemon's ScopedTrace session.
    worker_contexts_.push_back(
        std::make_unique<ExecContext>(options_.threads_per_worker));
  }
  start_steady_ns_ = SteadyNowNs();
  started_.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::RequestShutdown() {
  // Async-signal-safe: one atomic store, one write(2) to a non-blocking
  // pipe. Everything heavier happens in Wait().
  shutdown_requested_.store(true, std::memory_order_release);
  if (wake_write_fd_ >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
}

Status Server::Wait() {
  if (!started_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server not started");
  }
  // Phase 1: the accept loop exits on the shutdown wake (or on a terminal
  // accept error). Joining it blocks Wait until one of the two.
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();

  // Phase 2: stop reading new requests. SHUT_RD wakes every reader with a
  // clean EOF while keeping the write side open for in-flight replies. A
  // reader running a kReload finishes it and writes its reply first.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) conn->sock.ShutdownRead();
  }
  {
    std::unique_lock<std::mutex> lock(conns_mu_);
    readers_done_.wait(lock, [this] { return active_readers_ == 0; });
  }

  // Phase 3: everything admitted before this line is still answered — the
  // queue rejects new work but drains existing items to the workers.
  queue_.Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }

  // Phase 4: all replies are written; now the write sides may go.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) conn->sock.ShutdownBoth();
    conns_.clear();
  }
  started_.store(false, std::memory_order_release);
  return accept_status_;
}

void Server::AcceptLoop() {
  Tracer::SetCurrentThreadName("serve-accept");
  while (!shutdown_requested_.load(std::memory_order_acquire)) {
    auto accepted = AcceptConnection(listener_, wake_read_fd_);
    if (!accepted.ok()) {
      if (accepted.status().code() != StatusCode::kCancelled) {
        accept_status_ = accepted.status();
        LogError("serve: accept failed: " + accepted.status().ToString());
      }
      break;
    }
    auto conn = std::make_shared<ConnState>();
    conn->sock = std::move(accepted).value();
    if (FailpointRegistry::Armed() &&
        !FailpointRegistry::Instance().Check("net.accept").ok()) {
      // Injected accept-path failure: this one connection is dropped, the
      // accept loop itself must survive and keep serving.
      counters_.conn_refused->Increment();
      continue;
    }
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.size() < options_.max_connections &&
          !shutdown_requested_.load(std::memory_order_acquire)) {
        conn->index = next_conn_index_++;
        conns_.push_back(conn);
        ++active_readers_;
        counters_.conn_accepted->Increment();
        std::thread([this, conn] { ReaderLoop(conn); }).detach();
        admitted = true;
      }
    }
    if (!admitted) {
      // Over the connection cap (or racing a shutdown): accept-then-refuse
      // with an explicit kUnavailable frame the client can back off on,
      // instead of a silent close it cannot tell apart from a crash — and
      // instead of an unbounded reader-thread per excess connection.
      counters_.conn_refused->Increment();
      RefuseConnection(conn->sock);
    }
  }
}

void Server::RefuseConnection(Socket& sock) {
  Response refusal;
  refusal.code = StatusCode::kUnavailable;
  refusal.message = "connection limit reached, retry later";
  // Best-effort: the client may already be gone.
  (void)WriteFrame(sock, EncodeResponse(refusal));
  sock.Close();
}

void Server::ReaderLoop(std::shared_ptr<ConnState> conn) {
  Tracer::SetCurrentThreadName("serve-conn-" + std::to_string(conn->index));
  while (true) {
    auto frame = ReadFrame(conn->sock);
    if (!frame.ok()) {
      // kUnavailable = clean client disconnect; anything else is logged.
      if (frame.status().code() != StatusCode::kUnavailable) {
        LogWarn("serve: connection " + std::to_string(conn->index) +
                " read failed: " + frame.status().ToString());
      }
      break;
    }
    if (FailpointRegistry::Armed() &&
        !FailpointRegistry::Instance().Check("net.read.frame").ok()) {
      // Injected mid-stream read failure: drop the connection exactly as a
      // torn read would. The client observes a hard close, never a stall.
      LogWarn("serve: connection " + std::to_string(conn->index) +
              " injected read failure");
      break;
    }
    counters_.requests->Increment();
    conn->requests.fetch_add(1, std::memory_order_relaxed);

    auto request = DecodeRequest(*frame);
    if (!request.ok()) {
      // The frame boundary is intact, but the body is hostile or corrupt:
      // answer with the decode error and drop the connection.
      Response response;
      response.code = request.status().code();
      response.message = request.status().message();
      SendResponse(conn, response);
      counters_.bad_frames->Increment();
      break;
    }

    if (request->type == MessageType::kStats) {
      // Telemetry scrapes never enter the admission queue: answered right
      // here on the reader thread, so a saturated (or draining) server is
      // still observable. Like reloads they are control-plane traffic —
      // counted in serve.stats_scrapes, never in the verdict counters.
      counters_.stats_scrapes->Increment();
      Response response;
      response.type = MessageType::kStats;
      response.id = request->id;
      response.engine_version = registry_.ActiveVersion();
      response.text = Telemetry().ToJson();
      SendResponse(conn, response);
      continue;
    }

    if (request->type == MessageType::kReload) {
      // Reloads bypass the admission queue: this reader validates and swaps,
      // then answers. A reload that finds another in flight is refused, not
      // queued.
      const Status outcome = Reload(request->text);
      Response response;
      response.type = MessageType::kReload;
      response.id = request->id;
      if (!outcome.ok()) {
        response.code = outcome.code();
        response.message = outcome.message();
      }
      // On success: the freshly swapped version. On failure: the version
      // still serving — proof to the caller that the bad snapshot changed
      // nothing.
      response.engine_version = registry_.ActiveVersion();
      SendResponse(conn, response);
      continue;
    }

    WorkItem item;
    item.conn = conn;
    item.request = std::move(request).value();
    const double deadline_ms = item.request.deadline_ms > 0.0
                                   ? item.request.deadline_ms
                                   : options_.default_deadline_ms;
    if (deadline_ms > 0.0) {
      item.token = CancellationToken::WithDeadline(deadline_ms / 1e3);
      item.has_token = true;
    }
    item.enqueue_steady_ns = SteadyNowNs();
    item.enqueue_trace_ns = Tracer::Global().NowNs();

    const MessageType type = item.request.type;
    const std::uint64_t id = item.request.id;
    const bool injected_shed =
        FailpointRegistry::Armed() &&
        !FailpointRegistry::Instance().Check("net.queue.push").ok();
    if (injected_shed || !queue_.TryPush(std::move(item))) {
      // Admission control: full (or draining) queue sheds with an explicit
      // kUnavailable instead of queueing unboundedly.
      counters_.shed->Increment();
      Response response;
      response.type = type;
      response.id = id;
      response.code = StatusCode::kUnavailable;
      response.message = "admission queue full, request shed";
      SendResponse(conn, response);
    }
  }
  LogInfo("serve: connection " + std::to_string(conn->index) + " closed (" +
          std::to_string(conn->requests.load(std::memory_order_relaxed)) +
          " requests)");
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].get() == conn.get()) {
      conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  --active_readers_;
  readers_done_.notify_all();
}

void Server::WorkerLoop(std::size_t worker_index) {
  Tracer::SetCurrentThreadName("serve-worker-" + std::to_string(worker_index));
  ExecContext& ctx = *worker_contexts_[worker_index];
  LatencyHistogram* queue_wait = metrics_.histogram("serve.queue_wait");
  WorkItem item;
  while (queue_.Pop(&item)) {
    if (shutdown_requested_.load(std::memory_order_acquire)) {
      counters_.drained_in_flight->Increment();
    }
    const std::uint64_t wait_ns = SteadyNowNs() - item.enqueue_steady_ns;
    queue_wait->Record(wait_ns);
    window_queue_wait_.Record(wait_ns);
    Tracer& tracer = Tracer::Global();
    if (tracer.enabled()) {
      tracer.RecordComplete("serve.queue_wait", item.enqueue_trace_ns,
                            wait_ns);
    }
    TraceSpan span("serve.request");

    Response response;
    response.type = item.request.type;
    response.id = item.request.id;
    if (item.has_token && item.token.expired()) {
      // The deadline budget covers queue wait: a request that expired while
      // queued is answered without touching the engine.
      response.code = StatusCode::kDeadlineExceeded;
      response.message = "deadline expired in admission queue";
    } else {
      if (options_.worker_hook_for_test) {
        options_.worker_hook_for_test(item.request);
      }
      // One registry load per request: this reference pins the engine for
      // the whole execution, so a hot-swap landing mid-request can never
      // tear it — the request completes on the engine it started on, and
      // the response reports exactly that engine's version.
      std::shared_ptr<const Adarts> engine = registry_.Active();
      ctx.set_cancel(item.has_token ? &item.token : nullptr);
      Execute(ctx, *engine, item, &response);
      ctx.set_cancel(nullptr);
      response.engine_version = engine->engine_version();
    }
    if (response.ok()) {
      counters_.ok->Increment();
    } else {
      counters_.errors->Increment();
      if (response.code == StatusCode::kDeadlineExceeded) {
        counters_.deadline_exceeded->Increment();
      }
    }
    SendResponse(item.conn, response);
    // Admission-to-response, queue wait included — the latency a client of
    // this request actually saw, feeding the scrape-time window.
    window_latency_.Record(SteadyNowNs() - item.enqueue_steady_ns);
    item = WorkItem{};  // release the connection reference promptly
  }
}

void Server::Execute(ExecContext& ctx, const Adarts& engine,
                     const WorkItem& item, Response* response) {
  const Request& request = item.request;
  switch (request.type) {
    case MessageType::kPing:
      return;
    case MessageType::kReload:
      // Run by the reader in ReaderLoop; reaching here is a bug.
      response->code = StatusCode::kInternal;
      response->message = "reload request reached a worker";
      return;
    case MessageType::kStats:
      // Answered inline by ReaderLoop; reaching here is a bug.
      response->code = StatusCode::kInternal;
      response->message = "stats request reached a worker";
      return;
    case MessageType::kRecommend: {
      auto rec = engine.Recommend(request.series[0], ctx);
      if (!rec.ok()) {
        response->code = rec.status().code();
        response->message = rec.status().message();
        return;
      }
      response->algorithms.emplace_back(impute::AlgorithmToString(*rec));
      return;
    }
    case MessageType::kRecommendBatch: {
      RecommendBatchOptions batch_options;
      auto recs = engine.RecommendBatch(request.series, batch_options, ctx);
      if (!recs.ok()) {
        response->code = recs.status().code();
        response->message = recs.status().message();
        return;
      }
      response->algorithms.reserve(recs->size());
      for (impute::Algorithm algorithm : *recs) {
        response->algorithms.emplace_back(
            impute::AlgorithmToString(algorithm));
      }
      return;
    }
    case MessageType::kRepair: {
      auto repaired = engine.Repair(request.series[0], ctx);
      if (!repaired.ok()) {
        response->code = repaired.status().code();
        response->message = repaired.status().message();
        return;
      }
      response->series.push_back(std::move(repaired).value());
      return;
    }
  }
  response->code = StatusCode::kInternal;
  response->message = "unhandled request type";
}

Status Server::Reload(const std::string& path) {
  std::unique_lock<std::mutex> lock(reload_mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    return Status::Unavailable("reload already in progress, retry later");
  }
  // A serial context: canary checks never contend with the workers' pools.
  ExecContext ctx(1);
  const Status outcome = DoReload(ctx, path);
  if (outcome.ok()) {
    counters_.reload_ok->Increment();
  } else {
    counters_.reload_failed->Increment();
    LogWarn("serve: reload rejected, prior engine stays live: " +
            outcome.ToString());
  }
  return outcome;
}

Status Server::DoReload(ExecContext& ctx, const std::string& requested_path) {
  const std::string path =
      requested_path.empty() ? options_.model_path : requested_path;
  if (path.empty()) {
    return Status::FailedPrecondition(
        "reload: no snapshot path (request named none and the server has no "
        "configured model path)");
  }
  LogInfo("serve: reload: staging " + path);
  // Stage 1 — load. Header bounds and the FNV-1a content checksum are
  // verified inside Load before anything is constructed; a torn or
  // corrupted snapshot dies here with a precise error.
  auto loaded = Adarts::Load(path);
  if (!loaded.ok()) {
    registry_.RecordRejected(0, path, loaded.status().ToString());
    return loaded.status();
  }
  auto staged = std::make_shared<const Adarts>(std::move(loaded).value());
  const std::uint64_t version = staged->engine_version();

  // Stage 2 — canary self-check: the staged engine must answer a real
  // recommend end-to-end (feature extraction through committee vote)
  // before it may serve anyone.
  const Status canary = [&]() -> Status {
    ADARTS_FAILPOINT("net.reload.verify");
    auto rec = staged->Recommend(CanarySeries(), ctx);
    if (!rec.ok()) {
      return Status::Internal("reload: canary recommend failed: " +
                              rec.status().ToString());
    }
    return Status::OK();
  }();
  if (!canary.ok()) {
    registry_.RecordRejected(version, path, canary.ToString());
    return canary;
  }

  // Stage 3 — publish. One atomic pointer store; the registry refuses
  // version regressions and logs the outcome either way.
  if (FailpointRegistry::Armed()) {
    Status fp = FailpointRegistry::Instance().Check("net.reload.swap");
    if (!fp.ok()) {
      registry_.RecordRejected(version, path, fp.ToString());
      return fp;
    }
  }
  ADARTS_RETURN_NOT_OK(registry_.Swap(std::move(staged), path));
  LogInfo("serve: reload: engine v" + std::to_string(version) +
          " live from " + path);
  return Status::OK();
}

Status Server::RequestReload(const std::string& path) {
  if (shutdown_requested_.load(std::memory_order_acquire)) {
    return Status::Unavailable("server draining, reload refused");
  }
  return Reload(path);
}

void Server::SendResponse(const std::shared_ptr<ConnState>& conn,
                          const Response& response) {
  if (FailpointRegistry::Armed() &&
      !FailpointRegistry::Instance().Check("net.write.frame").ok()) {
    // Injected mid-frame write failure: tear the connection down so the
    // client observes a hard close, never a half-written frame or a stall.
    counters_.write_errors->Increment();
    LogWarn("serve: connection " + std::to_string(conn->index) +
            " injected write failure");
    conn->sock.ShutdownBoth();
    return;
  }
  const std::string body = EncodeResponse(response);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  Status written = WriteFrame(conn->sock, body);
  if (written.ok()) {
    counters_.responses_sent->Increment();
  } else {
    counters_.write_errors->Increment();
    LogWarn("serve: connection " + std::to_string(conn->index) +
            " write failed: " + written.ToString());
  }
}

StageMetrics Server::MetricsSnapshot() const {
  Metrics merged;
  metrics_.MergeInto(&merged);
  for (const auto& ctx : worker_contexts_) {
    ctx->metrics().MergeInto(&merged);
  }
  return merged.Snapshot();
}

ServeTelemetry Server::Telemetry() const {
  ServeTelemetry out;
  out.engine_version = registry_.ActiveVersion();
  out.uptime_seconds =
      start_steady_ns_ == 0
          ? 0.0
          : static_cast<double>(SteadyNowNs() - start_steady_ns_) / 1e9;
  out.queue_depth = queue_.size();
  out.queue_capacity = options_.queue_capacity;
  out.draining = shutdown_requested_.load(std::memory_order_acquire);
  out.ready = started_.load(std::memory_order_acquire) && !out.draining;
  std::vector<SwapRecord> log = registry_.SwapLog();
  const std::size_t tail =
      log.size() > ServeTelemetry::kSwapTail ? ServeTelemetry::kSwapTail
                                             : log.size();
  out.swap_tail.assign(log.end() - static_cast<std::ptrdiff_t>(tail),
                       log.end());
  out.metrics = MetricsSnapshot();
  out.window_latency = window_latency_.Snapshot();
  out.window_queue_wait = window_queue_wait_.Snapshot();
  return out;
}

}  // namespace adarts::net
