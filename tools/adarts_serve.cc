// adarts_serve — the long-lived serving daemon (DESIGN.md §10).
//
//   adarts_serve --model bundle.adarts [--port N] [--port-file FILE]
//                [--workers N] [--threads-per-worker N] [--queue N]
//                [--max-conns N] [--deadline-ms F]
//                [--http-port N] [--http-port-file FILE]
//                [--drain-grace-ms F] [--metrics-json FILE] [--trace FILE]
//
// Loads an engine snapshot and serves recommend / recommend-batch / repair
// requests over the length-prefixed loopback protocol of src/net/protocol.h.
// Prints `listening on 127.0.0.1:<port>` once ready (and writes the bound
// port to --port-file, so scripts using an ephemeral --port 0 can find it).
//
// The telemetry plane (DESIGN.md §14) rides alongside: kStats frames on the
// main port answer the live folded snapshot as JSON, and --http-port opens
// a plain-HTTP sidecar serving GET /metrics (Prometheus text exposition),
// /healthz (liveness) and /readyz (engine loaded and not draining).
//
// SIGTERM/SIGINT begin a graceful drain: /readyz flips to 503, the optional
// --drain-grace-ms window lets load balancers observe it, then accepting
// stops, every request already admitted to the queue is executed and
// answered, metrics are flushed, and the process exits 0. No in-flight
// reply is dropped.
//
// SIGHUP (or a kReload protocol frame) hot-swaps the engine: the snapshot
// at --model is re-loaded into a staging engine, checksum-verified and
// canary-checked, and only then atomically published — under full traffic,
// with zero dropped requests. A bad snapshot is rejected and the running
// engine keeps serving (DESIGN.md §12).

#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "adarts/adarts.h"
#include "common/log.h"
#include "common/shutdown.h"
#include "common/trace.h"
#include "net/http_endpoint.h"
#include "net/server.h"
#include "tools/tool_args.h"

namespace adarts::serve {
namespace {

using tools::Args;
using tools::BadFlag;
using tools::Fail;
using tools::FirstError;

/// Cap on --workers and --threads-per-worker: a thread count beyond it is a
/// typo, not a deployment, and would otherwise die spawning threads.
constexpr std::size_t kMaxThreads = 1024;

int Usage() {
  std::fprintf(
      stderr,
      "usage: adarts_serve --model FILE [--port N] [--port-file FILE]\n"
      "                    [--workers N] [--threads-per-worker N]\n"
      "                    [--queue N] [--max-conns N]\n"
      "                    [--deadline-ms F] [--http-port N]\n"
      "                    [--http-port-file FILE] [--drain-grace-ms F]\n"
      "                    [--metrics-json FILE] [--trace FILE]\n"
      "  --model          engine snapshot written by `adarts_cli train`\n"
      "  --port           TCP port on 127.0.0.1 (default 0 = ephemeral)\n"
      "  --port-file      write the bound port to FILE once listening\n"
      "  --workers        request executor threads (default 1, at most\n"
      "                   1024; the same cap holds --threads-per-worker)\n"
      "  --queue          admission queue bound; excess requests are shed\n"
      "                   with an Unavailable response (default 64)\n"
      "  --max-conns      concurrent connection cap; excess connections\n"
      "                   are refused with Unavailable (default 256)\n"
      "  --deadline-ms    default per-request deadline (0 = none)\n"
      "  --http-port      also serve GET /metrics, /healthz, /readyz over\n"
      "                   plain HTTP on this 127.0.0.1 port (0 = ephemeral;\n"
      "                   omit the flag to disable the sidecar)\n"
      "  --http-port-file write the bound HTTP port to FILE once listening\n"
      "  --drain-grace-ms hold /readyz at 503 for this long before the\n"
      "                   drain actually starts (default 0), so load\n"
      "                   balancers can stop routing first\n"
      "  --metrics-json   write the folded StageMetrics JSON here on exit\n"
      "                   (every exit path, including failures)\n"
      "  --trace          export a Chrome trace-event timeline on exit\n"
      "SIGTERM/SIGINT drain gracefully: in-flight requests are answered,\n"
      "metrics flushed, exit code 0.\n"
      "SIGHUP reloads the snapshot at --model and hot-swaps the engine\n"
      "without dropping traffic; a bad snapshot is rejected and the\n"
      "running engine keeps serving.\n");
  return 2;
}

/// Best-effort metrics dump shared by EVERY exit path — the clean drain,
/// poll failures, and drain errors alike. An operator debugging a crashed
/// daemon needs the counters most, so failure paths must not skip them.
void WriteMetricsJson(const std::string& path, const net::Server& server) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  out << server.MetricsSnapshot().ToJson() << "\n";
  if (!out.good()) {
    LogWarn("serve: cannot write metrics json: " + path);
  }
}

int Main(int argc, char** argv) {
  const Result<Args> parsed = Args::Parse(argc, argv);
  if (!parsed.ok()) return BadFlag(parsed.status());
  const Args& args = *parsed;
  const std::string model = args.Get("model");
  if (model.empty()) return Usage();

  // Every flag is checked before the model loads: a malformed number is a
  // usage error (exit 2), never a silent 0 or a wrapped port.
  net::ServeOptions options;
  options.model_path = model;
  std::uint16_t http_port = 0;
  double drain_grace_ms = 0.0;
  const Status flags = FirstError({
      args.GetUint("port", &options.port),
      args.GetUint("workers", &options.num_workers, kMaxThreads),
      args.GetUint("threads-per-worker", &options.threads_per_worker,
                   kMaxThreads),
      args.GetUint("queue", &options.queue_capacity),
      args.GetUint("max-conns", &options.max_connections),
      args.GetDouble("deadline-ms", &options.default_deadline_ms),
      args.GetUint("http-port", &http_port),
      args.GetDouble("drain-grace-ms", &drain_grace_ms),
  });
  if (!flags.ok()) return BadFlag(flags);

  ScopedTrace trace_session(TraceOptions::FromFlagOrEnv(args.Get("trace")));

  auto engine = Adarts::Load(model);
  if (!engine.ok()) return Fail(engine.status());

  Status installed = InstallShutdownHandler();
  if (!installed.ok()) return Fail(installed);
  installed = InstallReloadHandler();
  if (!installed.ok()) return Fail(installed);

  net::Server server(*engine, options);
  Status started = server.Start();
  if (!started.ok()) return Fail(started);

  const std::string metrics_path = args.Get("metrics-json");

  const std::string port_file = args.Get("port-file");
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << server.port() << "\n";
    if (!out.good()) {
      return Fail(Status::Internal("cannot write port file: " + port_file));
    }
  }
  std::printf("listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  // The telemetry sidecar: plain HTTP, loopback only, same folded snapshot
  // the kStats frame serves. `draining` is flipped by the SIGTERM path
  // BEFORE the actual drain starts so /readyz turns 503 while /metrics and
  // /healthz keep answering through the whole drain.
  std::atomic<bool> draining{false};
  net::HttpEndpoint http;
  const bool http_enabled = args.Has("http-port");
  if (http_enabled) {
    http.Handle("/metrics", [&server] {
      net::HttpReply reply;
      reply.content_type = "text/plain; version=0.0.4; charset=utf-8";
      reply.body = net::PrometheusText(server.Telemetry());
      return reply;
    });
    http.Handle("/healthz", [] {
      net::HttpReply reply;
      reply.body = "ok\n";
      return reply;
    });
    http.Handle("/readyz", [&server, &draining] {
      net::HttpReply reply;
      if (draining.load(std::memory_order_acquire) ||
          !server.Telemetry().ready) {
        reply.status = 503;
        reply.body = "draining\n";
      } else {
        reply.body = "ready\n";
      }
      return reply;
    });
    Status http_started = http.Start(http_port);
    if (!http_started.ok()) {
      WriteMetricsJson(metrics_path, server);
      return Fail(http_started);
    }
    const std::string http_port_file = args.Get("http-port-file");
    if (!http_port_file.empty()) {
      std::ofstream out(http_port_file, std::ios::trunc);
      out << http.port() << "\n";
      if (!out.good()) {
        WriteMetricsJson(metrics_path, server);
        return Fail(Status::Internal("cannot write http port file: " +
                                     http_port_file));
      }
    }
    std::printf("telemetry on 127.0.0.1:%u\n",
                static_cast<unsigned>(http.port()));
    std::fflush(stdout);
  }

  // Block until SIGTERM/SIGINT trips the process latch; each SIGHUP wake
  // in between runs an engine reload right here, on the main thread, while
  // the server keeps answering. The handlers themselves only store a flag /
  // bump a counter and write the shared self-pipe; everything below runs
  // in normal code.
  while (!ShutdownRequested()) {
    pollfd pfd;
    pfd.fd = ShutdownWakeFd();
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (::poll(&pfd, 1, -1) < 0 && errno != EINTR) {
      WriteMetricsJson(metrics_path, server);
      return Fail(Status::Internal("poll on shutdown pipe failed"));
    }
    if ((pfd.revents & POLLIN) != 0) {
      // Drain the pipe so repeated SIGHUPs cannot leave it permanently
      // readable and spin this loop; the atomic latch/counter, not the
      // pipe contents, carry the actual requests.
      char buf[16];
      while (::read(pfd.fd, buf, sizeof(buf)) > 0) {
      }
    }
    while (ConsumeReloadRequest()) {
      LogInfo("serve: SIGHUP received, reloading " + model);
      Status reloaded = server.RequestReload("");
      if (!reloaded.ok()) {
        LogWarn("serve: SIGHUP reload failed: " + reloaded.ToString());
      }
    }
  }
  // Not-ready first, drain second: a load balancer polling /readyz gets
  // the grace window to route traffic away before requests start meeting
  // a closed listener.
  draining.store(true, std::memory_order_release);
  if (http_enabled && drain_grace_ms > 0.0) {
    LogInfo("serve: shutdown requested, readyz now 503, grace " +
            std::to_string(drain_grace_ms) + " ms");
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(drain_grace_ms));
  }
  LogInfo("serve: shutdown requested, draining");
  server.RequestShutdown();
  Status drained = server.Wait();
  // The sidecar outlives the drain (operators can watch it complete) and
  // goes down only once the last frame reply is written.
  http.Shutdown();

  const StageMetrics metrics = server.MetricsSnapshot();
  const auto count = [&metrics](const char* name) {
    return std::to_string(metrics.Counter(name));
  };
  LogInfo("serve: drained (" + count("serve.requests") + " requests, " +
          count("serve.ok") + " ok, " + count("serve.shed") + " shed, " +
          count("serve.drained_in_flight") +
          " answered from the queue during drain, " +
          count("serve.reload.ok") + " reloads ok, " +
          count("serve.reload.failed") + " reloads rejected, " +
          count("serve.stats_scrapes") + " telemetry scrapes)");

  WriteMetricsJson(metrics_path, server);
  if (!drained.ok()) return Fail(drained);
  return 0;
}

}  // namespace
}  // namespace adarts::serve

int main(int argc, char** argv) { return adarts::serve::Main(argc, argv); }
