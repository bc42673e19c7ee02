// adarts_top — live terminal dashboard for a running adarts_serve
// (DESIGN.md §14).
//
//   adarts_top (--port N | --port-file FILE) [--interval-ms N]
//              [--iterations N] [--once] [--plain]
//
// Polls the daemon's kStats telemetry frame on one long-lived connection
// and renders a refreshing one-screen view: request rate and shed rate
// (computed from counter deltas between polls), windowed p50/p90/p99
// latency (the last-minute view, not lifetime averages), queue pressure,
// engine version, uptime, and the tail of the hot-swap log.
//
//   --interval-ms   poll period (default 1000)
//   --iterations    stop after N polls (default 0 = run until killed)
//   --once          poll once, print, exit (implies --plain); the
//                   scriptable mode CI uses
//   --plain         append screens instead of ANSI-redrawing in place
//
// Exit status: 0 on a clean run, 1 when the daemon cannot be reached or a
// scrape goes unanswered.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "common/json.h"
#include "common/status.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "tools/tool_args.h"

namespace adarts::top {
namespace {

using tools::Args;
using tools::BadFlag;
using tools::Fail;
using tools::FirstError;

constexpr char kUsage[] =
    "usage: adarts_top (--port N | --port-file FILE)\n"
    "                  [--interval-ms N] [--iterations N]\n"
    "                  [--once] [--plain]\n";

double Num(const json::JsonValue& v, const char* key) {
  return v.NumberOr(key, 0.0);
}

/// `object.member` drill-down that tolerates absence (renders as zeros
/// rather than crashing on an older daemon's snapshot).
const json::JsonValue* Member(const json::JsonValue& v, const char* key) {
  return v.Find(key);
}

/// One counter of the snapshot's folded registry (`metrics.counters`);
/// 0 when absent.
double Counter(const json::JsonValue& snap, const char* name) {
  const json::JsonValue* metrics = Member(snap, "metrics");
  const json::JsonValue* counters =
      metrics != nullptr ? Member(*metrics, "counters") : nullptr;
  return counters != nullptr ? Num(*counters, name) : 0.0;
}

std::string FormatMs(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", ns / 1e6);
  return buf;
}

struct PrevCounters {
  bool valid = false;
  double requests = 0.0;
  double shed = 0.0;
  std::chrono::steady_clock::time_point at;
};

void Render(const json::JsonValue& snap, PrevCounters* prev, bool plain) {
  const auto now = std::chrono::steady_clock::now();
  const double requests = Counter(snap, "serve.requests");
  const double shed = Counter(snap, "serve.shed");

  double qps = 0.0;
  double shed_ps = 0.0;
  if (prev->valid) {
    const double dt =
        std::chrono::duration<double>(now - prev->at).count();
    if (dt > 0.0) {
      qps = (requests - prev->requests) / dt;
      shed_ps = (shed - prev->shed) / dt;
    }
  }
  prev->valid = true;
  prev->requests = requests;
  prev->shed = shed;
  prev->at = now;

  if (!plain) {
    std::printf("\x1b[2J\x1b[H");  // clear screen, cursor home
  }
  const json::JsonValue* ready = snap.Find("ready");
  std::printf("adarts_top — engine v%.0f, up %.0f s, %s\n",
              Num(snap, "engine_version"), Num(snap, "uptime_seconds"),
              (ready != nullptr && ready->boolean) ? "ready"
                                                   : "NOT READY (draining)");
  std::printf("queue %.0f/%.0f\n", Num(snap, "queue_depth"),
              Num(snap, "queue_capacity"));
  std::printf("rate  %8.1f req/s   shed %8.1f req/s\n", qps, shed_ps);
  std::printf(
      "total %8.0f req     ok %8.0f   shed %6.0f   err %6.0f   "
      "scrapes %.0f\n",
      requests, Counter(snap, "serve.ok"), shed, Counter(snap, "serve.errors"),
      Counter(snap, "serve.stats_scrapes"));
  const json::JsonValue* window = Member(snap, "window_latency");
  if (window != nullptr) {
    const json::JsonValue* hist = Member(*window, "histogram");
    if (hist != nullptr) {
      std::printf(
          "last %.0fs latency   p50 %s ms   p90 %s ms   p99 %s ms   "
          "(%.0f samples)\n",
          Num(*window, "covered_seconds"),
          FormatMs(Num(*hist, "p50_ns")).c_str(),
          FormatMs(Num(*hist, "p90_ns")).c_str(),
          FormatMs(Num(*hist, "p99_ns")).c_str(), Num(*hist, "count"));
    }
  }
  std::printf("swaps %.0f\n", Counter(snap, "serve.reload.ok"));
  const json::JsonValue* tail = Member(snap, "swap_tail");
  if (tail != nullptr && tail->is_array()) {
    for (const json::JsonValue& record : tail->array) {
      const json::JsonValue* success = record.Find("success");
      const json::JsonValue* path = record.Find("path");
      const json::JsonValue* detail = record.Find("detail");
      std::printf("  v%.0f %-8s %s%s%s\n", Num(record, "engine_version"),
                  (success != nullptr && success->boolean) ? "LIVE"
                                                           : "rejected",
                  path != nullptr ? path->str.c_str() : "",
                  (detail != nullptr && !detail->str.empty()) ? " — " : "",
                  detail != nullptr ? detail->str.c_str() : "");
    }
  }
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  const Result<Args> parsed = Args::Parse(argc, argv, 1, {"once", "plain"});
  if (!parsed.ok()) return BadFlag(parsed.status());
  const Args& args = *parsed;
  const Result<std::uint16_t> port = tools::DaemonPort(args);
  double interval_ms = 1000.0;
  std::uint64_t iterations = 0;
  const Status flags = FirstError({
      port.status(),
      args.GetDouble("interval-ms", &interval_ms),
      args.GetUint("iterations", &iterations),
  });
  if (!flags.ok()) {
    std::fputs(kUsage, stderr);
    return BadFlag(flags);
  }
  const bool once = args.Has("once");
  const bool plain = once || args.Has("plain");
  if (once) iterations = 1;

  // A SIGPIPE from a daemon that exits mid-poll must not kill the
  // dashboard; the write error is handled below.
  std::signal(SIGPIPE, SIG_IGN);

  auto sock = net::ConnectTcp("127.0.0.1", *port);
  if (!sock.ok()) return Fail(sock.status());
  Status timeout_set = sock->SetReceiveTimeout(10.0);
  if (!timeout_set.ok()) return Fail(timeout_set);

  PrevCounters prev;
  for (std::uint64_t i = 0; iterations == 0 || i < iterations; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(interval_ms));
    }
    net::Request request;
    request.type = net::MessageType::kStats;
    request.id = i;
    auto response = net::Call(*sock, request);
    if (!response.ok()) return Fail(response.status());
    if (!response->ok()) {
      return Fail(Status(response->code, response->message));
    }
    auto snap = json::ParseJson(response->text);
    if (!snap.ok()) return Fail(snap.status());
    Render(*snap, &prev, plain);
  }
  return 0;
}

}  // namespace
}  // namespace adarts::top

int main(int argc, char** argv) { return adarts::top::Main(argc, argv); }
