// Tests of the live telemetry plane (DESIGN.md §14): sliding-window
// histogram rotation and percentiles, live Metrics folds under concurrent
// recorders (counts must never regress between successive scrapes), the
// kStats frame end-to-end against a live server, and the hardened HTTP
// sidecar. Suite names deliberately contain Histogram / Metrics / Serve /
// Net so CI's tsan-parallel job picks them up.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adarts/adarts.h"
#include "common/histogram.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/sliding_histogram.h"
#include "net/http_endpoint.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "tests/serve_util.h"

namespace adarts {
namespace {

// --- sliding window ------------------------------------------------------

constexpr std::uint64_t kSecond = 1'000'000'000ull;

TEST(SlidingHistogramTest, EmptySnapshot) {
  SlidingHistogram window(4, kSecond);
  const WindowedSnapshot snap = window.SnapshotAt(10 * kSecond);
  EXPECT_EQ(snap.histogram.count, 0u);
  EXPECT_DOUBLE_EQ(snap.window_seconds, 4.0);
  // Nothing was ever recorded: zero honest coverage, not "a full window".
  EXPECT_DOUBLE_EQ(snap.covered_seconds, 0.0);
}

TEST(SlidingHistogramTest, RecordsAndReportsPercentiles) {
  SlidingHistogram window(4, kSecond);
  for (std::uint64_t v = 1; v <= 100; ++v) {
    window.RecordAt(v * 1000, 0);
  }
  const WindowedSnapshot snap = window.SnapshotAt(0);
  EXPECT_EQ(snap.histogram.count, 100u);
  EXPECT_GT(snap.histogram.p50_ns, 0u);
  EXPECT_GE(snap.histogram.p99_ns, snap.histogram.p50_ns);
  // Percentiles are bucket upper bounds, so p99 may slightly exceed the
  // exact max; it can never undercut the true p99 value.
  EXPECT_GE(snap.histogram.p99_ns, 99'000u);
  EXPECT_EQ(snap.histogram.max_ns, 100'000u);
}

TEST(SlidingHistogramTest, SamplesExpireAfterTheWindow) {
  SlidingHistogram window(4, kSecond);
  window.RecordAt(5000, 0);
  EXPECT_EQ(window.SnapshotAt(0).histogram.count, 1u);
  // Still inside the 4-bucket window at t=3s...
  EXPECT_EQ(window.SnapshotAt(3 * kSecond).histogram.count, 1u);
  // ...gone at t=4s, even with no recordings in between (the snapshot
  // itself rotates idle buckets out).
  EXPECT_EQ(window.SnapshotAt(4 * kSecond).histogram.count, 0u);
}

TEST(SlidingHistogramTest, OldAndNewCoexistInsideTheWindow) {
  SlidingHistogram window(4, kSecond);
  window.RecordAt(1000, 0);
  window.RecordAt(2000, 2 * kSecond);
  const WindowedSnapshot at3 = window.SnapshotAt(3 * kSecond);
  EXPECT_EQ(at3.histogram.count, 2u);
  // t=5s: the t=0 sample expired, the t=2s one survives.
  const WindowedSnapshot at5 = window.SnapshotAt(5 * kSecond);
  EXPECT_EQ(at5.histogram.count, 1u);
}

TEST(SlidingHistogramTest, CoverageIsHonestRightAfterStartup) {
  SlidingHistogram window(12, 5 * kSecond);  // the serving default: 60 s
  window.RecordAt(1000, 10 * kSecond);
  const WindowedSnapshot snap = window.SnapshotAt(20 * kSecond);
  EXPECT_DOUBLE_EQ(snap.window_seconds, 60.0);
  // First sample landed at t=10s into slice 2 (covering 10..15 s), so by
  // t=20s the window has genuinely observed ~10 s, not 60.
  EXPECT_LE(snap.covered_seconds, 10.0 + 1e-9);
  EXPECT_GT(snap.covered_seconds, 0.0);
}

TEST(SlidingHistogramTest, RingSlotsAreReusedAcrossManyRotations) {
  SlidingHistogram window(4, kSecond);
  for (std::uint64_t t = 0; t < 100; ++t) {
    window.RecordAt(1000, t * kSecond);
  }
  // Only the last 4 slices can survive 100 rotations through 4 slots.
  const WindowedSnapshot snap = window.SnapshotAt(99 * kSecond);
  EXPECT_EQ(snap.histogram.count, 4u);
}

TEST(SlidingHistogramThreadedTest, ConcurrentRecordersAndScrapes) {
  // TSan-targeted: recorders and scrapers race freely; the contract is "no
  // data race, snapshot never exceeds what was recorded", not bit-exact
  // counts (a racing rotation may drop an edge sample by design).
  SlidingHistogram window(8, kSecond / 100);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20'000;
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const WindowedSnapshot snap = window.Snapshot();
      EXPECT_LE(snap.histogram.count, kThreads * kPerThread);
    }
  });
  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&window] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        window.Record(1000 + i);
      }
    });
  }
  for (std::thread& t : recorders) t.join();
  stop.store(true, std::memory_order_release);
  scraper.join();
}

TEST(HistogramResetTest, ResetClearsAndAllowsReuse) {
  LatencyHistogram histogram;
  histogram.Record(1000);
  histogram.Record(2000);
  ASSERT_EQ(histogram.Snapshot().count, 2u);
  histogram.Reset();
  const HistogramSnapshot cleared = histogram.Snapshot();
  EXPECT_EQ(cleared.count, 0u);
  EXPECT_EQ(cleared.sum_ns, 0u);
  EXPECT_EQ(cleared.max_ns, 0u);
  histogram.Record(500);
  EXPECT_EQ(histogram.Snapshot().count, 1u);
  EXPECT_EQ(histogram.Snapshot().max_ns, 500u);
}

// --- live Metrics folds --------------------------------------------------

TEST(MetricsLiveFoldTest, ScrapesNeverRegressWhileRecordersRun) {
  Metrics source;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> recorders;
  std::atomic<int> running{kThreads};
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&source, &running] {
      MetricCounter* counter = source.counter("fold.counter");
      LatencyHistogram* histogram = source.histogram("fold.latency");
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter->Increment();
        histogram->Record(100 + i % 1000);
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  // Live scrapes against the registry the recorders are writing: each fold
  // must observe a monotone prefix — a later scrape can never report fewer
  // events than an earlier one.
  std::uint64_t last_counter = 0;
  std::uint64_t last_hist_count = 0;
  while (running.load(std::memory_order_acquire) > 0) {
    Metrics folded;
    source.MergeInto(&folded);
    const StageMetrics snap = folded.Snapshot();
    const std::uint64_t counter = snap.Counter("fold.counter");
    const std::uint64_t hist_count = snap.Histogram("fold.latency").count;
    EXPECT_GE(counter, last_counter);
    EXPECT_GE(hist_count, last_hist_count);
    last_counter = counter;
    last_hist_count = hist_count;
  }
  for (std::thread& t : recorders) t.join();
  Metrics folded;
  source.MergeInto(&folded);
  const StageMetrics final_snap = folded.Snapshot();
  EXPECT_EQ(final_snap.Counter("fold.counter"), kThreads * kPerThread);
  EXPECT_EQ(final_snap.Histogram("fold.latency").count,
            kThreads * kPerThread);
}

// --- kStats end-to-end ---------------------------------------------------

using testing::Call;
using testing::Engine;
using testing::MakeFaulty;

TEST(ServeTelemetryFrameTest, AnswersLiveJsonSnapshot) {
  net::Server server(Engine(), {});
  ASSERT_TRUE(server.Start().ok());

  // Drive a little traffic first so the snapshot has something to show.
  for (std::uint64_t i = 0; i < 3; ++i) {
    net::Request request;
    request.type = net::MessageType::kRecommend;
    request.id = i;
    request.series.push_back(MakeFaulty(i + 1));
    auto response = Call(server.port(), request);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response->ok()) << response->message;
  }

  net::Request scrape;
  scrape.type = net::MessageType::kStats;
  scrape.id = 77;
  auto response = Call(server.port(), scrape);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->ok()) << response->message;
  EXPECT_EQ(response->type, net::MessageType::kStats);
  EXPECT_EQ(response->id, 77u);
  ASSERT_FALSE(response->text.empty());

  auto parsed = json::ParseJson(response->text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_TRUE(parsed->is_object());
  EXPECT_EQ(parsed->NumberOr("engine_version", -1.0),
            static_cast<double>(Engine().engine_version()));
  EXPECT_GE(parsed->NumberOr("uptime_seconds", -1.0), 0.0);
  const json::JsonValue* ready = parsed->Find("ready");
  ASSERT_NE(ready, nullptr);
  EXPECT_TRUE(ready->boolean);
  // The folded registry and the windowed view both carry the traffic.
  const json::JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const json::JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->NumberOr("serve.ok", 0.0), 3.0);
  EXPECT_GE(counters->NumberOr("serve.stats_scrapes", 0.0), 1.0);
  const json::JsonValue* window = parsed->Find("window_latency");
  ASSERT_NE(window, nullptr);
  const json::JsonValue* histogram = window->Find("histogram");
  ASSERT_NE(histogram, nullptr);
  // The worker records window latency AFTER sending the reply (the sample
  // includes the send), so a scrape fired the instant the last reply lands
  // can legitimately see N-1 of N samples — assert presence, not the
  // exact count.
  EXPECT_GE(histogram->NumberOr("count", 0.0), 1.0);
  EXPECT_GT(histogram->NumberOr("p99_ns", 0.0), 0.0);

  server.RequestShutdown();
  EXPECT_TRUE(server.Wait().ok());
}

TEST(ServeTelemetryFrameTest, SuccessiveScrapesNeverRegress) {
  net::Server server(Engine(), {});
  ASSERT_TRUE(server.Start().ok());
  auto connected = net::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status();
  net::Socket sock = std::move(connected).value();
  double last_received = 0.0;
  for (std::uint64_t i = 0; i < 5; ++i) {
    net::Request ping;
    ping.type = net::MessageType::kPing;
    ping.id = 1000 + i;
    auto pong = net::Call(sock, ping);
    ASSERT_TRUE(pong.ok()) << pong.status();

    net::Request scrape;
    scrape.type = net::MessageType::kStats;
    scrape.id = i;
    auto response = net::Call(sock, scrape);
    ASSERT_TRUE(response.ok()) << response.status();
    auto parsed = json::ParseJson(response->text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const json::JsonValue* metrics = parsed->Find("metrics");
    ASSERT_NE(metrics, nullptr);
    const json::JsonValue* counters = metrics->Find("counters");
    ASSERT_NE(counters, nullptr);
    const double received = counters->NumberOr("serve.requests", -1.0);
    EXPECT_GE(received, last_received);
    last_received = received;
  }
  sock.Close();
  server.RequestShutdown();
  EXPECT_TRUE(server.Wait().ok());
}

// --- HTTP sidecar --------------------------------------------------------

/// One raw HTTP exchange: connect, write `wire` verbatim, read to EOF.
std::string RawHttp(std::uint16_t port, const std::string& wire) {
  auto sock = net::ConnectTcp("127.0.0.1", port);
  EXPECT_TRUE(sock.ok()) << sock.status();
  if (!sock.ok()) return "";
  EXPECT_TRUE(sock->WriteAll(wire.data(), wire.size()).ok());
  std::string reply;
  char buf[4096];
  for (;;) {
    auto got = sock->ReadSome(buf, sizeof(buf));
    if (!got.ok() || *got == 0) break;
    reply.append(buf, *got);
  }
  return reply;
}

TEST(NetHttpEndpointTest, ServesRegisteredPath) {
  net::HttpEndpoint http;
  http.Handle("/healthz", [] {
    net::HttpReply reply;
    reply.body = "ok\n";
    return reply;
  });
  ASSERT_TRUE(http.Start(0).ok());
  const std::string reply =
      RawHttp(http.port(), "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos) << reply;
  EXPECT_NE(reply.find("Connection: close"), std::string::npos);
  EXPECT_NE(reply.find("\r\n\r\nok\n"), std::string::npos);
  http.Shutdown();
}

TEST(NetHttpEndpointTest, UnknownPathIs404) {
  net::HttpEndpoint http;
  http.Handle("/metrics", [] { return net::HttpReply{}; });
  ASSERT_TRUE(http.Start(0).ok());
  const std::string reply =
      RawHttp(http.port(), "GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 404"), std::string::npos) << reply;
  http.Shutdown();
}

TEST(NetHttpEndpointTest, NonGetIs405) {
  net::HttpEndpoint http;
  http.Handle("/metrics", [] { return net::HttpReply{}; });
  ASSERT_TRUE(http.Start(0).ok());
  const std::string reply =
      RawHttp(http.port(), "POST /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 405"), std::string::npos) << reply;
  http.Shutdown();
}

TEST(NetHttpEndpointTest, MalformedRequestLineIs400) {
  net::HttpEndpoint http;
  http.Handle("/metrics", [] { return net::HttpReply{}; });
  ASSERT_TRUE(http.Start(0).ok());
  const std::string reply = RawHttp(http.port(), "garbage\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 400"), std::string::npos) << reply;
  http.Shutdown();
}

TEST(NetHttpEndpointTest, OversizedRequestIs400NotUnboundedBuffering) {
  net::HttpEndpoint http;
  http.Handle("/metrics", [] { return net::HttpReply{}; });
  ASSERT_TRUE(http.Start(0).ok());
  // 10 KB of request-line with no terminator: must die at the 8 KiB header
  // cap with a 400, never buffer unboundedly.
  const std::string hostile = "GET /" + std::string(10000, 'a');
  const std::string reply = RawHttp(http.port(), hostile);
  EXPECT_NE(reply.find("HTTP/1.1 400"), std::string::npos) << reply;
  http.Shutdown();
}

TEST(NetHttpEndpointTest, QueryStringIsIgnoredForRouting) {
  net::HttpEndpoint http;
  http.Handle("/metrics", [] {
    net::HttpReply reply;
    reply.body = "m\n";
    return reply;
  });
  ASSERT_TRUE(http.Start(0).ok());
  const std::string reply =
      RawHttp(http.port(), "GET /metrics?debug=1 HTTP/1.0\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 200"), std::string::npos) << reply;
  http.Shutdown();
}

TEST(ServePrometheusTextTest, RendersValidExposition) {
  net::ServeTelemetry telemetry;
  telemetry.engine_version = 3;
  telemetry.uptime_seconds = 12.5;
  telemetry.queue_depth = 2;
  telemetry.queue_capacity = 64;
  telemetry.ready = true;
  telemetry.metrics.counters["serve.requests"] = 100;
  telemetry.metrics.counters["serve.reload.ok"] = 2;
  telemetry.metrics.spans_seconds["train.total_seconds"] = 1.25;
  HistogramSnapshot hist;
  hist.count = 90;
  hist.sum_ns = 90'000'000;
  hist.p50_ns = 1'000'000;
  hist.p90_ns = 2'000'000;
  hist.p99_ns = 3'000'000;
  telemetry.metrics.histograms["serve.queue_wait"] = hist;
  telemetry.window_latency.window_seconds = 60.0;
  telemetry.window_latency.covered_seconds = 12.5;
  telemetry.window_latency.histogram = hist;

  const std::string text = net::PrometheusText(telemetry);
  EXPECT_NE(text.find("adarts_engine_version 3\n"), std::string::npos);
  EXPECT_NE(text.find("adarts_ready 1\n"), std::string::npos);
  // Dotted registry names are sanitized into the Prometheus charset.
  EXPECT_NE(text.find("adarts_serve_requests_total 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("adarts_serve_reload_ok_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("adarts_serve_queue_wait_seconds{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("adarts_serve_window_latency_seconds"),
            std::string::npos);
  // Every non-comment line is `name{labels} value` or `name value`; a quick
  // structural pass over the exposition text.
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);  // text must end with a newline
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
    EXPECT_EQ(line.find('\t'), std::string::npos) << line;
  }
}

// --- one registry, each serve count once ---------------------------------

/// Every counter the server registers at construction.
constexpr const char* kServeCounters[] = {
    "serve.conn_accepted",     "serve.conn_refused",  "serve.requests",
    "serve.ok",                "serve.errors",        "serve.shed",
    "serve.deadline_exceeded", "serve.responses_sent",
    "serve.write_errors",      "serve.bad_frames",    "serve.drained_in_flight",
    "serve.reload.ok",         "serve.reload.failed", "serve.stats_scrapes"};

/// The exposition name of registry counter `name`: `adarts_`, the name
/// with '.' replaced by '_', then `_total`.
std::string ExpositionName(std::string name) {
  std::replace(name.begin(), name.end(), '.', '_');
  return "adarts_" + name + "_total";
}

/// The sample lines of an exposition, keyed by `name{labels}`; a family
/// rendered twice would collapse here, so callers also count TYPE lines.
std::map<std::string, std::string> Samples(const std::string& text) {
  std::map<std::string, std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    out[line.substr(0, space)] = line.substr(space + 1);
  }
  return out;
}

TEST(ServeTelemetryTest, FirstScrapesListEveryServeCounterAtZero) {
  net::Server server(Engine(), {});
  ASSERT_TRUE(server.Start().ok());
  net::HttpEndpoint http;
  http.Handle("/metrics", [&server] {
    net::HttpReply reply;
    reply.body = net::PrometheusText(server.Telemetry());
    return reply;
  });
  ASSERT_TRUE(http.Start(0).ok());

  // An HTTP scrape is no serve event: the first one reads every counter 0.
  const std::string reply =
      RawHttp(http.port(), "GET /metrics HTTP/1.1\r\n\r\n");
  const std::size_t body = reply.find("\r\n\r\n");
  ASSERT_NE(body, std::string::npos) << reply;
  const std::map<std::string, std::string> samples =
      Samples(reply.substr(body + 4));
  for (const char* name : kServeCounters) {
    const auto it = samples.find(ExpositionName(name));
    ASSERT_NE(it, samples.end()) << name;
    EXPECT_EQ(it->second, "0") << name;
  }

  // The first kStats frame counts itself — its connection, its frame and
  // the scrape — before rendering; every other counter is listed at 0.
  net::Request scrape;
  scrape.type = net::MessageType::kStats;
  scrape.id = 1;
  auto response = Call(server.port(), scrape);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->ok()) << response->message;
  auto parsed = json::ParseJson(response->text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  // The registry is the document's only counter block.
  std::set<std::string> keys;
  for (const auto& [key, value] : parsed->object) keys.insert(key);
  EXPECT_EQ(keys, (std::set<std::string>{
                      "draining", "engine_version", "metrics", "queue_capacity",
                      "queue_depth", "ready", "swap_tail", "uptime_seconds",
                      "window_latency", "window_queue_wait"}));
  const json::JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const json::JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  const std::set<std::string> self = {"serve.conn_accepted", "serve.requests",
                                      "serve.stats_scrapes"};
  for (const char* name : kServeCounters) {
    const json::JsonValue* value = counters->Find(name);
    ASSERT_NE(value, nullptr) << name;
    ASSERT_TRUE(value->is_number()) << name;
    EXPECT_EQ(value->number, self.count(name) == 1 ? 1.0 : 0.0) << name;
  }

  http.Shutdown();
  server.RequestShutdown();
  EXPECT_TRUE(server.Wait().ok());
}

TEST(ServeTelemetryTest, ExpositionCountsEachServeEventOnce) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            "adarts_telemetry_reload.model")
                               .string();
  ASSERT_TRUE(Engine().Save(path).ok());
  net::Server server(Engine(), {});
  ASSERT_TRUE(server.Start().ok());
  constexpr std::uint64_t kRecommends = 5;
  for (std::uint64_t i = 0; i < kRecommends; ++i) {
    net::Request request;
    request.type = net::MessageType::kRecommend;
    request.id = i;
    request.series.push_back(MakeFaulty(i + 1));
    auto response = Call(server.port(), request);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response->ok()) << response->message;
  }
  // The SIGHUP path: an out-of-band reload, which reads no frame and
  // returns once the engine is swapped.
  const Status reloaded = server.RequestReload(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded;

  const std::string text = net::PrometheusText(server.Telemetry());
  const std::map<std::string, std::string> samples = Samples(text);
  EXPECT_EQ(samples.at("adarts_serve_requests_total"),
            std::to_string(kRecommends));
  EXPECT_EQ(samples.at("adarts_serve_ok_total"), std::to_string(kRecommends));
  EXPECT_EQ(samples.at("adarts_serve_reload_ok_total"), "1");
  // The names of the removed second and third copies.
  for (const char* removed :
       {"adarts_swaps_total", "adarts_serve_reloads_ok_total",
        "adarts_serve_reloads_failed_total",
        "adarts_serve_requests_received_total",
        "adarts_serve_requests_ok_total", "adarts_serve_requests_error_total",
        "adarts_serve_requests_shed_total",
        "adarts_serve_requests_deadline_exceeded_total",
        "adarts_serve_connections_accepted_total",
        "adarts_serve_connections_refused_total"}) {
    EXPECT_EQ(text.find(removed), std::string::npos) << removed;
  }
  // Each metric family is rendered exactly once.
  std::map<std::string, int> families;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) ++families[line];
  }
  for (const auto& [family, count] : families) {
    EXPECT_EQ(count, 1) << family;
  }

  server.RequestShutdown();
  EXPECT_TRUE(server.Wait().ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace adarts
