// serve_loadgen — open-loop load generator for adarts_serve.
//
//   serve_loadgen (--port N | --port-file FILE) [--qps F] [--requests N]
//                 [--connections N] [--type ping|recommend|batch|repair]
//                 [--batch-size N] [--length N] [--missing F] [--seed N]
//                 [--deadline-ms F] [--timeout-s F] [--retries N]
//                 [--retry-base-ms F] [--scrape N] [--json FILE]
//
// Open loop: every request has a scheduled send time on a fixed-QPS grid
// (request i fires at start + i/qps), independent of when responses come
// back — so a slow server accumulates queueing delay instead of silently
// throttling the generator, which is the point of measuring an admission
// queue. Requests round-robin over N connections; each connection runs an
// independent writer (paced sends + due retries) and reader (response
// matching by echoed id) thread.
//
// A shed (kUnavailable) reply is not terminal: the request is retried up
// to --retries more times with jittered exponential backoff
// (retry-base-ms * 2^attempt, jittered ±50%), the way a well-behaved
// client treats explicit admission-control pushback. Only a shed that
// survives every attempt counts in the `shed` total.
//
// Emits one JSON line per run (the BENCH_serve.json record), readable by
// tools/bench_compare: `metrics` carries the direction-aware counters
// (shed/errors/lost/retries lower-better, throughput_rps higher-better)
// and `stages.histograms["serve.latency"]` the p50/p90/p99 perf surface
// for --check-perf. The flat legacy fields stay for scripts.
//
// --scrape N interleaves N kStats telemetry scrapes spaced evenly through
// the burst on a dedicated connection (DESIGN.md §14) — proof the daemon
// stays observable under the very load being generated. The last snapshot
// is embedded verbatim in the --json record under "scrape" (NOT in the
// bench_compare `metrics` map, so baseline gating is unaffected); a scrape
// that goes unanswered fails the run.
//
// Exit status: 0 when every request was answered (ok, terminally-shed and
// error responses all count as answered — shedding is correct behaviour
// under overload); nonzero when replies were lost or a connection failed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "tools/tool_args.h"
#include "ts/time_series.h"

namespace adarts::loadgen {
namespace {

using Clock = std::chrono::steady_clock;

using tools::Args;
using tools::BadFlag;
using tools::Fail;
using tools::FirstError;

/// Cap on --connections: each connection runs a writer and a reader thread.
constexpr std::size_t kMaxConnections = 1024;

int Usage() {
  std::fprintf(
      stderr,
      "usage: serve_loadgen (--port N | --port-file FILE) [--qps F]\n"
      "                     [--requests N] [--connections N]\n"
      "                     [--type ping|recommend|batch|repair]\n"
      "                     [--batch-size N] [--length N] [--missing F]\n"
      "                     [--seed N] [--deadline-ms F] [--timeout-s F]\n"
      "                     [--retries N] [--retry-base-ms F]\n"
      "                     [--scrape N] [--json FILE]\n");
  return 2;
}

/// One synthetic faulty series: a deterministic seasonal signal with a
/// missing block plus scattered missing points (endpoints kept observed).
ts::TimeSeries MakeFaultySeries(std::size_t length, double missing_fraction,
                                Rng* rng) {
  la::Vector values(length);
  std::vector<bool> missing(length, false);
  const double phase = rng->Uniform(0.0, 6.28318530717958648);
  for (std::size_t i = 0; i < length; ++i) {
    values[i] = std::sin(phase + 0.31 * static_cast<double>(i)) +
                0.1 * rng->Normal();
  }
  for (std::size_t i = 1; i + 1 < length; ++i) {
    if (rng->Bernoulli(missing_fraction)) {
      missing[i] = true;
      values[i] = 0.0;
    }
  }
  missing[length / 2] = true;  // at least one missing position
  values[length / 2] = 0.0;
  return ts::TimeSeries(std::move(values), std::move(missing));
}

struct Totals {
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> retries{0};
};

/// One request awaiting a backed-off re-send.
struct RetryItem {
  std::uint64_t due_ns = 0;
  std::uint64_t id = 0;
};

/// Writer/reader rendezvous for one connection: the reader schedules
/// retries here and flips `done` when every id assigned to the connection
/// reached a terminal outcome; the writer interleaves due retries with its
/// paced initial sends.
struct ConnChannel {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<RetryItem> retries;
  std::size_t terminal = 0;
  std::size_t share = 0;
  bool done = false;
};

int Main(int argc, char** argv) {
  const Result<Args> parsed = Args::Parse(argc, argv);
  if (!parsed.ok()) return BadFlag(parsed.status());
  const Args& args = *parsed;

  const Result<std::uint16_t> port = tools::DaemonPort(args);
  double qps = 200.0;
  std::size_t requests = 200;
  std::size_t connections = 4;
  std::size_t batch_size = 4;
  std::size_t length = 64;
  double missing = 0.2;
  std::uint64_t seed = 1;
  double deadline_ms = 0.0;
  double timeout_s = 15.0;
  // Bounded extra attempts after a shed; 0 restores shed-is-terminal.
  std::uint64_t max_retries = 3;
  double retry_base_ms = 2.0;
  std::size_t scrapes = 0;
  const Status flags = FirstError({
      port.status(),
      args.GetDouble("qps", &qps),
      args.GetUint("requests", &requests),
      args.GetUint("connections", &connections, kMaxConnections),
      args.GetUint("batch-size", &batch_size),
      args.GetUint("length", &length),
      args.GetDouble("missing", &missing),
      args.GetUint("seed", &seed),
      args.GetDouble("deadline-ms", &deadline_ms),
      args.GetDouble("timeout-s", &timeout_s),
      args.GetUint("retries", &max_retries),
      args.GetDouble("retry-base-ms", &retry_base_ms),
      args.GetUint("scrape", &scrapes),
  });
  if (!flags.ok()) {
    Usage();
    return BadFlag(flags);
  }
  connections = std::max<std::size_t>(1, connections);
  batch_size = std::max<std::size_t>(1, batch_size);
  const std::string type_name = args.Get("type", "recommend");

  net::MessageType type;
  if (type_name == "ping") {
    type = net::MessageType::kPing;
  } else if (type_name == "recommend") {
    type = net::MessageType::kRecommend;
  } else if (type_name == "batch") {
    type = net::MessageType::kRecommendBatch;
  } else if (type_name == "repair") {
    type = net::MessageType::kRepair;
  } else {
    return Usage();
  }
  if (requests == 0 || qps <= 0.0) return Usage();

  // A small rotation of requests over 8 series; each send copies one and
  // sets its own id.
  Rng rng(seed);
  std::vector<ts::TimeSeries> series_pool;
  for (std::size_t i = 0; i < 8; ++i) {
    series_pool.push_back(MakeFaultySeries(length, missing, &rng));
  }
  std::vector<net::Request> rotation;
  for (std::size_t i = 0; i < series_pool.size(); ++i) {
    net::Request request;
    request.type = type;
    request.deadline_ms = deadline_ms;
    if (type == net::MessageType::kRecommendBatch) {
      for (std::size_t b = 0; b < batch_size; ++b) {
        request.series.push_back(series_pool[(i + b) % series_pool.size()]);
      }
    } else if (type != net::MessageType::kPing) {
      request.series.push_back(series_pool[i]);
    }
    rotation.push_back(std::move(request));
  }

  std::vector<net::Socket> socks(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    auto sock = net::ConnectTcp("127.0.0.1", *port);
    if (!sock.ok()) return Fail(sock.status());
    socks[c] = std::move(sock).value();
    Status timeout_set = socks[c].SetReceiveTimeout(timeout_s);
    if (!timeout_set.ok()) return Fail(timeout_set);
  }

  // send_ns[id] is written by the sender before the frame hits the wire and
  // read by the receiver after the echoed id comes back on the same
  // connection, so each slot has one writer and a happens-after reader.
  std::vector<std::atomic<std::uint64_t>> send_ns(requests);
  std::vector<std::atomic<std::uint64_t>> latency_ns(requests);
  std::vector<std::atomic<std::uint64_t>> retries_used(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    send_ns[i].store(0, std::memory_order_relaxed);
    latency_ns[i].store(0, std::memory_order_relaxed);
    retries_used[i].store(0, std::memory_order_relaxed);
  }
  Totals totals;
  std::atomic<bool> failed{false};

  std::vector<std::unique_ptr<ConnChannel>> channels;
  for (std::size_t c = 0; c < connections; ++c) {
    auto chan = std::make_unique<ConnChannel>();
    chan->share = requests / connections + (c < requests % connections ? 1 : 0);
    channels.push_back(std::move(chan));
  }

  const Clock::time_point start = Clock::now();
  const auto NowNs = [&start]() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  };

  // Mid-burst telemetry scrapes on a dedicated connection: the scraper's
  // ids live in their own space and its frames never touch the load
  // connections, so reply matching is unaffected. Only this thread writes
  // last_scrape_json; main reads it after the join.
  std::atomic<std::uint64_t> scrapes_ok{0};
  std::string last_scrape_json;
  std::thread scraper;
  if (scrapes > 0) {
    scraper = std::thread([&] {
      auto sock = net::ConnectTcp("127.0.0.1", *port);
      if (!sock.ok()) return;
      if (!sock->SetReceiveTimeout(timeout_s).ok()) return;
      const double run_s = static_cast<double>(requests) / qps;
      for (std::size_t i = 0; i < scrapes; ++i) {
        // Evenly inside the burst, never at its very edges.
        const double at_s = run_s * static_cast<double>(i + 1) /
                            static_cast<double>(scrapes + 1);
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(at_s)));
        net::Request request;
        request.type = net::MessageType::kStats;
        request.id = 1'000'000'000ull + i;
        auto response = net::Call(*sock, request);
        if (!response.ok() || !response->ok() || response->text.empty()) {
          return;
        }
        scrapes_ok.fetch_add(1, std::memory_order_relaxed);
        last_scrape_json = response->text;
      }
    });
  }

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    // Writer: open-loop paced initial sends, interleaved with due retries
    // the reader scheduled. Runs until every id on this connection reached
    // a terminal outcome (chan.done).
    threads.emplace_back([&, c] {
      ConnChannel& chan = *channels[c];
      std::size_t next = c;  // next unsent initial id on this connection
      for (;;) {
        std::uint64_t id = 0;
        std::uint64_t due_ns = 0;
        {
          std::unique_lock<std::mutex> lock(chan.mu);
          for (;;) {
            if (chan.done) return;
            std::size_t best = chan.retries.size();
            for (std::size_t r = 0; r < chan.retries.size(); ++r) {
              if (best == chan.retries.size() ||
                  chan.retries[r].due_ns < chan.retries[best].due_ns) {
                best = r;
              }
            }
            const std::uint64_t initial_due_ns =
                next < requests
                    ? static_cast<std::uint64_t>(
                          static_cast<double>(next) / qps * 1e9)
                    : UINT64_MAX;
            const std::uint64_t retry_due_ns = best < chan.retries.size()
                                                   ? chan.retries[best].due_ns
                                                   : UINT64_MAX;
            if (initial_due_ns == UINT64_MAX && retry_due_ns == UINT64_MAX) {
              // All sent; sleep until the reader schedules a retry or
              // declares the connection done.
              chan.cv.wait(lock);
              continue;
            }
            if (retry_due_ns <= initial_due_ns) {
              id = chan.retries[best].id;
              due_ns = retry_due_ns;
              chan.retries.erase(chan.retries.begin() +
                                 static_cast<std::ptrdiff_t>(best));
            } else {
              id = next;
              due_ns = initial_due_ns;
              next += connections;
            }
            break;
          }
        }
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::nanoseconds(due_ns)));
        net::Request request = rotation[id % rotation.size()];
        request.id = id;
        send_ns[id].store(NowNs(), std::memory_order_release);
        Status written = net::WriteRequest(socks[c], request);
        if (!written.ok()) {
          failed.store(true, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(chan.mu);
          chan.done = true;
          return;
        }
      }
    });
    // Reader: match responses by echoed id; a retryable shed goes back to
    // the writer with jittered exponential backoff, everything else is
    // terminal (classified + latency recorded from its last send).
    threads.emplace_back([&, c] {
      ConnChannel& chan = *channels[c];
      const auto finish = [&chan] {
        std::lock_guard<std::mutex> lock(chan.mu);
        chan.done = true;
        chan.cv.notify_all();
      };
      for (;;) {
        {
          std::lock_guard<std::mutex> lock(chan.mu);
          if (chan.terminal >= chan.share) break;
        }
        auto response = net::ReadResponse(socks[c]);
        if (!response.ok() || response->id >= requests) {
          failed.store(true, std::memory_order_relaxed);
          break;
        }
        const std::uint64_t id = response->id;
        if (response->code == StatusCode::kUnavailable &&
            retries_used[id].load(std::memory_order_relaxed) < max_retries) {
          // Explicit admission-control pushback: back off and retry.
          // Deterministic jitter in [0.5, 1.5) decorrelates clients without
          // an RNG on the hot path.
          const std::uint64_t attempt =
              retries_used[id].fetch_add(1, std::memory_order_relaxed) + 1;
          totals.retries.fetch_add(1, std::memory_order_relaxed);
          const double jitter =
              0.5 + static_cast<double>(
                        (id * 2654435761ULL + attempt * 40503ULL) % 1024) /
                        1024.0;
          const double delay_ms =
              retry_base_ms *
              std::ldexp(1.0, static_cast<int>(attempt) - 1) * jitter;
          RetryItem item;
          item.id = id;
          item.due_ns =
              NowNs() + static_cast<std::uint64_t>(delay_ms * 1e6);
          std::lock_guard<std::mutex> lock(chan.mu);
          chan.retries.push_back(item);
          chan.cv.notify_all();
          continue;
        }
        const std::uint64_t sent = send_ns[id].load(std::memory_order_acquire);
        latency_ns[id].store(NowNs() > sent ? NowNs() - sent : 1,
                             std::memory_order_relaxed);
        totals.answered.fetch_add(1, std::memory_order_relaxed);
        if (response->code == StatusCode::kOk) {
          totals.ok.fetch_add(1, std::memory_order_relaxed);
        } else if (response->code == StatusCode::kUnavailable) {
          totals.shed.fetch_add(1, std::memory_order_relaxed);
        } else {
          totals.errors.fetch_add(1, std::memory_order_relaxed);
        }
        std::lock_guard<std::mutex> lock(chan.mu);
        ++chan.terminal;
      }
      finish();
    });
  }
  for (std::thread& t : threads) t.join();
  if (scraper.joinable()) scraper.join();
  const double elapsed_s = static_cast<double>(NowNs()) / 1e9;
  for (net::Socket& sock : socks) sock.Close();

  const std::uint64_t ok = totals.ok.load();
  const std::uint64_t shed = totals.shed.load();
  const std::uint64_t errors = totals.errors.load();
  const std::uint64_t answered = totals.answered.load();
  const std::uint64_t retries = totals.retries.load();
  const std::uint64_t lost = requests - answered;

  // Percentiles over successfully served requests (shed replies return in
  // microseconds and would flatter the tail).
  std::vector<std::uint64_t> served;
  for (std::size_t i = 0; i < requests; ++i) {
    const std::uint64_t ns = latency_ns[i].load(std::memory_order_relaxed);
    if (ns > 0) served.push_back(ns);
  }
  std::sort(served.begin(), served.end());
  const auto Percentile = [&served](double q) {
    if (served.empty()) return 0.0;
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(served.size() - 1) + 0.5);
    return static_cast<double>(served[idx]) / 1e6;
  };
  const double p50_ms = Percentile(0.50);
  const double p90_ms = Percentile(0.90);
  const double p99_ms = Percentile(0.99);
  const double throughput =
      elapsed_s > 0.0 ? static_cast<double>(answered) / elapsed_s : 0.0;

  std::printf(
      "serve_loadgen: %zu requests @ %.0f qps over %zu connections: "
      "%llu ok, %llu shed, %llu errors, %llu lost, %llu retries; "
      "p50 %.2f ms, p90 %.2f ms, p99 %.2f ms, %.1f rps\n",
      requests, qps, connections, static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(lost),
      static_cast<unsigned long long>(retries), p50_ms, p90_ms, p99_ms,
      throughput);
  if (scrapes > 0) {
    std::printf("serve_loadgen: %llu of %zu mid-burst scrapes answered\n",
                static_cast<unsigned long long>(scrapes_ok.load()), scrapes);
  }

  const std::string json_path = args.Get("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::app);
    char line[2048];
    // One bench_compare-readable record: `checksum` is a fixed 0 (a load
    // test has no result digest), `metrics` carries the direction-aware
    // counters, `stages.histograms` the latency percentiles that
    // --check-perf gates. The flat fields repeat the counters for scripts
    // that predate the record schema.
    std::snprintf(
        line, sizeof(line),
        "{\"bench\":\"serve.loadgen\",\"params\":{\"qps\":\"%.0f\","
        "\"requests\":\"%zu\",\"connections\":\"%zu\",\"type\":\"%s\","
        "\"seed\":\"%llu\"},\"seconds\":%.6f,\"checksum\":0,"
        "\"metrics\":{\"shed\":%llu,\"errors\":%llu,\"lost\":%llu,"
        "\"retries\":%llu,\"throughput_rps\":%.1f},"
        "\"stages\":{\"histograms\":{\"serve.latency\":{"
        "\"p50_ns\":%.0f,\"p90_ns\":%.0f,\"p99_ns\":%.0f}}},"
        "\"p50_ms\":%.3f,\"p90_ms\":%.3f,\"p99_ms\":%.3f,"
        "\"throughput_rps\":%.1f,\"requests\":%zu,\"ok\":%llu,"
        "\"shed\":%llu,\"errors\":%llu,\"lost\":%llu,\"retries\":%llu}",
        qps, requests, connections, type_name.c_str(),
        static_cast<unsigned long long>(seed), elapsed_s,
        static_cast<unsigned long long>(shed),
        static_cast<unsigned long long>(errors),
        static_cast<unsigned long long>(lost),
        static_cast<unsigned long long>(retries), throughput, p50_ms * 1e6,
        p90_ms * 1e6, p99_ms * 1e6, p50_ms, p90_ms, p99_ms, throughput,
        requests, static_cast<unsigned long long>(ok),
        static_cast<unsigned long long>(shed),
        static_cast<unsigned long long>(errors),
        static_cast<unsigned long long>(lost),
        static_cast<unsigned long long>(retries));
    std::string record(line);
    if (scrapes > 0 && !last_scrape_json.empty()) {
      // The snapshot is itself a JSON object, embedded verbatim as a
      // top-level sub-object — bench_compare gates only the `metrics`
      // map, so this stays purely informational.
      record.insert(record.size() - 1,
                    ",\"scrape\":{\"requested\":" + std::to_string(scrapes) +
                        ",\"answered\":" +
                        std::to_string(scrapes_ok.load()) +
                        ",\"last\":" + last_scrape_json + "}");
    }
    out << record << "\n";
    if (!out.good()) {
      return Fail(Status::Internal("cannot write json: " + json_path));
    }
  }

  if (failed.load() || lost != 0) {
    std::fprintf(stderr, "serve_loadgen: lost %llu of %zu replies\n",
                 static_cast<unsigned long long>(lost), requests);
    return 1;
  }
  if (scrapes > 0 && scrapes_ok.load() != scrapes) {
    std::fprintf(stderr,
                 "serve_loadgen: only %llu of %zu mid-burst scrapes "
                 "answered\n",
                 static_cast<unsigned long long>(scrapes_ok.load()), scrapes);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace adarts::loadgen

int main(int argc, char** argv) { return adarts::loadgen::Main(argc, argv); }
