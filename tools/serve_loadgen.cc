// serve_loadgen — open-loop load generator for adarts_serve.
//
//   serve_loadgen (--port N | --port-file FILE) [--qps F] [--requests N]
//                 [--connections N] [--type ping|recommend|batch|repair]
//                 [--batch-size N] [--length N] [--missing F] [--seed N]
//                 [--deadline-ms F] [--timeout-s F] [--scrape N]
//                 [--json FILE]
//
// Open loop (DESIGN.md §10): request i is due at start + i/qps, independent
// of when responses come back, so a slow server accumulates queueing delay
// instead of silently throttling the generator, which is the point of
// measuring an admission queue. Request i goes to connection i mod N. Each
// connection runs a writer, which sends its ids at their due times, and a
// reader, which takes one reply per id. Every reply is terminal: ok, shed
// (kUnavailable) or error. A request's latency runs from its due time to its
// reply, the rule of bench/e2e's load client, so a writer that falls behind
// shows its delay instead of hiding it.
//
// Emits one JSON line per run (the BENCH_serve.json record), readable by
// tools/bench_compare: `metrics` carries the direction-aware counters
// (shed/errors/lost lower-better, throughput_rps higher-better) and
// `stages.histograms["serve.latency"]` the p50/p90/p99 perf surface for
// --check-perf. The percentiles cover OK replies only: shed replies return
// in microseconds and would flatter the tail. Throughput counts every
// answered request. The flat legacy fields stay for scripts.
//
// --scrape N interleaves N kStats telemetry scrapes spaced evenly through
// the burst on a dedicated connection (DESIGN.md §14) — proof the daemon
// stays observable under the very load being generated. The last snapshot
// is embedded verbatim in the --json record under "scrape" (NOT in the
// bench_compare `metrics` map, so baseline gating is unaffected); a scrape
// that goes unanswered fails the run.
//
// Exit status: 0 when every request was answered (ok, shed and error
// responses all count as answered — shedding is correct behaviour under
// overload); nonzero when replies were lost or a connection failed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/generators.h"
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
      "                     [--scrape N] [--json FILE]\n");
  return 2;
}

/// What one connection's reader saw; merged by main after the join.
struct ConnTally {
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  /// Due time to reply, one entry per OK reply.
  std::vector<std::uint64_t> ok_latency_ns;
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
  if (requests == 0 || qps <= 0.0 || length == 0) return Usage();

  // A small rotation of requests over 8 series; each send copies one and
  // sets its own id.
  Rng rng(seed);
  std::vector<ts::TimeSeries> series_pool;
  for (std::size_t i = 0; i < 8; ++i) {
    series_pool.push_back(data::MakeFaultySeries(length, missing, &rng));
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

  std::atomic<bool> failed{false};
  std::vector<ConnTally> tallies(connections);

  const Clock::time_point start = Clock::now();
  const auto NowNs = [&start]() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  };
  const auto DueNs = [qps](std::uint64_t id) {
    return static_cast<std::uint64_t>(static_cast<double>(id) / qps * 1e9);
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
    // Writer: sends ids c, c + N, ... each at its due time.
    threads.emplace_back([&, c] {
      for (std::uint64_t id = c; id < requests; id += connections) {
        std::this_thread::sleep_until(start +
                                      std::chrono::nanoseconds(DueNs(id)));
        net::Request request = rotation[id % rotation.size()];
        request.id = id;
        if (!net::WriteRequest(socks[c], request).ok()) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
    // Reader: one reply per id this connection sent, matched by echoed id.
    threads.emplace_back([&, c] {
      ConnTally& tally = tallies[c];
      const std::size_t share =
          requests / connections + (c < requests % connections ? 1 : 0);
      for (std::size_t n = 0; n < share; ++n) {
        auto response = net::ReadResponse(socks[c]);
        if (!response.ok() || response->id >= requests ||
            response->id % connections != c) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        if (response->code == StatusCode::kOk) {
          ++tally.ok;
          tally.ok_latency_ns.push_back(NowNs() - DueNs(response->id));
        } else if (response->code == StatusCode::kUnavailable) {
          ++tally.shed;
        } else {
          ++tally.errors;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (scraper.joinable()) scraper.join();
  const double elapsed_s = static_cast<double>(NowNs()) / 1e9;
  for (net::Socket& sock : socks) sock.Close();

  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::vector<std::uint64_t> served;
  for (const ConnTally& tally : tallies) {
    ok += tally.ok;
    shed += tally.shed;
    errors += tally.errors;
    served.insert(served.end(), tally.ok_latency_ns.begin(),
                  tally.ok_latency_ns.end());
  }
  const std::uint64_t answered = ok + shed + errors;
  const std::uint64_t lost = requests - answered;

  // Percentiles over OK replies only (shed replies return in microseconds
  // and would flatter the tail).
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
      "%llu ok, %llu shed, %llu errors, %llu lost; "
      "p50 %.2f ms, p90 %.2f ms, p99 %.2f ms, %.1f rps\n",
      requests, qps, connections, static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(lost), p50_ms, p90_ms, p99_ms,
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
        "\"throughput_rps\":%.1f},"
        "\"stages\":{\"histograms\":{\"serve.latency\":{"
        "\"p50_ns\":%.0f,\"p90_ns\":%.0f,\"p99_ns\":%.0f}}},"
        "\"p50_ms\":%.3f,\"p90_ms\":%.3f,\"p99_ms\":%.3f,"
        "\"throughput_rps\":%.1f,\"requests\":%zu,\"ok\":%llu,"
        "\"shed\":%llu,\"errors\":%llu,\"lost\":%llu}",
        qps, requests, connections, type_name.c_str(),
        static_cast<unsigned long long>(seed), elapsed_s,
        static_cast<unsigned long long>(shed),
        static_cast<unsigned long long>(errors),
        static_cast<unsigned long long>(lost), throughput, p50_ms * 1e6,
        p90_ms * 1e6, p99_ms * 1e6, p50_ms, p90_ms, p99_ms, throughput,
        requests, static_cast<unsigned long long>(ok),
        static_cast<unsigned long long>(shed),
        static_cast<unsigned long long>(errors),
        static_cast<unsigned long long>(lost));
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
