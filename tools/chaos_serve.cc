// chaos_serve — serve-path chaos harness (DESIGN.md §12).
//
//   chaos_serve [--qps F] [--swaps N] [--chaos-iters N] [--seed N]
//               [--dir PATH] [--keep 1]
//
// Boots an in-process `net::Server` on a freshly trained engine and runs
// six adversarial phases against it, under sustained loadgen traffic:
//
//   1. swap-storm    — hot-swap the engine repeatedly (kReload frames with
//                      strictly increasing versions) while clients hammer
//                      recommend/ping at >= 200 QPS. Every reply must carry
//                      exactly one published engine version and no request
//                      may be lost.
//   2. bad-reloads   — feed the reload pipeline a corrupted, a torn, a
//                      future-format and a stale-version snapshot. Every one
//                      must be rejected with a precise error while the old
//                      engine keeps serving, uninterrupted.
//   3. conn-chaos    — kill connections mid-frame, send garbage, dribble a
//                      frame byte-by-byte, slam into the connection cap.
//                      The server must refuse politely and never crash.
//   4. failpoints    — arm every net.* failpoint site in turn (accept,
//                      mid-frame read/write, queue push, reload verify/swap)
//                      and prove the server degrades cleanly and recovers
//                      once the site disarms.
//   5. scrape-storm  — concurrent kStats telemetry scrapes from several
//                      clients while an idempotent reload storm re-publishes
//                      the live snapshot (DESIGN.md §14). Every scrape must
//                      be answered with parseable JSON, no reply may be
//                      lost, and each client's successive scrapes must
//                      observe monotone request counts.
//   6. drain         — graceful shutdown under live traffic: every admitted
//                      request is answered, Wait() returns OK.
//
// Exit code 0 iff every phase's assertions hold. Any violation prints
// `CHAOS FAIL: ...` and exits 1 immediately — the harness is a gate, not a
// benchmark: ctest runs it as the `chaos_serve` test (tools/CMakeLists.txt),
// and CI's ASan/UBSan job runs it under the sanitizers.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "adarts/adarts.h"
#include "common/failpoint.h"
#include "common/json.h"
#include "data/generators.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "tests/test_util.h"
#include "tools/tool_args.h"
#include "ts/time_series.h"

namespace adarts::chaos {
namespace {

using tools::Args;

/// Hard assertion: chaos invariants are never "mostly" true.
void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "CHAOS FAIL: %s\n", what.c_str());
    std::exit(1);
  }
}

/// The folded registry counters (`metrics.counters`) of a kStats snapshot;
/// null when the snapshot lacks them.
const json::JsonValue* SnapshotCounters(const json::JsonValue& snap) {
  const json::JsonValue* metrics = snap.Find("metrics");
  return metrics != nullptr ? metrics->Find("counters") : nullptr;
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Snapshot fixtures (the engine, its training options and the request
// series come from tests/test_util.h, shared with the serve tests)
// ---------------------------------------------------------------------------

std::string ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  Check(in.good(), "cannot read snapshot fixture " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteAllBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  Check(out.good(), "cannot write snapshot fixture " + path);
}

/// Byte offset of the payload: the V2 bundle is `magic\nheader ...\n` then
/// payload, so the payload starts after the second newline.
std::size_t PayloadOffset(const std::string& bytes) {
  const std::size_t first = bytes.find('\n');
  Check(first != std::string::npos, "snapshot fixture has no magic line");
  const std::size_t second = bytes.find('\n', first + 1);
  Check(second != std::string::npos, "snapshot fixture has no header line");
  return second + 1;
}

/// The saved-up-front snapshot fixtures every phase draws from. All files
/// are written before the server starts so no phase mutates the engine the
/// server is serving from.
struct Fixtures {
  std::string dir;
  std::vector<std::string> swap_paths;  ///< versions base+1 .. base+swaps
  std::vector<std::uint64_t> swap_versions;
  std::string good;        ///< highest version; reloads of it are idempotent
  std::string corrupted;   ///< one payload byte flipped — checksum mismatch
  std::string torn;        ///< truncated mid-payload
  std::string future;      ///< format_version from the future
  std::string stale;       ///< engine_version below the active one
  std::uint64_t base_version = 0;
  std::uint64_t top_version = 0;
};

Fixtures BuildFixtures(Adarts* engine, const std::string& dir,
                       std::uint64_t base_version, std::size_t swaps) {
  Fixtures fx;
  fx.dir = dir;
  fx.base_version = base_version;
  for (std::size_t k = 1; k <= swaps; ++k) {
    const std::uint64_t version = base_version + k;
    const std::string path = dir + "/swap_" + std::to_string(version) +
                             ".adarts";
    engine->set_engine_version(version);
    Status saved = engine->Save(path);
    Check(saved.ok(), "save swap fixture: " + saved.ToString());
    fx.swap_paths.push_back(path);
    fx.swap_versions.push_back(version);
  }
  fx.top_version = base_version + swaps;
  fx.good = fx.swap_paths.back();

  const std::string bytes = ReadAllBytes(fx.good);
  const std::size_t payload = PayloadOffset(bytes);
  Check(bytes.size() > payload + 16, "snapshot fixture implausibly small");

  std::string flipped = bytes;
  flipped[payload + (bytes.size() - payload) / 2] ^= 0x01;
  fx.corrupted = dir + "/corrupted.adarts";
  WriteAllBytes(fx.corrupted, flipped);

  fx.torn = dir + "/torn.adarts";
  WriteAllBytes(fx.torn, bytes.substr(0, bytes.size() - 7));

  const std::string tag = "\nheader 2 ";
  const std::size_t head = bytes.find(tag);
  Check(head != std::string::npos, "snapshot fixture missing V2 header tag");
  std::string skewed = bytes;
  skewed.replace(head, tag.size(), "\nheader 9 ");
  fx.future = dir + "/future.adarts";
  WriteAllBytes(fx.future, skewed);

  engine->set_engine_version(1);
  fx.stale = dir + "/stale.adarts";
  Status saved = engine->Save(fx.stale);
  Check(saved.ok(), "save stale fixture: " + saved.ToString());

  // Leave the in-memory engine at the version the server will serve first.
  engine->set_engine_version(base_version);
  return fx;
}

// ---------------------------------------------------------------------------
// Client-side traffic
// ---------------------------------------------------------------------------

net::Request MakeTrafficRequest(std::uint64_t id, const ts::TimeSeries& faulty,
                                bool recommend) {
  net::Request request;
  request.id = id;
  if (recommend) {
    request.type = net::MessageType::kRecommend;
    request.series.push_back(faulty);
  } else {
    request.type = net::MessageType::kPing;
  }
  return request;
}

/// Paced closed-loop clients. In strict mode any socket error or lost reply
/// is a phase failure; in tolerant mode (chaos phases that deliberately
/// break connections) the client reconnects and keeps going.
class TrafficPool {
 public:
  TrafficPool(std::uint16_t port, std::size_t threads, double qps,
              bool tolerant)
      : port_(port), threads_(threads), qps_(qps), tolerant_(tolerant),
        faulty_(testing::MakeFaulty(17)) {}

  void Start() {
    stop_.store(false, std::memory_order_release);
    for (std::size_t i = 0; i < threads_; ++i) {
      workers_.emplace_back([this, i] { Run(i); });
    }
  }

  void Stop() {
    stop_.store(true, std::memory_order_release);
    for (auto& t : workers_) {
      t.join();
    }
    workers_.clear();
  }

  std::uint64_t sent() const { return sent_.load(); }
  std::uint64_t replies() const { return replies_.load(); }
  std::uint64_t ok() const { return ok_.load(); }
  std::uint64_t shed() const { return shed_.load(); }
  std::uint64_t errors() const { return errors_.load(); }
  std::uint64_t reconnects() const { return reconnects_.load(); }

  std::set<std::uint64_t> versions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return versions_;
  }

 private:
  void Run(std::size_t index) {
    const double interval_ns =
        1e9 * static_cast<double>(threads_) / qps_;
    net::Socket sock;
    std::uint64_t iteration = 0;
    const std::uint64_t start_ns = NowNs();
    while (!stop_.load(std::memory_order_acquire)) {
      const std::uint64_t due =
          start_ns +
          static_cast<std::uint64_t>(interval_ns *
                                     static_cast<double>(iteration));
      const std::uint64_t now = NowNs();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      ++iteration;
      if (!sock.valid()) {
        auto connected = net::ConnectTcp("127.0.0.1", port_);
        if (!connected.ok()) {
          Note(connected.status());
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          continue;
        }
        sock = std::move(connected).value();
        (void)sock.SetReceiveTimeout(5.0);
      }
      const bool recommend = iteration % 4 == 0;
      const net::Request request = MakeTrafficRequest(
          index * 1000000 + iteration, faulty_, recommend);
      sent_.fetch_add(1, std::memory_order_relaxed);
      auto response = net::Call(sock, request);
      if (!response.ok()) {
        Note(response.status());
        sock.Close();
        continue;
      }
      replies_.fetch_add(1, std::memory_order_relaxed);
      if (response->ok()) {
        ok_.fetch_add(1, std::memory_order_relaxed);
      } else if (response->code == StatusCode::kUnavailable) {
        shed_.fetch_add(1, std::memory_order_relaxed);
      } else {
        errors_.fetch_add(1, std::memory_order_relaxed);
      }
      if (response->engine_version != 0) {
        std::lock_guard<std::mutex> lock(mu_);
        versions_.insert(response->engine_version);
      }
    }
  }

  /// A broken connection is an error in strict mode, a reconnect in
  /// tolerant mode.
  void Note(const Status& status) {
    (void)status;
    if (tolerant_) {
      reconnects_.fetch_add(1, std::memory_order_relaxed);
    } else {
      errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const std::uint16_t port_;
  const std::size_t threads_;
  const double qps_;
  const bool tolerant_;
  const ts::TimeSeries faulty_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> sent_{0}, replies_{0}, ok_{0}, shed_{0},
      errors_{0}, reconnects_{0};
  mutable std::mutex mu_;
  std::set<std::uint64_t> versions_;
};

/// One request/response round trip on a fresh connection.
Result<net::Response> Call(std::uint16_t port, const net::Request& request) {
  ADARTS_ASSIGN_OR_RETURN(net::Socket sock, net::ConnectTcp("127.0.0.1", port));
  ADARTS_RETURN_NOT_OK(sock.SetReceiveTimeout(10.0));
  return net::Call(sock, request);
}

/// Sends a kReload frame and waits for the pipeline's verdict.
Result<net::Response> ReloadViaFrame(std::uint16_t port,
                                     const std::string& path,
                                     std::uint64_t id) {
  net::Request request;
  request.type = net::MessageType::kReload;
  request.id = id;
  request.text = path;
  return Call(port, request);
}

/// Retries a ping until it round-trips OK — the "is the server still alive
/// and serving" probe used after every deliberately destructive step.
void CheckServerAlive(std::uint16_t port, const std::string& context) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    net::Request ping;
    ping.type = net::MessageType::kPing;
    ping.id = 999000 + static_cast<std::uint64_t>(attempt);
    auto response = Call(port, ping);
    if (response.ok() && response->ok()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Check(false, "server unresponsive after " + context);
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

/// Phase 1: hot-swap storm under strict traffic. Fires every prepared swap
/// through the kReload wire path while clients run at full rate; each swap's
/// reply must announce the new version and every traffic reply must carry a
/// version that was published at some point.
void PhaseSwapStorm(net::Server* server, const Fixtures& fx, double qps) {
  TrafficPool traffic(server->port(), 4, qps, /*tolerant=*/false);
  traffic.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  for (std::size_t k = 0; k < fx.swap_paths.size(); ++k) {
    auto response = ReloadViaFrame(server->port(), fx.swap_paths[k], 5000 + k);
    Check(response.ok(), "swap-storm: reload transport failed: " +
                             response.status().ToString());
    Check(response->ok(), "swap-storm: reload rejected: " + response->message);
    Check(response->engine_version == fx.swap_versions[k],
          "swap-storm: reload reply announces version " +
              std::to_string(response->engine_version) + ", expected " +
              std::to_string(fx.swap_versions[k]));
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  traffic.Stop();

  Check(traffic.errors() == 0,
        "swap-storm: " + std::to_string(traffic.errors()) +
            " client-visible errors during clean hot-swaps");
  Check(traffic.replies() == traffic.sent(),
        "swap-storm: " + std::to_string(traffic.sent() - traffic.replies()) +
            " requests lost (sent " + std::to_string(traffic.sent()) +
            ", answered " + std::to_string(traffic.replies()) + ")");
  std::set<std::uint64_t> published;
  published.insert(fx.base_version);
  for (std::uint64_t v : fx.swap_versions) published.insert(v);
  for (std::uint64_t v : traffic.versions()) {
    Check(published.count(v) == 1,
          "swap-storm: reply carried unpublished engine version " +
              std::to_string(v));
  }
  Check(traffic.versions().size() >= 2,
        "swap-storm: traffic only ever observed one engine version — the "
        "storm did not overlap the swaps");
  Check(server->registry().ActiveVersion() == fx.top_version,
        "swap-storm: active version is " +
            std::to_string(server->registry().ActiveVersion()) +
            ", expected " + std::to_string(fx.top_version));
  std::printf("phase swap-storm: %llu requests, %llu swaps, versions "
              "observed %zu, 0 errors\n",
              static_cast<unsigned long long>(traffic.sent()),
              static_cast<unsigned long long>(fx.swap_paths.size()),
              traffic.versions().size());
}

/// Phase 2: every malformed snapshot is rejected with the old engine left
/// serving — and traffic never notices.
void PhaseBadReloads(net::Server* server, const Fixtures& fx, double qps) {
  TrafficPool traffic(server->port(), 2, qps / 2, /*tolerant=*/false);
  traffic.Start();
  const std::uint64_t version_before = server->registry().ActiveVersion();
  const struct {
    const char* label;
    const std::string* path;
    const char* expect;
  } cases[] = {
      {"corrupted", &fx.corrupted, "checksum mismatch"},
      {"torn", &fx.torn, "torn snapshot"},
      {"future-format", &fx.future, "newer than this build"},
      {"stale-version", &fx.stale, "version regression"},
  };
  std::uint64_t id = 6000;
  for (const auto& c : cases) {
    auto response = ReloadViaFrame(server->port(), *c.path, id++);
    Check(response.ok(), std::string("bad-reloads: transport failed for ") +
                             c.label + ": " + response.status().ToString());
    Check(!response->ok(), std::string("bad-reloads: ") + c.label +
                               " snapshot was accepted");
    Check(response->message.find(c.expect) != std::string::npos,
          std::string("bad-reloads: ") + c.label +
              " rejection says \"" + response->message + "\", expected \"" +
              c.expect + "\"");
    Check(server->registry().ActiveVersion() == version_before,
          std::string("bad-reloads: ") + c.label +
              " reload moved the active version");
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  traffic.Stop();
  Check(traffic.errors() == 0, "bad-reloads: rejected reloads disturbed "
                               "traffic (" +
                                   std::to_string(traffic.errors()) +
                                   " errors)");
  Check(traffic.replies() == traffic.sent(),
        "bad-reloads: requests lost during rejected reloads");
  std::printf("phase bad-reloads: 4 malformed snapshots rejected, engine "
              "v%llu stayed live, %llu requests unharmed\n",
              static_cast<unsigned long long>(version_before),
              static_cast<unsigned long long>(traffic.sent()));
}

/// Phase 3: adversarial connections — mid-frame disconnects, garbage,
/// byte-dribbled frames, and a slam into the connection cap.
void PhaseConnChaos(net::Server* server, std::size_t iters, double qps,
                    std::size_t max_connections) {
  TrafficPool traffic(server->port(), 2, qps / 2, /*tolerant=*/true);
  traffic.Start();
  for (std::size_t i = 0; i < iters; ++i) {
    switch (i % 4) {
      case 0: {
        // Length prefix promising 256 bytes, connection dies after 10.
        auto sock = net::ConnectTcp("127.0.0.1", server->port());
        if (!sock.ok()) break;
        const std::uint32_t len = 256;
        char prefix[4];
        std::memcpy(prefix, &len, 4);
        (void)sock->WriteAll(prefix, 4);
        (void)sock->WriteAll("truncated!", 10);
        sock->Close();
        break;
      }
      case 1: {
        // A well-framed body of garbage: must get kInvalidArgument back.
        net::Request dummy;
        auto sock = net::ConnectTcp("127.0.0.1", server->port());
        if (!sock.ok()) break;
        (void)sock->SetReceiveTimeout(5.0);
        if (net::WriteFrame(*sock, "\x7f garbage body \x7f").ok()) {
          // A lost connection is tolerated; an undecodable reply is not.
          auto response = net::ReadResponse(*sock);
          if (response.ok() ||
              response.status().code() == StatusCode::kInvalidArgument) {
            Check(response.ok() &&
                      response->code == StatusCode::kInvalidArgument,
                  "conn-chaos: garbage body did not yield kInvalidArgument");
          }
        }
        break;
      }
      case 2: {
        // Dribble a valid ping one byte at a time with pauses: slow-read
        // robustness. The reply must still arrive.
        net::Request ping;
        ping.type = net::MessageType::kPing;
        ping.id = 7000 + i;
        const std::string body = net::EncodeRequest(ping);
        auto sock = net::ConnectTcp("127.0.0.1", server->port());
        if (!sock.ok()) break;
        (void)sock->SetReceiveTimeout(5.0);
        const std::uint32_t len = static_cast<std::uint32_t>(body.size());
        char prefix[4];
        std::memcpy(prefix, &len, 4);
        bool sent = sock->WriteAll(prefix, 4).ok();
        for (std::size_t b = 0; sent && b < body.size(); ++b) {
          sent = sock->WriteAll(body.data() + b, 1).ok();
          if (b % 8 == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        if (sent) {
          auto response = net::ReadResponse(*sock);
          Check(response.ok(), "conn-chaos: dribbled ping got no reply: " +
                                   response.status().ToString());
          Check(response->ok() && response->id == ping.id,
                "conn-chaos: dribbled ping reply is wrong");
        }
        break;
      }
      case 3: {
        // Connect and vanish without a byte.
        auto sock = net::ConnectTcp("127.0.0.1", server->port());
        if (sock.ok()) sock->Close();
        break;
      }
    }
  }

  // Slam into the connection cap: open sockets until one is refused with an
  // explicit kUnavailable frame. The cap counts the two traffic conns too.
  std::vector<net::Socket> held;
  bool refused = false;
  for (std::size_t i = 0; i < max_connections + 8 && !refused; ++i) {
    auto sock = net::ConnectTcp("127.0.0.1", server->port());
    Check(sock.ok(), "conn-chaos: connect failed while probing the cap: " +
                         sock.status().ToString());
    (void)sock->SetReceiveTimeout(2.0);
    net::Request ping;
    ping.type = net::MessageType::kPing;
    ping.id = 8000 + i;
    auto response = net::Call(*sock, ping);
    Check(response.ok(), "conn-chaos: no reply while probing the cap: " +
                             response.status().ToString());
    if (response->code == StatusCode::kUnavailable) {
      refused = true;
      break;
    }
    Check(response->ok(), "conn-chaos: unexpected error while filling the "
                          "connection table: " +
                              response->message);
    held.push_back(std::move(sock).value());
  }
  Check(refused, "conn-chaos: never saw a kUnavailable refusal despite "
                 "opening past max_connections");
  held.clear();

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  traffic.Stop();
  CheckServerAlive(server->port(), "connection chaos");
  const std::uint64_t refused_total =
      server->MetricsSnapshot().Counter("serve.conn_refused");
  Check(refused_total > 0,
        "conn-chaos: serve.conn_refused never counted a refused connection");
  std::printf("phase conn-chaos: %zu hostile connections, cap refusal "
              "observed, server alive (%llu refused total)\n",
              iters, static_cast<unsigned long long>(refused_total));
}

/// Phase 4: arm each net.* failpoint in turn, drive traffic through the
/// wound, prove the site fired and the server recovered once disarmed.
void PhaseFailpoints(net::Server* server, const Fixtures& fx) {
  auto& registry = FailpointRegistry::Instance();
  const std::uint16_t port = server->port();

  const auto hit_count = [&registry](const char* site) {
    return registry.HitCount(site);
  };

  // Data-path sites: bounded fires, reconnect-tolerant client keeps going.
  struct DataSite {
    const char* site;
    StatusCode code;
  };
  for (const DataSite& site : {DataSite{"net.accept", StatusCode::kInternal},
                               DataSite{"net.read.frame", StatusCode::kInternal},
                               DataSite{"net.write.frame", StatusCode::kInternal},
                               DataSite{"net.queue.push",
                                        StatusCode::kUnavailable}}) {
    FailpointSpec spec;
    spec.code = site.code;
    spec.max_fires = 3;
    registry.Enable(site.site, spec);
    std::uint64_t survived = 0;
    for (int attempt = 0; attempt < 60 && survived < 3; ++attempt) {
      net::Request ping;
      ping.type = net::MessageType::kPing;
      ping.id = 9000 + static_cast<std::uint64_t>(attempt);
      auto response = Call(port, ping);
      if (response.ok() && response->ok()) ++survived;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Check(hit_count(site.site) > 0,
          std::string("failpoints: site ") + site.site + " never fired");
    Check(survived >= 3, std::string("failpoints: server did not recover "
                                     "while ") +
                             site.site + " was armed (bounded fires)");
    registry.Disable(site.site);
    CheckServerAlive(port, std::string("failpoint ") + site.site);
  }

  // Reload-path sites: an armed verify/swap turns a good snapshot into a
  // rejected reload; disarming makes the same snapshot go live again.
  const std::uint64_t version_before = server->registry().ActiveVersion();
  for (const char* site : {"net.reload.verify", "net.reload.swap"}) {
    FailpointSpec spec;
    spec.code = StatusCode::kInternal;
    registry.Enable(site, spec);
    auto rejected = ReloadViaFrame(port, fx.good, 9500);
    Check(rejected.ok(), std::string("failpoints: reload transport failed "
                                     "under ") +
                             site);
    Check(!rejected->ok(), std::string("failpoints: reload succeeded "
                                       "despite armed ") +
                               site);
    Check(server->registry().ActiveVersion() == version_before,
          std::string("failpoints: armed ") + site +
              " still moved the active version");
    Check(hit_count(site) > 0,
          std::string("failpoints: site ") + site + " never fired");
    registry.Disable(site);
    auto accepted = ReloadViaFrame(port, fx.good, 9501);
    Check(accepted.ok() && accepted->ok(),
          std::string("failpoints: reload of a good snapshot failed after "
                      "disarming ") +
              site);
  }
  registry.DisableAll();
  std::printf("phase failpoints: 6 net.* sites fired and recovered\n");
}

/// Phase 5: scrape storm — the telemetry plane must stay coherent while
/// clients hammer kStats concurrently AND the reload pipeline re-publishes
/// the live snapshot. Each scraper holds its own connection and asserts
/// every scrape is answered with parseable JSON whose request count never
/// regresses from its previous scrape (the live-fold monotone-prefix
/// contract under real concurrency).
void PhaseScrapeStorm(net::Server* server, const Fixtures& fx, double qps,
                      std::size_t* reloads_fired) {
  TrafficPool traffic(server->port(), 2, qps / 2, /*tolerant=*/false);
  traffic.Start();

  constexpr std::size_t kScrapers = 4;
  constexpr std::size_t kScrapesEach = 25;
  std::atomic<std::uint64_t> scrapes_answered{0};
  std::vector<std::thread> scrapers;
  for (std::size_t s = 0; s < kScrapers; ++s) {
    scrapers.emplace_back([&, s] {
      auto connected = net::ConnectTcp("127.0.0.1", server->port());
      Check(connected.ok(), "scrape-storm: scraper cannot connect: " +
                                connected.status().ToString());
      net::Socket sock = std::move(connected).value();
      Check(sock.SetReceiveTimeout(10.0).ok(),
            "scrape-storm: cannot set scraper timeout");
      double last_received = -1.0;
      for (std::size_t i = 0; i < kScrapesEach; ++i) {
        net::Request scrape;
        scrape.type = net::MessageType::kStats;
        scrape.id = 20000 + s * 1000 + i;
        auto response = net::Call(sock, scrape);
        Check(response.ok(), "scrape-storm: scrape reply lost: " +
                                 response.status().ToString());
        Check(response->ok(), "scrape-storm: scrape refused: " +
                                  response->message);
        auto parsed = json::ParseJson(response->text);
        Check(parsed.ok() && parsed->is_object(),
              "scrape-storm: snapshot is not parseable JSON: " +
                  parsed.status().ToString());
        const json::JsonValue* counters = SnapshotCounters(*parsed);
        Check(counters != nullptr,
              "scrape-storm: snapshot lacks metrics.counters");
        const double received = counters->NumberOr("serve.requests", -1.0);
        Check(received >= last_received,
              "scrape-storm: request count regressed between scrapes (" +
                  std::to_string(last_received) + " -> " +
                  std::to_string(received) + ")");
        last_received = received;
        scrapes_answered.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
    });
  }

  // The reload storm underneath: re-publishing the already-live snapshot is
  // idempotent (same version, allowed), so every attempt either succeeds or
  // is refused with "already in progress" — nothing else.
  constexpr std::size_t kReloads = 10;
  std::size_t reload_ok = 0;
  for (std::size_t r = 0; r < kReloads; ++r) {
    auto response = ReloadViaFrame(server->port(), fx.good, 21000 + r);
    Check(response.ok(), "scrape-storm: reload transport failed: " +
                             response.status().ToString());
    if (response->ok()) {
      ++reload_ok;
    } else {
      Check(response->code == StatusCode::kUnavailable,
            "scrape-storm: reload failed with unexpected error: " +
                response->message);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Check(reload_ok >= 1, "scrape-storm: not a single storm reload landed");
  *reloads_fired = reload_ok;

  for (std::thread& t : scrapers) t.join();
  traffic.Stop();
  Check(scrapes_answered.load() == kScrapers * kScrapesEach,
        "scrape-storm: lost scrape replies (" +
            std::to_string(scrapes_answered.load()) + " of " +
            std::to_string(kScrapers * kScrapesEach) + ")");
  Check(traffic.errors() == 0,
        "scrape-storm: scrapes disturbed request traffic (" +
            std::to_string(traffic.errors()) + " errors)");
  Check(traffic.replies() == traffic.sent(),
        "scrape-storm: request replies lost during the scrape storm");

  // One last scrape reflects the storm: serve.stats_scrapes must have
  // counted every one of them.
  net::Request final_scrape;
  final_scrape.type = net::MessageType::kStats;
  final_scrape.id = 22000;
  auto response = Call(server->port(), final_scrape);
  Check(response.ok() && response->ok(),
        "scrape-storm: final scrape failed");
  auto parsed = json::ParseJson(response->text);
  Check(parsed.ok(), "scrape-storm: final snapshot unparseable");
  const json::JsonValue* counters = SnapshotCounters(*parsed);
  Check(counters != nullptr &&
            counters->NumberOr("serve.stats_scrapes", 0.0) >=
                static_cast<double>(kScrapers * kScrapesEach),
        "scrape-storm: serve.stats_scrapes undercounts the storm");
  std::printf("phase scrape-storm: %zu concurrent scrapes answered, "
              "%zu idempotent reloads landed, 0 lost replies\n",
              kScrapers * kScrapesEach, reload_ok);
}

/// Phase 6: graceful drain under live traffic — every admitted request is
/// answered, Wait() is clean. For recommend/ping traffic every request gets
/// exactly one verdict: serve.requests == serve.ok + serve.errors +
/// serve.shed (a deadline expiry is one of the errors). The identity is
/// taken as a delta over this phase only: earlier phases deliberately push
/// reload frames, scrapes and undecodable bodies through the reader, which
/// count in serve.requests but are accounted in serve.reload.*,
/// serve.stats_scrapes and serve.bad_frames instead of the verdicts.
void PhaseDrain(net::Server* server, double qps) {
  const StageMetrics before = server->MetricsSnapshot();
  TrafficPool traffic(server->port(), 3, qps, /*tolerant=*/true);
  traffic.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  server->RequestShutdown();
  Status drained = server->Wait();
  Check(drained.ok(), "drain: Wait() returned " + drained.ToString());
  traffic.Stop();
  const StageMetrics after = server->MetricsSnapshot();
  const auto delta = [&](const char* name) {
    return after.Counter(name) - before.Counter(name);
  };
  const std::uint64_t received = delta("serve.requests");
  const std::uint64_t accounted =
      delta("serve.ok") + delta("serve.errors") + delta("serve.shed");
  Check(received == accounted,
        "drain: " + std::to_string(received) + " requests but " +
            std::to_string(accounted) + " verdicts");
  std::printf("phase drain: clean shutdown under load (%llu requests, "
              "%llu answered in drain)\n",
              static_cast<unsigned long long>(received),
              static_cast<unsigned long long>(
                  after.Counter("serve.drained_in_flight")));
}

// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  const Result<Args> parsed = Args::Parse(argc, argv);
  if (!parsed.ok()) return tools::BadFlag(parsed.status());
  const Args& args = *parsed;
  double qps = 250.0;
  std::size_t swaps = 8;
  std::size_t chaos_iters = 24;
  const Status flags = tools::FirstError({
      args.GetDouble("qps", &qps),
      args.GetUint("swaps", &swaps),
      args.GetUint("chaos-iters", &chaos_iters),
  });
  if (!flags.ok()) return tools::BadFlag(flags);
  std::string dir = args.Get("dir");
  const bool keep = args.Get("keep", "0") == "1";
  Check(qps >= 200.0, "chaos traffic must be >= 200 QPS (got " +
                          args.Get("qps", "250") + ")");
  Check(swaps >= 2, "need at least 2 swaps for a storm");

  if (dir.empty()) {
    dir = "/tmp/adarts_chaos." + std::to_string(::getpid());
  }
  std::string mkdir_cmd = "mkdir -p " + dir;
  Check(std::system(mkdir_cmd.c_str()) == 0, "cannot create " + dir);

  std::printf("chaos_serve: training fixture engine...\n");
  std::fflush(stdout);
  ExecContext ctx;
  auto trained = Adarts::Train(
      testing::SmallCorpus({data::Category::kClimate, data::Category::kMotion}),
      testing::FastOptions(), ctx);
  Check(trained.ok(), "fixture training failed: " +
                          trained.status().ToString());
  Adarts engine = std::move(trained).value();

  constexpr std::uint64_t kBaseVersion = 10;
  const Fixtures fx = BuildFixtures(&engine, dir, kBaseVersion, swaps);

  net::ServeOptions options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  options.max_connections = 24;
  options.model_path = fx.good;
  net::Server server(engine, options);
  Status started = server.Start();
  Check(started.ok(), "server start: " + started.ToString());
  std::printf("chaos_serve: serving engine v%llu on 127.0.0.1:%u\n",
              static_cast<unsigned long long>(kBaseVersion),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  PhaseSwapStorm(&server, fx, qps);
  PhaseBadReloads(&server, fx, qps);
  PhaseConnChaos(&server, chaos_iters, qps, options.max_connections);
  PhaseFailpoints(&server, fx);
  std::size_t storm_reloads = 0;
  PhaseScrapeStorm(&server, fx, qps, &storm_reloads);
  PhaseDrain(&server, qps);

  // Swap-log sanity: the seed publish, every storm swap, the two
  // failpoint-recovery reloads, the scrape-storm's idempotent re-publishes;
  // at least four rejections (bad-reloads) plus the two armed reload sites.
  std::size_t successes = 0, failures = 0;
  for (const net::SwapRecord& record : server.registry().SwapLog()) {
    (record.success ? successes : failures)++;
  }
  Check(successes >= 1 + swaps + 2 + storm_reloads,
        "swap log records too few successes");
  Check(failures >= 6, "swap log records too few rejections");

  if (!keep) {
    std::string cleanup = "rm -rf " + dir;
    Check(std::system(cleanup.c_str()) == 0, "cleanup failed");
  }
  std::printf("chaos_serve: all phases passed (swap log: %zu publishes, "
              "%zu rejections)\n",
              successes, failures);
  return 0;
}

}  // namespace
}  // namespace adarts::chaos

int main(int argc, char** argv) { return adarts::chaos::Main(argc, argv); }
