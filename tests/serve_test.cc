// End-to-end tests of the serving daemon's front end (DESIGN.md §10): the
// request loop against a live engine, deterministic load shedding, queued
// deadline expiry, graceful drain with zero lost in-flight replies, the
// folded metrics export, and the serve_loadgen tool against a live server.

#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adarts/adarts.h"
#include "common/json.h"
#include "net/server.h"
#include "tests/serve_util.h"

namespace adarts {
namespace {

using testing::Call;
using testing::Engine;
using testing::MakeFaulty;

net::Request MakeRequest(net::MessageType type, std::uint64_t id,
                         double deadline_ms = 0.0) {
  net::Request request;
  request.type = type;
  request.id = id;
  request.deadline_ms = deadline_ms;
  if (type == net::MessageType::kRecommendBatch) {
    request.series.push_back(MakeFaulty(1));
    request.series.push_back(MakeFaulty(2));
    request.series.push_back(MakeFaulty(3));
  } else if (type != net::MessageType::kPing) {
    request.series.push_back(MakeFaulty());
  }
  return request;
}

/// One serve counter of the server's folded registry.
std::uint64_t Count(const net::Server& server, const char* name) {
  return server.MetricsSnapshot().Counter(name);
}

void Shutdown(net::Server* server) {
  server->RequestShutdown();
  Status drained = server->Wait();
  EXPECT_TRUE(drained.ok()) << drained;
}

TEST(ServeTest, PingRoundTrips) {
  net::Server server(Engine(), {});
  ASSERT_TRUE(server.Start().ok());
  auto response = Call(server.port(), MakeRequest(net::MessageType::kPing, 7));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->ok()) << response->message;
  EXPECT_EQ(response->id, 7u);
  EXPECT_EQ(response->type, net::MessageType::kPing);
  Shutdown(&server);
}

TEST(ServeTest, RecommendReturnsAlgorithmFromPool) {
  net::Server server(Engine(), {});
  ASSERT_TRUE(server.Start().ok());
  auto response =
      Call(server.port(), MakeRequest(net::MessageType::kRecommend, 1));
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->ok()) << response->message;
  ASSERT_EQ(response->algorithms.size(), 1u);
  auto algorithm = impute::AlgorithmFromString(response->algorithms[0]);
  ASSERT_TRUE(algorithm.ok());
  bool in_pool = false;
  for (impute::Algorithm a : Engine().algorithm_pool()) {
    in_pool = in_pool || a == *algorithm;
  }
  EXPECT_TRUE(in_pool);
  // The served answer equals a direct engine call — the wire adds nothing.
  ExecContext ctx;
  auto direct = Engine().Recommend(MakeFaulty(), ctx);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*algorithm, *direct);
  Shutdown(&server);
}

TEST(ServeTest, BatchMatchesSingleRecommends) {
  net::Server server(Engine(), {});
  ASSERT_TRUE(server.Start().ok());
  const net::Request request =
      MakeRequest(net::MessageType::kRecommendBatch, 2);
  auto response = Call(server.port(), request);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->ok()) << response->message;
  ASSERT_EQ(response->algorithms.size(), request.series.size());
  ExecContext ctx;
  for (std::size_t i = 0; i < request.series.size(); ++i) {
    auto direct = Engine().Recommend(request.series[i], ctx);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(response->algorithms[i],
              std::string(impute::AlgorithmToString(*direct)));
  }
  Shutdown(&server);
}

TEST(ServeTest, RepairFillsEveryMissingPosition) {
  net::Server server(Engine(), {});
  ASSERT_TRUE(server.Start().ok());
  auto response =
      Call(server.port(), MakeRequest(net::MessageType::kRepair, 3));
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->ok()) << response->message;
  ASSERT_EQ(response->series.size(), 1u);
  const ts::TimeSeries& repaired = response->series[0];
  ASSERT_EQ(repaired.length(), MakeFaulty().length());
  for (std::size_t i = 0; i < repaired.length(); ++i) {
    EXPECT_FALSE(repaired.IsMissing(i)) << "position " << i << " still missing";
  }
  Shutdown(&server);
}

TEST(ServeTest, MalformedBodyGetsErrorResponse) {
  net::Server server(Engine(), {});
  ASSERT_TRUE(server.Start().ok());
  auto sock = net::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(net::WriteFrame(*sock, "garbage-bytes").ok());
  auto response = net::ReadResponse(*sock);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, StatusCode::kInvalidArgument);
  // The server drops the connection after a malformed body.
  EXPECT_FALSE(net::ReadResponse(*sock).ok());
  Shutdown(&server);
}

TEST(ServeTest, ShedsWithUnavailableWhenQueueIsFull) {
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::atomic<int> hooked{0};
  net::ServeOptions options;
  options.queue_capacity = 1;
  options.num_workers = 1;
  options.worker_hook_for_test = [&](const net::Request&) {
    // Block only the FIRST executed request, so the drain after the
    // assertions cannot wedge on a second hook hit.
    if (hooked.fetch_add(1) == 0) {
      started.set_value();
      release_future.wait();
    }
  };
  net::Server server(Engine(), options);
  ASSERT_TRUE(server.Start().ok());

  auto sock = net::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(sock.ok());
  // Request 1 occupies the single worker (the hook holds it mid-request)…
  ASSERT_TRUE(
      net::WriteRequest(*sock, MakeRequest(net::MessageType::kPing, 1)).ok());
  started.get_future().wait();
  // …request 2 fills the queue, request 3 must shed deterministically.
  ASSERT_TRUE(
      net::WriteRequest(*sock, MakeRequest(net::MessageType::kPing, 2)).ok());
  ASSERT_TRUE(
      net::WriteRequest(*sock, MakeRequest(net::MessageType::kPing, 3)).ok());

  // The shed reply for 3 arrives first (written by the reader thread while
  // the worker is still held).
  auto shed = net::ReadResponse(*sock);
  ASSERT_TRUE(shed.ok()) << shed.status();
  EXPECT_EQ(shed->id, 3u);
  EXPECT_EQ(shed->code, StatusCode::kUnavailable);

  release.set_value();
  for (std::uint64_t expected : {1u, 2u}) {
    auto response = net::ReadResponse(*sock);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->id, expected);
    EXPECT_TRUE(response->ok());
  }
  Shutdown(&server);
  const StageMetrics metrics = server.MetricsSnapshot();
  EXPECT_EQ(metrics.Counter("serve.shed"), 1u);
  EXPECT_EQ(metrics.Counter("serve.ok"), 2u);
  // Every request gets exactly one verdict: requests = ok + errors + shed.
  EXPECT_EQ(metrics.Counter("serve.requests"), 3u);
  EXPECT_EQ(metrics.Counter("serve.requests"),
            metrics.Counter("serve.ok") + metrics.Counter("serve.errors") +
                metrics.Counter("serve.shed"));
}

TEST(ServeTest, DeadlineExpiredInQueueAnswersDeadlineExceeded) {
  net::Server server(Engine(), {});
  ASSERT_TRUE(server.Start().ok());
  // A 1-nanosecond budget is always expired by the time a worker pops the
  // request; the engine must never run.
  auto response = Call(
      server.port(),
      MakeRequest(net::MessageType::kRecommend, 4, /*deadline_ms=*/1e-6));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, StatusCode::kDeadlineExceeded);
  Shutdown(&server);
  const StageMetrics metrics = server.MetricsSnapshot();
  EXPECT_EQ(metrics.Counter("serve.deadline_exceeded"), 1u);
  // A deadline expiry is one of the errors, not a fourth verdict: the
  // identity requests = ok + errors + shed still holds.
  EXPECT_EQ(metrics.Counter("serve.errors"), 1u);
  EXPECT_EQ(metrics.Counter("serve.requests"), 1u);
  EXPECT_EQ(metrics.Counter("serve.requests"),
            metrics.Counter("serve.ok") + metrics.Counter("serve.errors") +
                metrics.Counter("serve.shed"));
}

TEST(ServeTest, DrainAnswersEveryAdmittedRequest) {
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::atomic<int> hooked{0};
  net::ServeOptions options;
  options.queue_capacity = 8;
  options.num_workers = 1;
  options.worker_hook_for_test = [&](const net::Request&) {
    if (hooked.fetch_add(1) == 0) {
      started.set_value();
      release_future.wait();
    }
  };
  net::Server server(Engine(), options);
  ASSERT_TRUE(server.Start().ok());

  auto sock = net::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(sock.ok());
  constexpr std::uint64_t kRequests = 4;
  ASSERT_TRUE(
      net::WriteRequest(*sock, MakeRequest(net::MessageType::kPing, 0)).ok());
  started.get_future().wait();
  for (std::uint64_t id = 1; id < kRequests; ++id) {
    const net::Request ping = MakeRequest(net::MessageType::kPing, id);
    ASSERT_TRUE(net::WriteRequest(*sock, ping).ok());
  }

  // Begin the drain while one request executes and three sit in the queue;
  // then let the worker go. Every admitted request must still be answered.
  server.RequestShutdown();
  std::thread waiter([&server] { EXPECT_TRUE(server.Wait().ok()); });
  release.set_value();
  std::vector<bool> answered(kRequests, false);
  for (std::uint64_t n = 0; n < kRequests; ++n) {
    auto response = net::ReadResponse(*sock);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_LT(response->id, kRequests);
    EXPECT_TRUE(response->ok());
    answered[response->id] = true;
  }
  waiter.join();
  for (std::uint64_t id = 0; id < kRequests; ++id) {
    EXPECT_TRUE(answered[id]) << "request " << id << " lost in drain";
  }
  const StageMetrics metrics = server.MetricsSnapshot();
  EXPECT_EQ(metrics.Counter("serve.ok"), kRequests);
  EXPECT_EQ(metrics.Counter("serve.responses_sent"), kRequests);
  EXPECT_GE(metrics.Counter("serve.drained_in_flight"), 1u);
}

TEST(ServeTest, MetricsSnapshotFoldsServeAndEngineMetrics) {
  net::Server server(Engine(), {});
  ASSERT_TRUE(server.Start().ok());
  for (std::uint64_t id = 0; id < 3; ++id) {
    auto response =
        Call(server.port(), MakeRequest(net::MessageType::kRecommend, id));
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->ok()) << response->message;
  }
  Shutdown(&server);
  const StageMetrics snapshot = server.MetricsSnapshot();
  // Serve-level instrumentation…
  EXPECT_EQ(snapshot.Counter("serve.requests"), 3u);
  EXPECT_EQ(snapshot.Counter("serve.ok"), 3u);
  EXPECT_EQ(snapshot.Histogram("serve.queue_wait").count, 3u);
  // …folded with the worker ExecContext's engine metrics.
  EXPECT_EQ(snapshot.Counter("recommend.requests"), 3u);
  EXPECT_EQ(snapshot.Histogram("recommend.latency").count, 3u);
}

// --- hot-swap and connection-cap behaviour (DESIGN.md §12) ----------------

std::string TempSnapshotPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Saves a snapshot of the shared test engine stamped with `version`.
/// Adarts is move-only (the committee owns fitted classifiers), so the
/// stamped copy is made via a save/load round trip.
std::string SaveEngineWithVersion(std::uint64_t version, const char* name) {
  const std::string path = TempSnapshotPath(name);
  EXPECT_TRUE(Engine().Save(path).ok());
  auto copy = Adarts::Load(path);
  EXPECT_TRUE(copy.ok()) << copy.status();
  copy->set_engine_version(version);
  EXPECT_TRUE(copy->Save(path).ok());
  return path;
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

TEST(ServeTest, ReloadDuringBurstPartitionsRepliesAcrossExactlyTwoVersions) {
  const std::string v2_path =
      SaveEngineWithVersion(2, "adarts_serve_swap_v2.model");
  net::ServeOptions options;
  options.num_workers = 2;
  net::Server server(Engine(), options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(server.registry().ActiveVersion(), 1u);

  auto sock = net::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(sock.ok());
  constexpr std::uint64_t kBurst = 20;
  // First half of the burst races the swap…
  for (std::uint64_t id = 0; id < kBurst; ++id) {
    const net::Request ping = MakeRequest(net::MessageType::kPing, id);
    ASSERT_TRUE(net::WriteRequest(*sock, ping).ok());
  }
  // …the reload reply only arrives after the registry published v2…
  auto reload = ReloadViaFrame(server.port(), v2_path, 777);
  ASSERT_TRUE(reload.ok()) << reload.status();
  ASSERT_TRUE(reload->ok()) << reload->message;
  EXPECT_EQ(reload->engine_version, 2u);
  // …so the second half must be served by v2 exclusively.
  for (std::uint64_t id = kBurst; id < 2 * kBurst; ++id) {
    const net::Request ping = MakeRequest(net::MessageType::kPing, id);
    ASSERT_TRUE(net::WriteRequest(*sock, ping).ok());
  }

  std::set<std::uint64_t> versions;
  std::vector<bool> answered(2 * kBurst, false);
  for (std::uint64_t n = 0; n < 2 * kBurst; ++n) {
    auto response = net::ReadResponse(*sock);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response->ok()) << response->message;
    ASSERT_LT(response->id, 2 * kBurst);
    answered[response->id] = true;
    versions.insert(response->engine_version);
    if (response->id >= kBurst) {
      EXPECT_EQ(response->engine_version, 2u)
          << "request " << response->id << " sent after the swap was "
          << "answered by the old engine";
    }
  }
  // Parity: no burst request lost across the swap; every reply names
  // exactly one of the two published versions.
  for (std::uint64_t id = 0; id < 2 * kBurst; ++id) {
    EXPECT_TRUE(answered[id]) << "request " << id << " lost across the swap";
  }
  for (std::uint64_t v : versions) {
    EXPECT_TRUE(v == 1u || v == 2u) << "unpublished version " << v;
  }
  EXPECT_LE(versions.size(), 2u);
  EXPECT_EQ(versions.count(2u), 1u);
  Shutdown(&server);
  EXPECT_EQ(Count(server, "serve.reload.ok"), 1u);
  std::remove(v2_path.c_str());
}

TEST(ServeTest, CorruptSnapshotReloadLeavesOldEngineServing) {
  const std::string path =
      SaveEngineWithVersion(5, "adarts_serve_corrupt.model");
  // Flip one payload byte: the reload must die on the checksum, not parse.
  {
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(0, std::ios::end);
    const std::streampos size = file.tellg();
    file.seekp(static_cast<std::streamoff>(size) / 2);
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(size) / 2);
    file.read(&byte, 1);
    byte ^= 0x01;
    file.seekp(static_cast<std::streamoff>(size) / 2);
    file.write(&byte, 1);
  }

  net::Server server(Engine(), {});
  ASSERT_TRUE(server.Start().ok());
  auto reload = ReloadViaFrame(server.port(), path, 88);
  ASSERT_TRUE(reload.ok()) << reload.status();
  EXPECT_FALSE(reload->ok());
  EXPECT_EQ(reload->code, StatusCode::kInvalidArgument);
  EXPECT_NE(reload->message.find("checksum mismatch"), std::string::npos)
      << reload->message;
  // The failed reload reply itself names the version still serving…
  EXPECT_EQ(reload->engine_version, 1u);
  EXPECT_EQ(server.registry().ActiveVersion(), 1u);
  // …and the old engine keeps answering real requests.
  auto response =
      Call(server.port(), MakeRequest(net::MessageType::kRecommend, 89));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->ok()) << response->message;
  EXPECT_EQ(response->engine_version, 1u);
  Shutdown(&server);
  EXPECT_EQ(Count(server, "serve.reload.failed"), 1u);
  EXPECT_EQ(Count(server, "serve.reload.ok"), 0u);
  std::remove(path.c_str());
}

TEST(ServeTest, ConnectionCapRefusesWithExplicitUnavailable) {
  net::ServeOptions options;
  options.max_connections = 2;
  net::Server server(Engine(), options);
  ASSERT_TRUE(server.Start().ok());

  // Fill the table with two held connections (ping round trip proves each
  // is fully admitted, not just in the accept backlog).
  std::vector<net::Socket> held;
  for (std::uint64_t id = 0; id < 2; ++id) {
    auto sock = net::ConnectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(sock.ok());
    auto response = net::Call(*sock, MakeRequest(net::MessageType::kPing, id));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_TRUE(response->ok()) << response->message;
    held.push_back(std::move(sock).value());
  }

  // The third connection is accepted, told kUnavailable, and closed —
  // an explicit refusal the client can back off on, not a silent drop.
  auto refused = net::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(refused.ok());
  auto response = net::ReadResponse(*refused);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, StatusCode::kUnavailable);
  EXPECT_FALSE(net::ReadResponse(*refused).ok());  // server closed it

  // Releasing one slot lets a new connection in (poll until the reader
  // unregisters the closed connection).
  held.pop_back();
  bool admitted = false;
  for (int attempt = 0; attempt < 100 && !admitted; ++attempt) {
    auto response2 = Call(server.port(),
                          MakeRequest(net::MessageType::kPing, 50));
    admitted = response2.ok() && response2->ok();
    if (!admitted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(admitted) << "slot never freed after closing a connection";
  held.clear();
  Shutdown(&server);
  EXPECT_GE(Count(server, "serve.conn_refused"), 1u);
}

TEST(ServeTest, StatsCountConnectionsAndRequests) {
  net::Server server(Engine(), {});
  ASSERT_TRUE(server.Start().ok());
  for (std::uint64_t id = 0; id < 2; ++id) {
    auto response =
        Call(server.port(), MakeRequest(net::MessageType::kPing, id));
    ASSERT_TRUE(response.ok());
  }
  Shutdown(&server);
  const StageMetrics metrics = server.MetricsSnapshot();
  EXPECT_EQ(metrics.Counter("serve.conn_accepted"), 2u);
  EXPECT_EQ(metrics.Counter("serve.requests"), 2u);
  EXPECT_EQ(metrics.Counter("serve.ok"), 2u);
  EXPECT_EQ(metrics.Counter("serve.responses_sent"), 2u);
}

// --- serve_loadgen against a live server (DESIGN.md §10) ------------------

/// Runs the built serve_loadgen against `port` with `flags`, stores its exit
/// status in `*exit_code` and parses the JSON record it writes.
Result<json::JsonValue> RunLoadgen(std::uint16_t port, const std::string& flags,
                                   int* exit_code) {
  const std::string json_path = ::testing::TempDir() + "serve_loadgen_" +
                                std::to_string(port) + ".json";
  std::remove(json_path.c_str());  // the tool appends to its --json file
  const std::string command = std::string("'") + ADARTS_SERVE_LOADGEN +
                              "' --port " + std::to_string(port) + " " +
                              flags + " --json '" + json_path + "'";
  const int status = std::system(command.c_str());
  *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream in(json_path);
  std::string line;
  std::getline(in, line);
  std::remove(json_path.c_str());
  return json::ParseJson(line);
}

TEST(ServeLoadgenTest, BurstIsAnsweredAndTimedFromDueTimes) {
  net::ServeOptions options;
  options.num_workers = 2;
  // Room for the whole burst, so no request sheds however slow the build.
  options.queue_capacity = 120;
  net::Server server(Engine(), options);
  ASSERT_TRUE(server.Start().ok());
  int exit_code = -1;
  auto record = RunLoadgen(server.port(),
                           "--qps 400 --requests 120 --connections 4 "
                           "--type recommend --scrape 2",
                           &exit_code);
  Shutdown(&server);
  EXPECT_EQ(exit_code, 0);
  ASSERT_TRUE(record.ok()) << record.status();
  EXPECT_EQ(record->NumberOr("lost", -1.0), 0.0);
  EXPECT_EQ(record->NumberOr("ok", -1.0), 120.0);
  EXPECT_EQ(record->Find("retries"), nullptr);
  const json::JsonValue* metrics = record->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->Find("retries"), nullptr);
  const double p50_ms = record->NumberOr("p50_ms", -1.0);
  EXPECT_GT(p50_ms, 0.0);
  EXPECT_LE(p50_ms, record->NumberOr("p99_ms", -1.0));
  const json::JsonValue* scrape = record->Find("scrape");
  ASSERT_NE(scrape, nullptr);
  EXPECT_EQ(scrape->NumberOr("requested", -1.0), 2.0);
  EXPECT_EQ(scrape->NumberOr("answered", -1.0), 2.0);
}

TEST(ServeLoadgenTest, OverloadShedsAndTimesOnlyServedRequests) {
  net::ServeOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  // Every admitted request waits here, so every OK reply takes >= 3 ms.
  options.worker_hook_for_test = [](const net::Request&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  };
  net::Server server(Engine(), options);
  ASSERT_TRUE(server.Start().ok());
  int exit_code = -1;
  auto record = RunLoadgen(server.port(),
                           "--qps 2000 --requests 200 --connections 4",
                           &exit_code);
  Shutdown(&server);
  EXPECT_EQ(exit_code, 0);
  ASSERT_TRUE(record.ok()) << record.status();
  const double ok = record->NumberOr("ok", -1.0);
  const double shed = record->NumberOr("shed", -1.0);
  const double errors = record->NumberOr("errors", -1.0);
  EXPECT_GT(shed, 0.0);
  EXPECT_EQ(ok + shed + errors, 200.0);
  EXPECT_EQ(record->NumberOr("lost", -1.0), 0.0);
  // Shed replies return in microseconds; counting them would pull the p50
  // under the hook's 3 ms.
  EXPECT_GE(record->NumberOr("p50_ms", -1.0), 3.0);
}

}  // namespace
}  // namespace adarts
