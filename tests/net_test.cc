// Unit tests of the serving substrate (DESIGN.md §10): the bounded
// admission queue, the process shutdown latch, the length-prefixed wire
// codec (including hostile-frame rejection), and the EINTR-safe socket
// primitives.

#include <poll.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bounded_queue.h"
#include "common/shutdown.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "ts/time_series.h"

namespace adarts {
namespace {

// --- BoundedQueue --------------------------------------------------------

TEST(NetTest, BoundedQueuePopsInFifoOrder) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_TRUE(queue.TryPush(3));
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 3);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(NetTest, BoundedQueueShedsAtCapacity) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full: caller sheds
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_TRUE(queue.TryPush(3));  // space again
}

TEST(NetTest, BoundedQueueZeroCapacityShedsEverything) {
  BoundedQueue<int> queue(0);
  EXPECT_FALSE(queue.TryPush(1));
}

TEST(NetTest, BoundedQueueCloseDrainsThenStops) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(3));  // closed: no new admissions
  // Items admitted before Close stay poppable — the no-lost-in-flight rule.
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.Pop(&out));  // closed and drained
}

TEST(NetTest, BoundedQueueCloseWakesBlockedConsumer) {
  BoundedQueue<int> queue(4);
  std::thread consumer([&queue] {
    int out = 0;
    EXPECT_FALSE(queue.Pop(&out));  // wakes on Close with nothing queued
  });
  queue.Close();
  consumer.join();
}

// --- shutdown latch ------------------------------------------------------

TEST(NetTest, ShutdownLatchTripsAndWakesThePipe) {
  ASSERT_TRUE(InstallShutdownHandler().ok());
  ResetShutdownLatchForTest();
  EXPECT_FALSE(ShutdownRequested());
  ASSERT_GE(ShutdownWakeFd(), 0);

  RequestShutdown();
  EXPECT_TRUE(ShutdownRequested());
  pollfd pfd;
  pfd.fd = ShutdownWakeFd();
  pfd.events = POLLIN;
  pfd.revents = 0;
  EXPECT_EQ(::poll(&pfd, 1, 1000), 1);  // readable: a poller wakes
  EXPECT_NE(pfd.revents & POLLIN, 0);

  ResetShutdownLatchForTest();
  EXPECT_FALSE(ShutdownRequested());
}

// --- protocol codec ------------------------------------------------------

ts::TimeSeries MakeSeries(std::size_t length, const std::string& name) {
  la::Vector values(length);
  std::vector<bool> missing(length, false);
  for (std::size_t i = 0; i < length; ++i) {
    values[i] = 0.25 * static_cast<double>(i) - 1.0;
  }
  missing[length / 2] = true;
  values[length / 2] = 123.0;  // placeholder under the mask; must not leak
  ts::TimeSeries series(std::move(values), std::move(missing));
  series.set_name(name);
  return series;
}

TEST(NetTest, RequestRoundTripsEveryType) {
  for (net::MessageType type :
       {net::MessageType::kPing, net::MessageType::kRecommend,
        net::MessageType::kRecommendBatch, net::MessageType::kRepair}) {
    net::Request request;
    request.type = type;
    request.id = 0xDEADBEEFCAFEF00DULL;
    request.deadline_ms = 12.5;
    if (type == net::MessageType::kRecommendBatch) {
      request.series.push_back(MakeSeries(8, "a"));
      request.series.push_back(MakeSeries(5, "b"));
    } else if (type != net::MessageType::kPing) {
      request.series.push_back(MakeSeries(8, "one"));
    }

    auto decoded = net::DecodeRequest(net::EncodeRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->type, request.type);
    EXPECT_EQ(decoded->id, request.id);
    EXPECT_EQ(decoded->deadline_ms, request.deadline_ms);
    ASSERT_EQ(decoded->series.size(), request.series.size());
    for (std::size_t s = 0; s < request.series.size(); ++s) {
      const ts::TimeSeries& in = request.series[s];
      const ts::TimeSeries& out = decoded->series[s];
      EXPECT_EQ(out.name(), in.name());
      ASSERT_EQ(out.length(), in.length());
      for (std::size_t i = 0; i < in.length(); ++i) {
        EXPECT_EQ(out.IsMissing(i), in.IsMissing(i));
        if (!in.IsMissing(i)) {
          EXPECT_EQ(out.value(i), in.value(i));
        }
      }
    }
  }
}

TEST(NetTest, MissingPositionsTravelAsNaNNotPlaceholder) {
  net::Request request;
  request.type = net::MessageType::kRepair;
  request.series.push_back(MakeSeries(8, "s"));
  auto decoded = net::DecodeRequest(net::EncodeRequest(request));
  ASSERT_TRUE(decoded.ok());
  // The 123.0 stored under the mask must not survive the wire: a masked
  // position decodes as missing with a neutral 0.0 payload.
  EXPECT_TRUE(decoded->series[0].IsMissing(4));
  EXPECT_EQ(decoded->series[0].value(4), 0.0);
}

TEST(NetTest, ResponseRoundTrips) {
  net::Response response;
  response.type = net::MessageType::kRecommendBatch;
  response.id = 42;
  response.code = StatusCode::kOk;
  response.algorithms = {"cdrec", "linear_interp"};
  response.series.push_back(MakeSeries(6, "repaired"));

  auto decoded = net::DecodeResponse(net::EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->type, response.type);
  EXPECT_EQ(decoded->id, response.id);
  EXPECT_TRUE(decoded->ok());
  EXPECT_EQ(decoded->algorithms, response.algorithms);
  ASSERT_EQ(decoded->series.size(), 1u);
  EXPECT_EQ(decoded->series[0].name(), "repaired");
}

TEST(NetTest, ErrorResponseCarriesCodeAndMessage) {
  net::Response response;
  response.type = net::MessageType::kRecommend;
  response.id = 7;
  response.code = StatusCode::kUnavailable;
  response.message = "admission queue full, request shed";
  auto decoded = net::DecodeResponse(net::EncodeResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kUnavailable);
  EXPECT_EQ(decoded->message, response.message);
  EXPECT_FALSE(decoded->ok());
}

TEST(NetTest, DecodeRejectsUnknownType) {
  net::Request request;
  request.type = net::MessageType::kPing;
  std::string body = net::EncodeRequest(request);
  body[0] = static_cast<char>(99);
  EXPECT_FALSE(net::DecodeRequest(body).ok());
}

TEST(NetTest, DecodeRejectsTrailingBytes) {
  net::Request request;
  request.type = net::MessageType::kPing;
  std::string body = net::EncodeRequest(request) + "x";
  EXPECT_FALSE(net::DecodeRequest(body).ok());
}

TEST(NetTest, DecodeRejectsWrongSeriesCountForType) {
  // A recommend request must carry exactly one series; hand-build one with
  // zero (ping layout with a recommend tag).
  net::Request ping;
  ping.type = net::MessageType::kPing;
  std::string body = net::EncodeRequest(ping);
  body[0] = static_cast<char>(net::MessageType::kRecommend);
  EXPECT_FALSE(net::DecodeRequest(body).ok());
}

TEST(NetTest, DecodeRejectsHostileSeriesLengthBeforeAllocating) {
  net::Request request;
  request.type = net::MessageType::kRecommend;
  request.series.push_back(MakeSeries(4, ""));
  std::string body = net::EncodeRequest(request);
  // Series length lives after type(1) + id(8) + deadline(8) + count(4) +
  // name_len(4) + empty name. Patch it to 2^63: decode must reject against
  // the bytes actually remaining, not reserve terabytes.
  const std::size_t offset = 1 + 8 + 8 + 4 + 4;
  for (int i = 0; i < 8; ++i) body[offset + i] = '\0';
  body[offset + 7] = static_cast<char>(0x80);
  auto decoded = net::DecodeRequest(body);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetTest, DecodeRejectsOutOfRangeResponseCode) {
  net::Response response;
  response.type = net::MessageType::kPing;
  std::string body = net::EncodeResponse(response);
  body[1 + 8] = static_cast<char>(200);  // after type + id
  EXPECT_FALSE(net::DecodeResponse(body).ok());
}

TEST(NetTest, RequestTruncationSweepNeverCrashes) {
  net::Request request;
  request.type = net::MessageType::kRecommendBatch;
  request.id = 3;
  request.series.push_back(MakeSeries(7, "abc"));
  request.series.push_back(MakeSeries(3, ""));
  const std::string body = net::EncodeRequest(request);
  ASSERT_TRUE(net::DecodeRequest(body).ok());
  // Every strict prefix is a corrupt frame: decode must return an error —
  // never crash, never over-read (ASan watches), never allocate from a
  // size the truncated bytes cannot back.
  for (std::size_t n = 0; n < body.size(); ++n) {
    EXPECT_FALSE(net::DecodeRequest(body.substr(0, n)).ok())
        << "prefix of " << n << " bytes decoded";
  }
}

// --- sockets -------------------------------------------------------------

struct Loopback {
  net::Socket server;
  net::Socket client;
};

Loopback MakePair() {
  std::uint16_t port = 0;
  auto listener = net::ListenTcp(0, 4, &port);
  EXPECT_TRUE(listener.ok()) << listener.status();
  auto client = net::ConnectTcp("127.0.0.1", port);
  EXPECT_TRUE(client.ok()) << client.status();
  auto server = net::AcceptConnection(*listener, -1);
  EXPECT_TRUE(server.ok()) << server.status();
  return {std::move(server).value(), std::move(client).value()};
}

TEST(NetTest, SocketRoundTripsBytes) {
  Loopback pair = MakePair();
  const char out[] = "hello";
  ASSERT_TRUE(pair.client.WriteAll(out, sizeof(out)).ok());
  char in[sizeof(out)] = {};
  ASSERT_TRUE(pair.server.ReadExact(in, sizeof(in)).ok());
  EXPECT_STREQ(in, "hello");
}

TEST(NetTest, CleanEofIsUnavailable) {
  Loopback pair = MakePair();
  pair.client.Close();
  char buf[4];
  Status status = pair.server.ReadExact(buf, sizeof(buf));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST(NetTest, MidMessageEofIsInternal) {
  Loopback pair = MakePair();
  ASSERT_TRUE(pair.client.WriteAll("ab", 2).ok());
  pair.client.Close();
  char buf[4];
  Status status = pair.server.ReadExact(buf, sizeof(buf));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(NetTest, AcceptWakesOnWakeFdWithCancelled) {
  std::uint16_t port = 0;
  auto listener = net::ListenTcp(0, 4, &port);
  ASSERT_TRUE(listener.ok());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::thread waker([&fds] {
    const char byte = 1;
    ASSERT_EQ(::write(fds[1], &byte, 1), 1);
  });
  auto accepted = net::AcceptConnection(*listener, fds[0]);
  waker.join();
  ASSERT_FALSE(accepted.ok());
  EXPECT_EQ(accepted.status().code(), StatusCode::kCancelled);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(NetTest, FrameRoundTripsAndRejectsOversizePrefix) {
  Loopback pair = MakePair();
  ASSERT_TRUE(net::WriteFrame(pair.client, "payload").ok());
  auto body = net::ReadFrame(pair.server);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(*body, "payload");

  // A hostile 0xFFFFFFFF length prefix must be rejected from the prefix
  // alone — before any body allocation or read.
  const unsigned char huge[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_TRUE(pair.client.WriteAll(huge, sizeof(huge)).ok());
  auto rejected = net::ReadFrame(pair.server, /*max_body_bytes=*/1 << 16);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

// --- client calls --------------------------------------------------------

net::Response Refusal() {
  net::Response refusal;
  refusal.code = StatusCode::kUnavailable;
  refusal.message = "connection limit reached, retry later";
  return refusal;
}

TEST(NetTest, CallReadsTheReplyBehindAFailedWrite) {
  Loopback pair = MakePair();
  // The server end acts like a server at its connection cap: it writes the
  // refusal and closes without reading.
  ASSERT_TRUE(
      net::WriteFrame(pair.server, net::EncodeResponse(Refusal())).ok());
  pair.server.Close();
  // Single raw bytes until one fails, which means the peer's reset landed.
  bool write_failed = false;
  for (int i = 0; i < 1000 && !write_failed; ++i) {
    write_failed = !pair.client.WriteAll("x", 1).ok();
    if (!write_failed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(write_failed) << "the closed peer never reset the connection";

  net::Request ping;
  ping.id = 5;
  auto response = net::Call(pair.client, ping);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, StatusCode::kUnavailable);
  EXPECT_EQ(response->message, Refusal().message);
}

TEST(NetTest, CallChecksTheEchoOnlyOnOkReplies) {
  Loopback pair = MakePair();
  net::Request ping;
  ping.id = 41;
  net::Response echo;
  echo.id = 41;
  ASSERT_TRUE(net::WriteFrame(pair.server, net::EncodeResponse(echo)).ok());
  auto matched = net::Call(pair.client, ping);
  ASSERT_TRUE(matched.ok()) << matched.status();
  EXPECT_TRUE(matched->ok());

  // An OK reply to another id is a broken exchange.
  echo.id = 42;
  ASSERT_TRUE(net::WriteFrame(pair.server, net::EncodeResponse(echo)).ok());
  auto mismatched = net::Call(pair.client, ping);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInternal);

  // A refusal written before the server knew an id comes back unchanged.
  ASSERT_TRUE(
      net::WriteFrame(pair.server, net::EncodeResponse(Refusal())).ok());
  auto refused = net::Call(pair.client, ping);
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_EQ(refused->code, StatusCode::kUnavailable);
  EXPECT_EQ(refused->id, 0u);
  EXPECT_EQ(refused->message, Refusal().message);
}

}  // namespace
}  // namespace adarts
