#ifndef ADARTS_TESTS_SERVE_UTIL_H_
#define ADARTS_TESTS_SERVE_UTIL_H_

// Fixtures of the suites that drive a live `net::Server`: one shared
// engine and a bounded request round trip. The series they send come from
// `MakeFaulty` in tests/test_util.h.

#include <cstdint>

#include <gtest/gtest.h>

#include "adarts/adarts.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "tests/test_util.h"

namespace adarts::testing {

/// One engine for the whole binary — training dominates the suite's runtime
/// and every test only needs a read-only engine (which is the serving
/// contract anyway: the daemon never mutates it).
inline const Adarts& Engine() {
  static const Adarts* engine = [] {
    ExecContext ctx;
    auto trained = Adarts::Train(
        SmallCorpus({data::Category::kClimate, data::Category::kMotion}),
        FastOptions(), ctx);
    EXPECT_TRUE(trained.ok()) << trained.status();
    return new Adarts(std::move(trained).value());
  }();
  return *engine;
}

/// Connects, sends one request and reads its reply. The receive timeout
/// turns a lost reply into a failed test instead of a hung binary.
inline Result<net::Response> Call(std::uint16_t port,
                                  const net::Request& request) {
  ADARTS_ASSIGN_OR_RETURN(net::Socket sock,
                          net::ConnectTcp("127.0.0.1", port));
  ADARTS_RETURN_NOT_OK(sock.SetReceiveTimeout(30.0));
  return net::Call(sock, request);
}

}  // namespace adarts::testing

#endif  // ADARTS_TESTS_SERVE_UTIL_H_
