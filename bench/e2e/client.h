#ifndef ADARTS_BENCH_E2E_CLIENT_H_
#define ADARTS_BENCH_E2E_CLIENT_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace adarts::e2e {

using Clock = std::chrono::steady_clock;

/// A running `adarts_serve` child process, driven from outside over the
/// wire protocol exactly as a client would. Its stdout and stderr go to a
/// log file, so the benchmark's own stdout stays machine-readable.
class Daemon {
 public:
  struct Options {
    std::string binary;
    std::string snapshot;
    std::string workdir;  ///< port file and log land here
    int workers = 2;
    int queue = 64;
  };

  /// Spawns the daemon and waits until it has written its port file.
  static Result<std::unique_ptr<Daemon>> Start(const Options& options);

  /// Stops the daemon if it still runs (see `Stop`).
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }

  /// The daemon's peak resident set, in MiB (see `PeakRssMb`).
  Result<double> PeakRssMb() const;

  /// SIGTERM, then waits for the drain; an error unless the daemon exits
  /// with code 0. Escalates to SIGKILL after 30 s. Idempotent.
  Status Stop();

 private:
  Daemon(pid_t pid, std::uint16_t port) : pid_(pid), port_(port) {}

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// A synchronous request/reply connection for control traffic: ping,
/// kStats scrapes and kReload.
class ControlConnection {
 public:
  static Result<ControlConnection> Connect(std::uint16_t port);

  /// Sends `request` (its id is assigned here) and waits for the reply.
  Result<net::Response> Call(net::Request request);

 private:
  explicit ControlConnection(net::Socket sock) : sock_(std::move(sock)) {}

  net::Socket sock_;
  std::uint64_t next_id_ = 1;
};

/// One reply of a load phase, indexed by send order.
struct Reply {
  bool answered = false;
  StatusCode code = StatusCode::kOk;
  std::string algorithm;
  std::uint64_t engine_version = 0;
};

/// Outcome of one load phase; index i is the i-th request.
struct PhaseResult {
  /// Completion minus the request's due time: includes any wait a stalled
  /// generator imposed on later requests. (A closed loop's requests are due
  /// when they are sent.)
  std::vector<double> latency_ms;
  /// Completion minus the actual send.
  std::vector<double> send_latency_ms;
  /// How late the generator sent each request (send minus due).
  std::vector<double> late_ms;
  std::vector<Reply> replies;
  std::size_t answered = 0;
  /// Phase start to the last reply.
  double elapsed_s = 0.0;
};

/// Load generator over a few connections (request i travels on connection
/// i mod connections; replies are matched by their echoed id). One thread
/// per connection reads replies; the open loop adds one paced writer
/// thread, and the calling thread stays free for control traffic.
class LoadClient {
 public:
  /// Runs on the calling thread while a phase is in flight; receives the
  /// phase start and a flag set once every reply has arrived.
  using During =
      std::function<void(Clock::time_point, const std::atomic<bool>& done)>;

  static Result<LoadClient> Connect(std::uint16_t port,
                                    std::size_t connections);

  /// Open loop: request i is due at start + i / rate regardless of when
  /// replies come back, so a slow server builds a queue instead of
  /// throttling the client. `bodies[i]` must carry id `first_id + i`.
  /// Waits for every reply (or a 10 s silence).
  Result<PhaseResult> RunOpenLoop(const std::vector<std::string>& bodies,
                                  std::uint64_t first_id, double rate_rps,
                                  const During& during = nullptr);

  /// Closed loop: every connection keeps `in_flight` requests outstanding,
  /// sending its next request as soon as a reply arrives.
  Result<PhaseResult> RunClosedLoop(const std::vector<std::string>& bodies,
                                    std::uint64_t first_id,
                                    std::size_t in_flight,
                                    const During& during = nullptr);

 private:
  explicit LoadClient(std::vector<net::Socket> socks)
      : socks_(std::move(socks)) {}

  std::vector<net::Socket> socks_;
};

/// Peak resident set (`VmHWM`) of process `pid` ("self" for this one), in
/// MiB. Unlike `ru_maxrss`, it starts afresh at exec, so the image of a
/// parent that forked this process is not counted.
Result<double> PeakRssMb(const std::string& pid);

/// Runs `args` (program first) with its stdout sent to this process's
/// stderr, waits for it, and fails unless it exits with code 0.
Status RunToCompletion(const std::vector<std::string>& args);

/// Runs `args`, waits for it, and returns everything it wrote to stdout;
/// `*exit_code` receives its exit code (-1 when it did not exit normally).
Result<std::string> RunAndCapture(const std::vector<std::string>& args,
                                  int* exit_code);

}  // namespace adarts::e2e

#endif  // ADARTS_BENCH_E2E_CLIENT_H_
