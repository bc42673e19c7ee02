#include "client.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

extern char** environ;

namespace adarts::e2e {

namespace {

double NsToMs(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Starts `args` (program first) with its stdout on `out_fd` and its
/// stderr on `err_fd` (-1 keeps this process's). The child receives SIGTERM
/// if this process dies first, so no child outlives the benchmark. Callers
/// open their descriptors with O_CLOEXEC; exec closes them in the child.
Result<pid_t> Spawn(const std::vector<std::string>& args, int out_fd,
                    int err_fd) {
  std::vector<std::string> copy = args;
  std::vector<char*> argv;
  for (std::string& a : copy) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) return Status::Internal("fork failed: " + std::string(std::strerror(errno)));
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    if ((out_fd >= 0 && ::dup2(out_fd, STDOUT_FILENO) < 0) ||
        (err_fd >= 0 && ::dup2(err_fd, STDERR_FILENO) < 0) ||
        ::prctl(PR_SET_PDEATHSIG, SIGTERM) != 0 || ::getppid() != parent) {
      ::_exit(127);
    }
    ::execve(argv[0], argv.data(), environ);
    ::_exit(127);
  }
  return pid;
}

/// Blocks until `pid` exits; its exit code, or -1 when it did not exit
/// normally.
int Reap(pid_t pid) {
  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
}

/// waitpid with a deadline; true once the child was reaped.
bool WaitFor(pid_t pid, double seconds, int* wstatus) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (;;) {
    const pid_t r = ::waitpid(pid, wstatus, WNOHANG);
    if (r == pid || (r < 0 && errno != EINTR)) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

Result<std::unique_ptr<Daemon>> Daemon::Start(const Options& options) {
  static int instance = 0;
  const std::string tag = std::to_string(++instance);
  const std::string port_file = options.workdir + "/port." + tag;
  const std::string log_file = options.workdir + "/daemon." + tag + ".log";
  std::remove(port_file.c_str());

  const int log = ::open(log_file.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log < 0) return Status::Internal("cannot open " + log_file);
  Result<pid_t> spawned =
      Spawn({options.binary, "--model", options.snapshot, "--port", "0",
             "--port-file", port_file, "--workers",
             std::to_string(options.workers), "--queue",
             std::to_string(options.queue)},
            log, log);
  ::close(log);
  ADARTS_ASSIGN_OR_RETURN(const pid_t pid, spawned);
  // From here on the handle owns the child, so every error path reaps it.
  std::unique_ptr<Daemon> daemon(new Daemon(pid, 0));
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  while (Clock::now() < deadline) {
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, WNOHANG) == pid) {
      daemon->pid_ = -1;
      return Status::Internal("adarts_serve exited during start-up; see " +
                              log_file);
    }
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0 && port < 65536) {
      daemon->port_ = static_cast<std::uint16_t>(port);
      return daemon;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::DeadlineExceeded("adarts_serve did not start within 60 s");
}

Daemon::~Daemon() { (void)Stop(); }

Result<double> Daemon::PeakRssMb() const {
  return e2e::PeakRssMb(std::to_string(pid_));
}

Result<double> PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      if (fields >> kb) return kb / 1024.0;
    }
  }
  return Status::NotFound("no VmHWM for process " + pid);
}

Status Daemon::Stop() {
  if (pid_ <= 0) return Status::OK();
  const pid_t pid = pid_;
  pid_ = -1;
  ::kill(pid, SIGTERM);
  int wstatus = 0;
  if (!WaitFor(pid, 30.0, &wstatus)) {
    ::kill(pid, SIGKILL);
    WaitFor(pid, 30.0, &wstatus);
    return Status::Internal("adarts_serve did not drain within 30 s");
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("adarts_serve did not exit cleanly after SIGTERM");
  }
  return Status::OK();
}

Result<ControlConnection> ControlConnection::Connect(std::uint16_t port) {
  ADARTS_ASSIGN_OR_RETURN(net::Socket sock, net::ConnectTcp("127.0.0.1", port));
  ADARTS_RETURN_NOT_OK(sock.SetReceiveTimeout(60.0));
  return ControlConnection(std::move(sock));
}

Result<net::Response> ControlConnection::Call(net::Request request) {
  request.id = next_id_++;
  ADARTS_RETURN_NOT_OK(net::WriteFrame(sock_, net::EncodeRequest(request)));
  ADARTS_ASSIGN_OR_RETURN(std::string frame, net::ReadFrame(sock_));
  ADARTS_ASSIGN_OR_RETURN(net::Response response, net::DecodeResponse(frame));
  if (response.id != request.id || response.type != request.type) {
    return Status::Internal("control reply does not match its request");
  }
  return response;
}

Result<LoadClient> LoadClient::Connect(std::uint16_t port,
                                       std::size_t connections) {
  std::vector<net::Socket> socks;
  for (std::size_t c = 0; c < connections; ++c) {
    ADARTS_ASSIGN_OR_RETURN(net::Socket sock,
                            net::ConnectTcp("127.0.0.1", port));
    ADARTS_RETURN_NOT_OK(sock.SetReceiveTimeout(10.0));
    socks.push_back(std::move(sock));
  }
  return LoadClient(std::move(socks));
}

namespace {

/// Per-phase bookkeeping shared by the sending and receiving threads.
/// sent_ns[i] is stored before request i hits the wire and read after its
/// reply arrived, so each slot has one writer and a happens-after reader;
/// done_ns[i] and replies[i] are written only by the reader of request i's
/// connection (request i travels on connection i mod connections) and read
/// after the join.
struct PhaseState {
  PhaseState(std::size_t n, std::size_t conns)
      : conns(conns), sent_ns(n), done_ns(n, 0), replies(n),
        readers_left(conns) {}

  std::int64_t SinceStartNs() const {
    return static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  }

  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(failure_mu);
    if (!failed.exchange(true)) failure = why;
  }

  Status Send(net::Socket& sock, std::size_t index, const std::string& body) {
    sent_ns[index].store(SinceStartNs(), std::memory_order_release);
    return net::WriteFrame(sock, body);
  }

  /// Reads every reply due on connection `c` (see `ReceiveAll`), then
  /// marks this reader finished.
  void Receive(net::Socket& sock, std::size_t c, std::uint64_t first_id,
               const std::function<Status(std::size_t)>& after) {
    ReceiveAll(sock, c, first_id, after);
    if (readers_left.fetch_sub(1) == 1) done.store(true);
  }

  /// Matches each reply on connection `c` by its echoed id; `after(index)`
  /// runs after each reply (the closed loop's next send).
  void ReceiveAll(net::Socket& sock, std::size_t c, std::uint64_t first_id,
                  const std::function<Status(std::size_t)>& after) {
    const std::size_t n = replies.size();
    const std::size_t expected = n / conns + (c < n % conns ? 1 : 0);
    for (std::size_t k = 0; k < expected; ++k) {
      Result<std::string> frame = net::ReadFrame(sock);
      const std::int64_t now = SinceStartNs();
      if (!frame.ok()) return Fail("reply lost: " + frame.status().ToString());
      Result<net::Response> response = net::DecodeResponse(*frame);
      if (!response.ok()) {
        return Fail("undecodable reply: " + response.status().ToString());
      }
      const std::uint64_t index = response->id - first_id;
      if (response->id < first_id || index >= n || index % conns != c ||
          replies[index].answered) {
        return Fail("reply with unexpected id " +
                    std::to_string(response->id));
      }
      done_ns[index] = now;
      Reply& reply = replies[index];
      reply.answered = true;
      reply.code = response->code;
      reply.engine_version = response->engine_version;
      if (!response->algorithms.empty()) {
        reply.algorithm = response->algorithms.front();
      }
      Status next = after(index);
      if (!next.ok()) return Fail("send failed: " + next.ToString());
    }
  }

  /// The phase's result; `due_ns(i)` is request i's due time (its send
  /// time in a closed loop).
  Result<PhaseResult> Finish(
      const std::function<std::int64_t(std::size_t)>& due_ns) {
    if (failed.load()) return Status::Internal(failure);
    PhaseResult result;
    std::int64_t last_done = 0;
    for (std::size_t i = 0; i < replies.size(); ++i) {
      const std::int64_t sent = sent_ns[i].load(std::memory_order_acquire);
      result.late_ms.push_back(NsToMs(sent - due_ns(i)));
      result.latency_ms.push_back(NsToMs(done_ns[i] - due_ns(i)));
      result.send_latency_ms.push_back(NsToMs(done_ns[i] - sent));
      result.answered += replies[i].answered ? 1 : 0;
      last_done = std::max(last_done, done_ns[i]);
    }
    result.elapsed_s = static_cast<double>(last_done) / 1e9;
    result.replies = std::move(replies);
    return result;
  }

  const std::size_t conns;
  Clock::time_point start;
  std::vector<std::atomic<std::int64_t>> sent_ns;
  std::vector<std::int64_t> done_ns;
  std::vector<Reply> replies;
  std::atomic<bool> failed{false};
  std::mutex failure_mu;
  std::string failure;
  std::atomic<std::size_t> readers_left;
  /// Set once every reader finished.
  std::atomic<bool> done{false};
};

}  // namespace

Result<PhaseResult> LoadClient::RunOpenLoop(
    const std::vector<std::string>& bodies, std::uint64_t first_id,
    double rate_rps, const During& during) {
  const std::size_t n = bodies.size();
  PhaseState state(n, socks_.size());
  // Start slightly in the future so the first requests are not late by the
  // thread start-up itself.
  state.start = Clock::now() + std::chrono::milliseconds(20);
  const auto due_ns = [rate_rps](std::size_t i) {
    return static_cast<std::int64_t>(static_cast<double>(i) / rate_rps * 1e9);
  };
  std::thread writer([&] {
    for (std::size_t i = 0; i < n && !state.failed.load(); ++i) {
      std::this_thread::sleep_until(state.start +
                                    std::chrono::nanoseconds(due_ns(i)));
      Status sent = state.Send(socks_[i % state.conns], i, bodies[i]);
      if (!sent.ok()) return state.Fail("send failed: " + sent.ToString());
    }
  });
  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < state.conns; ++c) {
    readers.emplace_back([&, c] {
      state.Receive(socks_[c], c, first_id,
                    [](std::size_t) { return Status::OK(); });
    });
  }
  if (during) during(state.start, state.done);
  writer.join();
  for (std::thread& t : readers) t.join();
  return state.Finish(due_ns);
}

Result<PhaseResult> LoadClient::RunClosedLoop(
    const std::vector<std::string>& bodies, std::uint64_t first_id,
    std::size_t in_flight, const During& during) {
  const std::size_t n = bodies.size();
  const std::size_t conns = socks_.size();
  PhaseState state(n, conns);
  state.start = Clock::now();
  // The first `in_flight` requests of every connection go out at once; each
  // reply then releases that connection's next request.
  for (std::size_t i = 0; i < std::min(n, in_flight * conns); ++i) {
    ADARTS_RETURN_NOT_OK(state.Send(socks_[i % conns], i, bodies[i]));
  }
  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < conns; ++c) {
    readers.emplace_back([&, c] {
      std::size_t next = c + in_flight * conns;
      state.Receive(socks_[c], c, first_id, [&](std::size_t) {
        if (next >= n) return Status::OK();
        const std::size_t i = next;
        next += conns;
        return state.Send(socks_[c], i, bodies[i]);
      });
    });
  }
  if (during) during(state.start, state.done);
  for (std::thread& t : readers) t.join();
  return state.Finish([&state](std::size_t i) {
    return state.sent_ns[i].load(std::memory_order_acquire);
  });
}

Status RunToCompletion(const std::vector<std::string>& args) {
  Result<pid_t> pid = Spawn(args, STDERR_FILENO, -1);
  ADARTS_RETURN_NOT_OK(pid.status());
  const int code = Reap(*pid);
  if (code != 0) {
    return Status::Internal(args.front() + " exited with code " +
                            std::to_string(code));
  }
  return Status::OK();
}

Result<std::string> RunAndCapture(const std::vector<std::string>& args,
                                  int* exit_code) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return Status::Internal("pipe failed");
  Result<pid_t> pid = Spawn(args, fds[1], -1);
  ::close(fds[1]);
  if (!pid.ok()) {
    ::close(fds[0]);
    return pid.status();
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  *exit_code = Reap(*pid);
  return out;
}

}  // namespace adarts::e2e
