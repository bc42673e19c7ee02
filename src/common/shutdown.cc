#include "common/shutdown.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>

namespace adarts {

namespace {

std::atomic<bool> g_shutdown_requested{false};
// Self-pipe; write end is touched from signal context, so plain ints set
// once at install time (before any signal can arrive) and never changed.
int g_wake_read_fd = -1;
int g_wake_write_fd = -1;
std::atomic<bool> g_installed{false};

// Monotonic count of reload requests (SIGHUP); consumed_ trails it.
std::atomic<std::uint64_t> g_reload_requested{0};
std::atomic<std::uint64_t> g_reload_consumed{0};

void WakePipe() {
  if (g_wake_write_fd >= 0) {
    const char byte = 1;
    // The pipe is non-blocking; if it is already full the wake was
    // delivered long ago. EINTR cannot stack here (one write, no loop).
    [[maybe_unused]] ssize_t n = ::write(g_wake_write_fd, &byte, 1);
  }
}

void ShutdownSignalHandler(int /*signum*/) {
  // Only async-signal-safe operations: an atomic store and a write(2).
  g_shutdown_requested.store(true, std::memory_order_release);
  WakePipe();
}

void ReloadSignalHandler(int /*signum*/) {
  g_reload_requested.fetch_add(1, std::memory_order_acq_rel);
  WakePipe();
}

}  // namespace

Status InstallShutdownHandler() {
  if (g_installed.load(std::memory_order_acquire)) return Status::OK();
  int fds[2];
  if (::pipe(fds) != 0) {
    return Status::Internal(std::string("shutdown pipe: ") +
                            std::strerror(errno));
  }
  for (int fd : fds) {
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    ::fcntl(fd, F_SETFL, O_NONBLOCK);
  }
  g_wake_read_fd = fds[0];
  g_wake_write_fd = fds[1];

  struct sigaction action = {};
  action.sa_handler = ShutdownSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: blocked syscalls return EINTR
  for (int sig : {SIGTERM, SIGINT}) {
    if (::sigaction(sig, &action, nullptr) != 0) {
      return Status::Internal(std::string("sigaction: ") +
                              std::strerror(errno));
    }
  }
  g_installed.store(true, std::memory_order_release);
  return Status::OK();
}

bool ShutdownRequested() {
  return g_shutdown_requested.load(std::memory_order_acquire);
}

int ShutdownWakeFd() { return g_wake_read_fd; }

void RequestShutdown() { ShutdownSignalHandler(0); }

Status InstallReloadHandler() {
  if (!g_installed.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "reload handler needs InstallShutdownHandler first (shared pipe)");
  }
  struct sigaction action = {};
  action.sa_handler = ReloadSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  if (::sigaction(SIGHUP, &action, nullptr) != 0) {
    return Status::Internal(std::string("sigaction(SIGHUP): ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

bool ConsumeReloadRequest() {
  const std::uint64_t requested =
      g_reload_requested.load(std::memory_order_acquire);
  std::uint64_t consumed = g_reload_consumed.load(std::memory_order_relaxed);
  while (consumed < requested) {
    // CAS so concurrent consumers cannot double-count one signal.
    if (g_reload_consumed.compare_exchange_weak(consumed, consumed + 1,
                                                std::memory_order_acq_rel)) {
      return true;
    }
  }
  return false;
}

void ResetShutdownLatchForTest() {
  g_shutdown_requested.store(false, std::memory_order_release);
  if (g_wake_read_fd >= 0) {
    char buf[16];
    while (::read(g_wake_read_fd, buf, sizeof(buf)) > 0) {
    }
  }
}

}  // namespace adarts
