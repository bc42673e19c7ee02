#ifndef ADARTS_COMMON_SHUTDOWN_H_
#define ADARTS_COMMON_SHUTDOWN_H_

#include "common/status.h"

namespace adarts {

/// Process-wide graceful-shutdown latch (DESIGN.md §10).
///
/// `InstallShutdownHandler` registers SIGTERM/SIGINT handlers that do the
/// only two things that are async-signal-safe and useful: set an atomic
/// flag and write one byte to a self-pipe. Everything else — stopping the
/// accept loop, draining the admission queue, flushing metrics — happens in
/// normal code that either polls `ShutdownRequested()` or multiplexes
/// `ShutdownWakeFd()` into its poll set (the adarts_serve accept loop does
/// the latter, so a signal wakes a blocked accept immediately).
///
/// The latch is one-shot by design: a daemon shuts down once. Tests reset
/// it with `ResetShutdownLatchForTest`.

/// Installs the SIGTERM/SIGINT handlers and creates the wake pipe.
/// Idempotent; returns Internal when the pipe or sigaction fails.
Status InstallShutdownHandler();

/// True once a shutdown signal arrived (or `RequestShutdown` was called).
bool ShutdownRequested();

/// Read end of the self-pipe: becomes readable on the first shutdown
/// request. Poll it alongside sockets; never read it dry in more than one
/// place. -1 until `InstallShutdownHandler` succeeded.
int ShutdownWakeFd();

/// Trips the latch programmatically (tests, internal fatal paths).
/// Async-signal-safe.
void RequestShutdown();

/// Clears the flag and drains the pipe so the next test starts fresh.
void ResetShutdownLatchForTest();

/// Registers a SIGHUP handler that bumps an atomic reload counter and
/// writes to the same self-pipe, waking the daemon's poll loop. Unlike the
/// shutdown latch, reloads are repeatable: each SIGHUP is one request.
/// Requires `InstallShutdownHandler` to have run first (shares the pipe).
Status InstallReloadHandler();

/// Consumes one pending reload request: true exactly once per SIGHUP since
/// the last call. The daemon polls this after each pipe wake and runs
/// `Server::RequestReload` on true; the outcome is returned, and also lands
/// in the swap log and the server's `serve.reload.ok` / `serve.reload.failed`
/// counters.
bool ConsumeReloadRequest();

}  // namespace adarts

#endif  // ADARTS_COMMON_SHUTDOWN_H_
