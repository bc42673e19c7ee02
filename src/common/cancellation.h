#ifndef ADARTS_COMMON_CANCELLATION_H_
#define ADARTS_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

namespace adarts {

/// Cooperative cancellation with an optional wall-clock deadline.
///
/// A token is a cheap copyable handle to shared state: the caller keeps one
/// copy (to `Cancel()` from another thread) and hands a pointer to the
/// `ExecContext` every engine call runs on (common/exec_context.h). Long
/// phases poll `Check()` between units of work and return the resulting
/// `kCancelled` / `kDeadlineExceeded` Status up the stack — nothing is
/// preempted, no thread is killed, and partially-computed state never
/// escapes (every caller returns the error before publishing results).
///
/// Determinism: a token with no deadline and no `Cancel()` call never
/// fires, so plumbing one through changes nothing; deadlines make control
/// flow depend on wall-clock time and are therefore off by default
/// everywhere (see DESIGN.md §7).
class CancellationToken {
 public:
  /// A token that never expires on its own (no deadline).
  CancellationToken() : state_(std::make_shared<State>()) {}

  /// A token that expires `seconds` of wall-clock time from now (in
  /// addition to explicit Cancel()). Non-positive budgets are already
  /// expired.
  static CancellationToken WithDeadline(double seconds);

  /// Requests cancellation; thread-safe and idempotent.
  void Cancel() { state_->cancelled.store(true, std::memory_order_release); }

  /// True once Cancel() has been called.
  bool cancel_requested() const {
    return state_->cancelled.load(std::memory_order_acquire);
  }

  bool has_deadline() const { return state_->has_deadline; }

  /// True when cancelled or past the deadline — work should stop.
  bool expired() const;

  /// OK while work may continue; `kCancelled` / `kDeadlineExceeded`
  /// (mentioning `what`) once it should stop.
  Status Check(std::string_view what) const;

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
  };
  std::shared_ptr<State> state_;
};

}  // namespace adarts

#endif  // ADARTS_COMMON_CANCELLATION_H_
