#ifndef ADARTS_COMMON_EXEC_CONTEXT_H_
#define ADARTS_COMMON_EXEC_CONTEXT_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/cancellation.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace adarts {

/// The execution spine of the engine (DESIGN.md §8): one object carrying
/// everything a run needs besides its inputs —
///
///   * the shared `ThreadPool`, lazily constructed on first parallel use and
///     never per stage: a whole `Adarts::Train` run builds exactly one pool
///     and hands it to clustering, labeling, feature extraction, ModelRace
///     and the committee refits;
///   * the cooperative `CancellationToken` (not owned; optional), polled by
///     every long phase and inside the cancel-aware parallel loops;
///   * the `Metrics` registry the stages record counters and wall-clock
///     spans into (`train.clustering_seconds`, `race.pipelines_eliminated`,
///     `recommend.degraded`, ...);
///   * the deterministic RNG fork policy (`ForkRngs`): per-task child
///     generators are forked up front in index order on the calling thread,
///     which is what keeps every parallel stage bit-identical across thread
///     counts.
///
/// A context is cheap to create, not copyable (it owns the pool), and safe
/// to share across the stages of one run or across many runs — metrics
/// accumulate, the pool is reused.
///
/// The API has one signature per operation under one rule: a call takes an
/// `ExecContext&` exactly when it runs work on a thread pool, polls a
/// cancellation token or records metrics (`Adarts::Train`, `Recommend`,
/// `RecommendBatch`, `RunModelRace`, ...). Pure per-series reads
/// (`Adarts::RecommendEx`, `ExtractFeatures`, `PredictProba`) take none.
/// Options structs carry no thread count or token: a caller that wants a
/// serial run passes `ExecContext(1)`, one with a deadline passes the token
/// here.
class ExecContext {
 public:
  /// A context with `num_threads` workers (0 = hardware concurrency, 1 =
  /// serial) and an optional cancellation/deadline token (not owned; must
  /// outlive the context's users, nullptr disables cancellation). A context
  /// never starts or ends a trace session: its stages record into whatever
  /// session a `ScopedTrace` started, so any number of contexts, in
  /// sequence or nested, land in one exported timeline.
  explicit ExecContext(std::size_t num_threads = 0,
                       const CancellationToken* cancel = nullptr)
      : num_threads_(num_threads), cancel_(cancel) {}

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// The configured worker count (unresolved: 0 means hardware concurrency).
  std::size_t num_threads() const { return num_threads_; }

  /// The shared pool, constructed on first call — exactly one per context,
  /// regardless of how many stages ask for it. Thread-safe.
  ThreadPool& pool();

  /// True once `pool()` has constructed the pool (observability for the
  /// one-pool-per-run contract tests).
  bool pool_created() const;

  const CancellationToken* cancel() const { return cancel_; }

  /// Swaps the cancellation token (e.g. to scope a deadline to one phase).
  /// Not thread-safe against concurrent readers; set it between stages.
  void set_cancel(const CancellationToken* cancel) { cancel_ = cancel; }

  /// OK while work may continue; the token's `kCancelled` /
  /// `kDeadlineExceeded` Status (mentioning `what`) once it should stop.
  /// Always OK without a token.
  Status CheckCancelled(std::string_view what) const {
    return cancel_ == nullptr ? Status::OK() : cancel_->Check(what);
  }

  /// True when the token is cancelled or past its deadline.
  bool cancelled() const { return cancel_ != nullptr && cancel_->expired(); }

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

  /// The deterministic fork policy (PR 1's contract): `count` child
  /// generators forked from `parent` serially on the calling thread, child
  /// `i` coming from the i-th `Fork()` call — so the per-index streams are
  /// identical no matter how many workers later consume them.
  static std::vector<Rng> ForkRngs(Rng* parent, std::size_t count);

 private:
  std::size_t num_threads_ = 0;
  const CancellationToken* cancel_ = nullptr;
  Metrics metrics_;
  mutable std::mutex pool_mu_;
  std::unique_ptr<ThreadPool> pool_;
};

/// `ParallelFor` on the context's spine: runs `fn(0) .. fn(n-1)` on the
/// context's shared pool, honouring the context's cancellation token with
/// the skip-but-count barrier semantics of the cancel-aware overload (the
/// caller MUST re-check the token afterwards before publishing results).
/// Serial contexts (and `n <= 1`) run inline without ever constructing the
/// pool. Same determinism contract as `ParallelFor(ThreadPool*, ...)`.
void ParallelFor(ExecContext& ctx, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

}  // namespace adarts

#endif  // ADARTS_COMMON_EXEC_CONTEXT_H_
