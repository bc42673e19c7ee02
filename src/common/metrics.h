#ifndef ADARTS_COMMON_METRICS_H_
#define ADARTS_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/histogram.h"
#include "common/stopwatch.h"

namespace adarts {

/// One monotonic counter of a `Metrics` registry. The pointer returned by
/// `Metrics::counter()` is stable for the registry's lifetime, so hot loops
/// look the counter up once and then increment lock-free.
class MetricCounter {
 public:
  void Increment(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time snapshot of a `Metrics` registry: plain maps, safe to copy,
/// store in reports (`Adarts::TrainReport`, `Recommendation`) and serialize.
/// Keys follow the `<stage>.<name>` scheme of DESIGN.md §8 — counters are
/// bare (`race.pipelines_eliminated`), wall-clock spans end in `_seconds`
/// (`train.clustering_seconds`).
struct StageMetrics {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> spans_seconds;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && spans_seconds.empty() && histograms.empty();
  }

  /// Value of one counter; 0 when absent.
  std::uint64_t Counter(const std::string& name) const;

  /// Accumulated seconds of one span; 0.0 when absent.
  double SpanSeconds(const std::string& name) const;

  /// Snapshot of one latency histogram; empty snapshot when absent.
  HistogramSnapshot Histogram(const std::string& name) const;

  /// `{"counters":{...},"spans_seconds":{...},"histograms":{...}}` with
  /// keys in sorted order (the bench `--json` record format). Histogram
  /// entries carry count/sum/max and p50/p90/p99 in nanoseconds.
  std::string ToJson() const;

  /// One `name=value` line per metric, sorted — the human-readable dump the
  /// fault_sweep driver prints per run.
  std::string ToString() const;
};

/// A lightweight metrics registry: named monotonic counters plus named
/// wall-clock spans. Registration and span recording take a mutex (cold
/// paths: once per counter name, once per stage); counter increments through
/// the returned `MetricCounter*` are relaxed atomics — lock-free on the hot
/// path. Metric values never feed back into any computation, so recording
/// them cannot perturb the engine's bit-determinism contract.
class Metrics {
 public:
  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// The counter registered under `name`, created on first use. The pointer
  /// stays valid for the registry's lifetime.
  MetricCounter* counter(std::string_view name);

  /// The latency histogram registered under `name`, created on first use.
  /// Same contract as `counter()`: look it up once outside the hot loop,
  /// then `Record` lock-free from any thread. Names follow the
  /// `<stage>.<name>` scheme (`race.eval`, `label.impute`,
  /// `recommend.latency`).
  LatencyHistogram* histogram(std::string_view name);

  /// Convenience for cold paths: look up and increment in one call.
  void Increment(std::string_view name, std::uint64_t delta = 1) {
    counter(name)->Increment(delta);
  }

  /// Adds `seconds` to the span registered under `name` (stage spans of one
  /// registry accumulate across repeated runs of the same stage).
  void RecordSpanSeconds(std::string_view name, double seconds);

  /// Copies every counter and span into a `StageMetrics` snapshot.
  StageMetrics Snapshot() const;

  /// Accumulates this registry into `dst`: counter values (zeros included)
  /// and span seconds add, histograms merge bucket-wise
  /// (`LatencyHistogram::MergeFrom`, so percentiles of the union are exact,
  /// not an average of percentiles).
  /// The serving daemon uses this to fold per-worker `ExecContext` metrics
  /// into one exported registry — both at shutdown and on every live
  /// `/metrics` / `kStats` scrape (DESIGN.md §14). Safe against recorders
  /// that are still writing: counter and histogram reads are relaxed
  /// atomics, so a live fold observes a consistent monotone prefix of the
  /// traffic (successive scrapes never see a count regress); quiesce
  /// recorders first only when a bit-exact fold matters (the engine's
  /// determinism tests do). `dst` must not be `this`.
  void MergeInto(Metrics* dst) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<MetricCounter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_;
  std::map<std::string, double, std::less<>> spans_;
};

/// RAII stage span: starts a stopwatch on construction and records the
/// elapsed seconds under `name` when stopped (or destroyed). A null
/// `metrics` makes the timer a no-op, so call sites need no branching.
class StageTimer {
 public:
  StageTimer(Metrics* metrics, std::string name)
      : metrics_(metrics), name_(std::move(name)) {}
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer() { Stop(); }

  /// Records the span now; idempotent (the destructor becomes a no-op).
  void Stop() {
    if (metrics_ == nullptr) return;
    metrics_->RecordSpanSeconds(name_, watch_.ElapsedSeconds());
    metrics_ = nullptr;
  }

 private:
  Metrics* metrics_;
  std::string name_;
  Stopwatch watch_;
};

}  // namespace adarts

#endif  // ADARTS_COMMON_METRICS_H_
