#ifndef ADARTS_COMMON_HISTOGRAM_H_
#define ADARTS_COMMON_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace adarts {

/// Point-in-time summary of one `LatencyHistogram`: event count, exact
/// maximum, and log-bucket percentile estimates in nanoseconds. Percentile
/// values are the *bucket representatives* (the largest value the winning
/// bucket can hold), so two histograms with the same recorded multiset
/// produce bit-identical snapshots — the basis of the 1-vs-N-thread
/// determinism tests.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t max_ns = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p90_ns = 0;
  std::uint64_t p99_ns = 0;

  bool operator==(const HistogramSnapshot&) const = default;
};

/// A fixed-layout, log-bucketed latency histogram (HDR-style): values are
/// nanoseconds, buckets are powers of two subdivided into 16 linear
/// sub-buckets (values below 16 ns land in exact unit buckets). The layout
/// is a compile-time constant — no resizing, no configuration — so bucket
/// indices, merges, and percentile snapshots are bit-deterministic: the same
/// multiset of durations produces the same buckets no matter how many
/// threads recorded them or in what order.
///
/// `Record` is wait-free (two relaxed atomic adds plus a relaxed CAS-max)
/// and safe to call from any number of threads concurrently; the pointer
/// returned by `Metrics::histogram()` is stable, so hot loops hoist the
/// handle exactly like `MetricCounter`. Recorded values never feed back
/// into any computation — histograms observe the engine, they cannot
/// perturb its bit-determinism contract.
class LatencyHistogram {
 public:
  /// 16 exact unit buckets + one 16-sub-bucket tier per power of two up to
  /// 2^44 ns (~4.9 hours); larger values clamp into the top bucket.
  static constexpr int kSubBucketBits = 4;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBucketBits;
  static constexpr int kMaxExponent = 44;
  static constexpr std::size_t kNumBuckets =
      kSubBuckets +
      static_cast<std::size_t>(kMaxExponent - kSubBucketBits + 1) * kSubBuckets;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one duration in nanoseconds.
  void Record(std::uint64_t ns);

  /// Records one duration in seconds (negative durations clamp to 0).
  void RecordSeconds(double seconds);

  /// Adds every bucket, the count/sum, and the max of `other` into this
  /// histogram. Because the layout is fixed, merging per-thread histograms
  /// is bucket-wise addition and commutes — merge order cannot change the
  /// result. Safe to call while `other`'s recorders are still writing: all
  /// reads are relaxed atomics, so a live merge sees some consistent-enough
  /// prefix of the traffic (the scrape path of DESIGN.md §14) and never
  /// tears.
  void MergeFrom(const LatencyHistogram& other);

  /// Zeroes every bucket, the count/sum, and the max (relaxed stores). Used
  /// by `SlidingHistogram` to recycle an expired window bucket. Concurrent
  /// `Record`s during a reset land before or after it nondeterministically —
  /// benign for a rotating observability window, never a data race.
  void Reset();

  /// Count / exact max / p50-p90-p99 summary. Safe to call concurrently
  /// with `Record`; for a bit-exact snapshot, quiesce recorders first (the
  /// engine snapshots after joining its parallel loops).
  HistogramSnapshot Snapshot() const;

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  /// The bucket a value lands in — exposed for the layout/determinism tests.
  static std::size_t BucketIndex(std::uint64_t ns);

  /// The largest value bucket `index` can hold (the percentile
  /// representative).
  static std::uint64_t BucketUpperBound(std::size_t index);

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// `{"count":N,"sum_ns":...,"max_ns":...,"p50_ns":...,"p90_ns":...,
/// "p99_ns":...}` — the fragment `StageMetrics::ToJson` embeds per
/// histogram.
std::string HistogramSnapshotToJson(const HistogramSnapshot& snapshot);

}  // namespace adarts

#endif  // ADARTS_COMMON_HISTOGRAM_H_
