#ifndef ADARTS_BENCH_E2E_SPANS_H_
#define ADARTS_BENCH_E2E_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace adarts::e2e {

/// One benchmark-side span around a public call of one layer. Spans of one
/// request (or one set, or one training run) share `request_id`.
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;  ///< index into the recorder; -1 for a root span
  std::uint64_t request_id = 0;
};

/// Per-name totals over the recorded spans. Self time is a span's duration
/// minus the part of it covered by its direct children.
struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// In-memory span recorder for the traced replay. Single-threaded: the
/// replay calls each layer from one thread. A disabled recorder records
/// nothing, so the untraced replay pays one branch per span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (-1 when disabled).
  int Begin(std::string name, std::uint64_t request_id, int parent);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  std::map<std::string, SpanTotals> Totals() const;

  /// Sum of self time over every non-root span: the time the replay spent
  /// inside layer calls.
  double LayerSelfSeconds() const;

  /// Chrome trace-event JSON (`{"traceEvents":[...]}` of "X" events) that
  /// tools/trace_stats and chrome://tracing read.
  Status WriteChromeTrace(const std::string& path) const;

 private:
  std::uint64_t NowNs() const;
  /// Per span: the seconds covered by its direct children.
  std::vector<double> ChildSeconds() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span. `parent` is another span's index, or -1 for a root.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name,
             std::uint64_t request_id, int parent = -1)
      : recorder_(recorder),
        index_(recorder.Begin(std::move(name), request_id, parent)) {}
  ~ScopedSpan() { recorder_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanRecorder& recorder_;
  int index_;
};

}  // namespace adarts::e2e

#endif  // ADARTS_BENCH_E2E_SPANS_H_
