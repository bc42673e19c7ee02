#ifndef ADARTS_COMMON_TRACE_H_
#define ADARTS_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace adarts {

/// Operator knobs for the event tracer (DESIGN.md §9). Tracing is OFF by
/// default; when off, every instrumented hot path costs exactly one relaxed
/// atomic load. A session belongs to one `ScopedTrace`, which every binary
/// with a `--trace <path>` flag builds from `FromFlagOrEnv`, so those
/// binaries also honour `ADARTS_TRACE=<path>`.
struct TraceOptions {
  /// Arms the global tracer for the lifetime of the owning scope.
  bool enabled = false;
  /// Events each thread can hold. The ring never blocks or reallocates:
  /// once a thread's buffer is full, further events are dropped and counted
  /// in `Tracer::dropped_events()`.
  std::size_t capacity_per_thread = std::size_t{1} << 16;
  /// Where the Chrome trace-event JSON is written when the owning
  /// `ScopedTrace` ends. Empty: the caller exports explicitly via
  /// `Tracer::WriteJson`.
  std::string path;

  /// `ADARTS_TRACE=<path>` → `{enabled: true, path: <path>}`; unset or
  /// empty → disabled. Read per call — never latched.
  static TraceOptions FromEnv();

  /// `{enabled: true, path: <path>}` for a non-empty `--trace` value,
  /// FromEnv() otherwise.
  static TraceOptions FromFlagOrEnv(std::string path);
};

/// The process-wide event tracer behind the engine's timeline profiling
/// (DESIGN.md §9): duration spans, instant events and counter tracks,
/// recorded into fixed-capacity per-thread ring buffers and exported as
/// Chrome trace-event JSON (`{"traceEvents":[...]}`) that loads directly in
/// chrome://tracing or ui.perfetto.dev.
///
/// Concurrency model: each buffer has exactly one writer (its thread), so
/// recording takes no lock — a slot write plus a release increment of the
/// buffer's count; the exporter reads counts with acquire. Buffer
/// registration (once per thread per trace session) and export take the
/// tracer mutex. The disabled path — the default — is one relaxed atomic
/// load, verified by `TraceTest.DisabledTracerRecordsNothing`.
///
/// Event `name`s must be string literals (or otherwise outlive the trace):
/// the tracer stores the pointer. Dynamic text goes in the `detail`
/// argument, which is copied (and truncated) into the event's inline
/// buffer.
class Tracer {
 public:
  /// Bytes of dynamic detail kept per event (truncating copy).
  static constexpr std::size_t kDetailCapacity = 48;

  static Tracer& Global();

  /// True while a trace session is active — THE hot-path check.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Starts a session: clears previous buffers, re-bases the clock, arms
  /// recording. Starting an already-active tracer is a no-op returning
  /// false (the first owner keeps the session).
  bool Start(const TraceOptions& options);

  /// Disarms recording. Buffers stay readable until the next Start/Reset.
  void Stop();

  /// Drops every buffer and thread registration (test isolation).
  void Reset();

  /// Names the calling thread's track in the exported JSON (`thread_name`
  /// metadata). Sticky for the thread's lifetime, across sessions;
  /// `ThreadPool` workers call this once at spawn.
  static void SetCurrentThreadName(std::string name);

  /// Nanoseconds since the session epoch (Start); 0 when disabled.
  std::uint64_t NowNs() const;

  /// A finished `ph:"X"` complete event on the calling thread's track.
  void RecordComplete(const char* name, std::uint64_t start_ns,
                      std::uint64_t dur_ns, std::string_view detail = {});

  /// A `ph:"i"` instant event (thread scope) — degradation hops, warnings,
  /// eliminations.
  void RecordInstant(const char* name, std::string_view detail = {});

  /// A `ph:"C"` counter-track sample (e.g. `race.active`).
  void RecordCounter(const char* name, double value);

  /// Events currently recorded across every thread buffer.
  std::size_t event_count() const;

  /// Events dropped by full ring buffers since Start.
  std::uint64_t dropped_events() const;

  /// Thread buffers registered since Start (one per recording thread).
  std::size_t thread_count() const;

  /// The full trace as Chrome trace-event JSON: `thread_name` metadata per
  /// track, then every event; `otherData.dropped_events` carries the
  /// overflow count.
  std::string ToJson() const;

  /// Writes `ToJson()` to `path`.
  Status WriteJson(const std::string& path) const;

 private:
  enum class Kind : std::uint8_t { kComplete, kInstant, kCounter };

  struct Event {
    Kind kind;
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;   // kComplete only
    double value;           // kCounter only
    char detail[kDetailCapacity];
  };

  /// One thread's ring: single writer, fixed capacity, drop-new overflow.
  struct ThreadBuffer {
    explicit ThreadBuffer(std::size_t capacity) : slots(capacity) {}
    std::vector<Event> slots;
    std::atomic<std::size_t> count{0};
    std::atomic<std::uint64_t> dropped{0};
    std::string thread_name;
    int tid = 0;
  };

  Tracer() = default;
  ThreadBuffer* CurrentBuffer();
  void Append(Kind kind, const char* name, std::uint64_t start_ns,
              std::uint64_t dur_ns, double value, std::string_view detail);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{0};
  /// Session start in steady-clock nanoseconds. Atomic so recorders can
  /// read it without the mutex; their registration through `CurrentBuffer`
  /// already synchronizes with `Start`.
  std::atomic<std::uint64_t> epoch_ns_{0};
  mutable std::mutex mu_;
  std::size_t capacity_per_thread_ = std::size_t{1} << 16;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/// RAII duration span: captures the start time at construction and records
/// a complete event on destruction (or `Stop`). When the tracer is
/// disabled, construction is one relaxed atomic load and destruction a
/// branch on the cached flag. `name` must be a string literal.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, std::string_view detail = {})
      : name_(name) {
    Tracer& tracer = Tracer::Global();
    enabled_ = tracer.enabled();
    if (enabled_) {
      SetDetail(detail);
      start_ns_ = tracer.NowNs();
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() { Stop(); }

  bool enabled() const { return enabled_; }

  /// Replaces the span's detail text (e.g. a count known only at the end).
  /// No-op while disabled.
  void SetDetail(std::string_view detail) {
    if (!enabled_) return;
    const std::size_t n =
        detail.size() < sizeof(detail_) - 1 ? detail.size()
                                            : sizeof(detail_) - 1;
    detail.copy(detail_, n);
    detail_[n] = '\0';
    has_detail_ = n > 0;
  }

  /// Discards the span: nothing is recorded (e.g. a pool chunk that never
  /// claimed an index).
  void Cancel() { enabled_ = false; }

  /// Records the span now; idempotent (the destructor becomes a no-op).
  void Stop() {
    if (!enabled_) return;
    enabled_ = false;
    Tracer& tracer = Tracer::Global();
    const std::uint64_t end_ns = tracer.NowNs();
    tracer.RecordComplete(
        name_, start_ns_, end_ns >= start_ns_ ? end_ns - start_ns_ : 0,
        has_detail_ ? std::string_view(detail_) : std::string_view());
  }

 private:
  const char* name_;
  bool enabled_;
  bool has_detail_ = false;
  std::uint64_t start_ns_ = 0;
  char detail_[Tracer::kDetailCapacity]{};
};

/// RAII trace session for tools: starts the global tracer when
/// `options.enabled` (and no other owner already started it), then stops
/// and exports to `options.path` on destruction. The pattern behind every
/// `--trace <path>` flag.
class ScopedTrace {
 public:
  explicit ScopedTrace(const TraceOptions& options);
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
  ~ScopedTrace();

  /// True when this scope owns the active session.
  bool active() const { return active_; }

 private:
  bool active_ = false;
  std::string path_;
};

}  // namespace adarts

#endif  // ADARTS_COMMON_TRACE_H_
