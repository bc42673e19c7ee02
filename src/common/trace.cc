#include "common/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/json.h"
#include "common/log.h"

namespace adarts {

namespace {

/// Per-thread tracer state: the buffer registered for the current trace
/// session (keyed by generation) and the sticky thread name. The
/// shared_ptr keeps a buffer alive for a thread that records a final event
/// while the tracer is resetting.
struct TlsState {
  std::uint64_t generation = 0;
  std::shared_ptr<void> buffer_owner;
  void* buffer = nullptr;
  std::string name;
};

TlsState& Tls() {
  static thread_local TlsState state;
  return state;
}

std::uint64_t SteadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TraceOptions TraceOptions::FromEnv() {
  TraceOptions options;
  // Read every call, never latched: a test (or a long-lived process) that
  // changes the environment between runs gets the current value.
  const char* path = std::getenv("ADARTS_TRACE");
  if (path != nullptr && *path != '\0') {
    options.enabled = true;
    options.path = path;
  }
  return options;
}

TraceOptions TraceOptions::FromFlagOrEnv(std::string path) {
  if (path.empty()) return FromEnv();
  TraceOptions options;
  options.enabled = true;
  options.path = std::move(path);
  return options;
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // never destroyed: threads may
                                         // record until process exit
  return *tracer;
}

bool Tracer::Start(const TraceOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (enabled_.load(std::memory_order_relaxed)) return false;
  capacity_per_thread_ = std::max<std::size_t>(1, options.capacity_per_thread);
  buffers_.clear();
  generation_.fetch_add(1, std::memory_order_relaxed);
  epoch_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
  return true;
}

void Tracer::Stop() { enabled_.store(false, std::memory_order_release); }

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_.store(false, std::memory_order_release);
  buffers_.clear();
  generation_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::SetCurrentThreadName(std::string name) {
  TlsState& tls = Tls();
  tls.name = std::move(name);
  if (tls.buffer != nullptr) {
    // Already registered in the active session: rename the track in place.
    Tracer& tracer = Global();
    std::lock_guard<std::mutex> lock(tracer.mu_);
    if (tls.generation == tracer.generation_.load(std::memory_order_relaxed)) {
      static_cast<ThreadBuffer*>(tls.buffer)->thread_name = tls.name;
    }
  }
}

std::uint64_t Tracer::NowNs() const {
  if (!enabled()) return 0;  // documented contract; not on the hot path —
                             // every recording caller checks enabled() first
  const std::uint64_t now = SteadyNowNs();
  const std::uint64_t epoch = epoch_ns_.load(std::memory_order_relaxed);
  return now >= epoch ? now - epoch : 0;
}

Tracer::ThreadBuffer* Tracer::CurrentBuffer() {
  TlsState& tls = Tls();
  if (tls.buffer == nullptr ||
      tls.generation != generation_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_.load(std::memory_order_relaxed)) return nullptr;
    auto buffer = std::make_shared<ThreadBuffer>(capacity_per_thread_);
    buffer->tid = static_cast<int>(buffers_.size());
    buffer->thread_name = tls.name.empty()
                              ? "thread-" + std::to_string(buffer->tid)
                              : tls.name;
    tls.buffer = buffer.get();
    tls.buffer_owner = buffer;
    tls.generation = generation_.load(std::memory_order_relaxed);
    buffers_.push_back(std::move(buffer));
  }
  return static_cast<ThreadBuffer*>(tls.buffer);
}

void Tracer::Append(Kind kind, const char* name, std::uint64_t start_ns,
                    std::uint64_t dur_ns, double value,
                    std::string_view detail) {
  ThreadBuffer* buffer = CurrentBuffer();
  if (buffer == nullptr) return;  // tracer stopped while we were en route
  // Single-writer ring with a drop-new overflow policy: a full buffer
  // counts the event instead of blocking the engine or reallocating
  // (reallocation would invalidate the exporter's lock-free reads).
  const std::size_t idx = buffer->count.load(std::memory_order_relaxed);
  if (idx >= buffer->slots.size()) {
    buffer->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Event& e = buffer->slots[idx];
  e.kind = kind;
  e.name = name;
  e.start_ns = start_ns;
  e.dur_ns = dur_ns;
  e.value = value;
  const std::size_t n = std::min(detail.size(), sizeof(e.detail) - 1);
  detail.copy(e.detail, n);
  e.detail[n] = '\0';
  // The release publish pairs with the exporter's acquire load: slot idx is
  // fully written before it becomes visible.
  buffer->count.store(idx + 1, std::memory_order_release);
}

void Tracer::RecordComplete(const char* name, std::uint64_t start_ns,
                            std::uint64_t dur_ns, std::string_view detail) {
  if (!enabled()) return;
  Append(Kind::kComplete, name, start_ns, dur_ns, 0.0, detail);
}

void Tracer::RecordInstant(const char* name, std::string_view detail) {
  if (!enabled()) return;
  Append(Kind::kInstant, name, NowNs(), 0, 0.0, detail);
}

void Tracer::RecordCounter(const char* name, double value) {
  if (!enabled()) return;
  Append(Kind::kCounter, name, NowNs(), 0, value, {});
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& buffer : buffers_) {
    total += std::min(buffer->count.load(std::memory_order_acquire),
                      buffer->slots.size());
  }
  return total;
}

std::uint64_t Tracer::dropped_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t Tracer::thread_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffers_.size();
}

std::string Tracer::ToJson() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
    for (const auto& buffer : buffers_) {
      dropped += buffer->dropped.load(std::memory_order_relaxed);
    }
  }
  std::string out = "{\"traceEvents\":[";
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"adarts\"}}";
  char buf[160];
  for (const auto& buffer : buffers) {
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                  "\"name\":\"thread_name\",\"args\":{\"name\":\"",
                  buffer->tid);
    out += buf;
    out += json::Escape(buffer->thread_name);
    out += "\"}}";
  }
  for (const auto& buffer : buffers) {
    const std::size_t n = std::min(
        buffer->count.load(std::memory_order_acquire), buffer->slots.size());
    for (std::size_t i = 0; i < n; ++i) {
      const Event& e = buffer->slots[i];
      const double ts_us = static_cast<double>(e.start_ns) / 1e3;
      switch (e.kind) {
        case Kind::kComplete:
          std::snprintf(buf, sizeof(buf),
                        ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":"
                        "\"adarts\",\"ts\":%.3f,\"dur\":%.3f,\"name\":\"",
                        buffer->tid, ts_us,
                        static_cast<double>(e.dur_ns) / 1e3);
          break;
        case Kind::kInstant:
          std::snprintf(buf, sizeof(buf),
                        ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"cat\":"
                        "\"adarts\",\"ts\":%.3f,\"s\":\"t\",\"name\":\"",
                        buffer->tid, ts_us);
          break;
        case Kind::kCounter:
          std::snprintf(buf, sizeof(buf),
                        ",\n{\"ph\":\"C\",\"pid\":1,\"tid\":%d,"
                        "\"ts\":%.3f,\"name\":\"",
                        buffer->tid, ts_us);
          break;
      }
      out += buf;
      out += json::Escape(e.name);
      out += '"';
      if (e.kind == Kind::kCounter) {
        std::snprintf(buf, sizeof(buf), ",\"args\":{\"value\":%.6f}", e.value);
        out += buf;
      } else if (e.detail[0] != '\0') {
        out += ",\"args\":{\"detail\":\"";
        out += json::Escape(e.detail);
        out += "\"}";
      }
      out += '}';
    }
  }
  std::snprintf(buf, sizeof(buf),
                "],\n\"displayTimeUnit\":\"ms\",\"otherData\":{"
                "\"dropped_events\":%llu}}\n",
                static_cast<unsigned long long>(dropped));
  out += buf;
  return out;
}

Status Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace output file: " + path);
  }
  const std::string json = ToJson();
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::Internal("short write to trace output file: " + path);
  }
  return Status::OK();
}

ScopedTrace::ScopedTrace(const TraceOptions& options) : path_(options.path) {
  if (options.enabled) {
    active_ = Tracer::Global().Start(options);
  }
}

ScopedTrace::~ScopedTrace() {
  if (!active_) return;
  Tracer& tracer = Tracer::Global();
  tracer.Stop();
  if (path_.empty()) return;
  const Status written = tracer.WriteJson(path_);
  if (!written.ok()) {
    LogWarn("trace export failed: " + written.ToString());
  } else {
    const std::uint64_t dropped = tracer.dropped_events();
    if (dropped > 0) {
      LogWarn("trace ring buffers dropped " + std::to_string(dropped) +
              " events; raise TraceOptions::capacity_per_thread");
    }
  }
}

}  // namespace adarts
