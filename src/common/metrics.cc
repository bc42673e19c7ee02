#include "common/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "common/json.h"

namespace adarts {

std::uint64_t StageMetrics::Counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double StageMetrics::SpanSeconds(const std::string& name) const {
  const auto it = spans_seconds.find(name);
  return it == spans_seconds.end() ? 0.0 : it->second;
}

HistogramSnapshot StageMetrics::Histogram(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? HistogramSnapshot{} : it->second;
}

std::string StageMetrics::ToJson() const {
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out << ',';
    first = false;
    out << '"' << json::Escape(name) << "\":" << value;
  }
  out << "},\"spans_seconds\":{";
  first = true;
  for (const auto& [name, seconds] : spans_seconds) {
    if (!first) out << ',';
    first = false;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", seconds);
    out << '"' << json::Escape(name) << "\":" << buf;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, snapshot] : histograms) {
    if (!first) out << ',';
    first = false;
    out << '"' << json::Escape(name)
        << "\":" << HistogramSnapshotToJson(snapshot);
  }
  out << "}}";
  return out.str();
}

std::string StageMetrics::ToString() const {
  std::ostringstream out;
  for (const auto& [name, value] : counters) {
    out << name << '=' << value << '\n';
  }
  for (const auto& [name, seconds] : spans_seconds) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", seconds);
    out << name << '=' << buf << '\n';
  }
  for (const auto& [name, snapshot] : histograms) {
    out << name << "=count:" << snapshot.count << " p50_ns:" << snapshot.p50_ns
        << " p90_ns:" << snapshot.p90_ns << " p99_ns:" << snapshot.p99_ns
        << " max_ns:" << snapshot.max_ns << '\n';
  }
  return out.str();
}

MetricCounter* Metrics::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second.get();
  auto [inserted, _] =
      counters_.emplace(std::string(name), std::make_unique<MetricCounter>());
  return inserted->second.get();
}

LatencyHistogram* Metrics::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second.get();
  auto [inserted, _] = histograms_.emplace(std::string(name),
                                           std::make_unique<LatencyHistogram>());
  return inserted->second.get();
}

void Metrics::RecordSpanSeconds(std::string_view name, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = spans_.find(name);
  if (it != spans_.end()) {
    it->second += seconds;
  } else {
    spans_.emplace(std::string(name), seconds);
  }
}

void Metrics::MergeInto(Metrics* dst) const {
  // Take no lock on dst while holding ours: gather under our lock, then
  // apply through dst's public (self-locking) API.
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> spans;
  std::vector<std::pair<std::string, const LatencyHistogram*>> histograms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, counter] : counters_) {
      counters[name] = counter->value();
    }
    spans.insert(spans_.begin(), spans_.end());
    histograms.reserve(histograms_.size());
    for (const auto& [name, histogram] : histograms_) {
      // Histogram pointers are stable for this registry's lifetime and
      // MergeFrom reads them with atomics, so sampling outside the lock
      // below is safe.
      histograms.emplace_back(name, histogram.get());
    }
  }
  // Zero counters are carried too: a registered counter is exported from
  // its registration on, not from its first event.
  for (const auto& [name, value] : counters) {
    dst->counter(name)->Increment(value);
  }
  for (const auto& [name, seconds] : spans) {
    dst->RecordSpanSeconds(name, seconds);
  }
  for (const auto& [name, histogram] : histograms) {
    dst->histogram(name)->MergeFrom(*histogram);
  }
}

StageMetrics Metrics::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  StageMetrics out;
  for (const auto& [name, counter] : counters_) {
    out.counters[name] = counter->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    out.histograms[name] = histogram->Snapshot();
  }
  out.spans_seconds.insert(spans_.begin(), spans_.end());
  return out;
}

}  // namespace adarts
