#include "spans.h"

#include <cstdio>
#include <fstream>

namespace adarts::e2e {

namespace {

double Seconds(const Span& span) {
  return static_cast<double>(span.end_ns - span.start_ns) / 1e9;
}

}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

std::uint64_t SpanRecorder::NowNs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

int SpanRecorder::Begin(std::string name, std::uint64_t request_id,
                        int parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.request_id = request_id;
  spans_.push_back(std::move(span));
  // Read the clock last so the bookkeeping above is not charged to the span.
  spans_.back().start_ns = NowNs();
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
}

std::vector<double> SpanRecorder::ChildSeconds() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_s[static_cast<std::size_t>(span.parent)] += Seconds(span);
    }
  }
  return child_s;
}

std::map<std::string, SpanTotals> SpanRecorder::Totals() const {
  const std::vector<double> child_s = ChildSeconds();
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SpanTotals& t = totals[spans_[i].name];
    ++t.count;
    t.total_s += Seconds(spans_[i]);
    t.self_s += Seconds(spans_[i]) - child_s[i];
  }
  return totals;
}

double SpanRecorder::LayerSelfSeconds() const {
  const std::vector<double> child_s = ChildSeconds();
  double sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) sum += Seconds(spans_[i]) - child_s[i];
  }
  return sum;
}

Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"traceEvents\":[";
  out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"adarts_bench-replay\"}}";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Names are benchmark-chosen identifiers ([a-z0-9._-]), no escaping.
    std::snprintf(buf, sizeof(buf), "%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << ",{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
        << "\"ts\":" << buf << ",\"args\":{\"span\":" << i
        << ",\"parent\":" << s.parent << ",\"rid\":" << s.request_id << "}}";
  }
  out << "]}\n";
  out.close();
  if (!out) return Status::Internal("cannot write trace: " + path);
  return Status::OK();
}

}  // namespace adarts::e2e
