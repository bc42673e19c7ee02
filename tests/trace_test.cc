// Tests for the tracing + profiling subsystem (DESIGN.md §9): the global
// event tracer with its per-thread ring buffers and Chrome trace-event
// export, the fixed-layout latency histograms and their 1-vs-N-thread
// bit-determinism contract, and the leveled logging facade. The TraceTest /
// HistogramTest suites run under the TSan CI job (`Trace|Histogram` is part
// of its regex) to prove the lock-free recording paths are race-free.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/exec_context.h"
#include "common/histogram.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "tests/test_util.h"

namespace adarts {
namespace {

// ---------------------------------------------------------------------------
// Tracer: sessions, ring buffers, export.

/// The contents of the file at `path` (empty when it cannot be read); the
/// file is removed.
std::string ReadAndRemove(const std::string& path) {
  std::string content;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return content;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  return content;
}

/// Every test leaves the global tracer disarmed and empty: the tracer is a
/// process-wide singleton, so leaked state would bleed into other suites.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { Tracer::Global().Reset(); }
  void TearDown() override { Tracer::Global().Reset(); }
};

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::Global();
  ASSERT_FALSE(tracer.enabled());
  {
    TraceSpan span("test.span");
    EXPECT_FALSE(span.enabled());
  }
  tracer.RecordInstant("test.instant");
  tracer.RecordCounter("test.counter", 1.0);
  tracer.RecordComplete("test.complete", 0, 10);
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.thread_count(), 0u);
  EXPECT_EQ(tracer.NowNs(), 0u);
}

TEST_F(TraceTest, StartIsFirstOwnerWins) {
  Tracer& tracer = Tracer::Global();
  TraceOptions options;
  options.enabled = true;
  EXPECT_TRUE(tracer.Start(options));
  EXPECT_FALSE(tracer.Start(options)) << "second Start must not steal the "
                                         "active session";
  tracer.Stop();
  EXPECT_TRUE(tracer.Start(options)) << "a stopped tracer can be restarted";
}

TEST_F(TraceTest, SpansInstantsAndCountersAreRecordedAndExported) {
  Tracer& tracer = Tracer::Global();
  TraceOptions options;
  options.enabled = true;
  ASSERT_TRUE(tracer.Start(options));
  {
    TraceSpan outer("test.outer", "corpus=48");
    {
      TraceSpan inner("test.inner");
      EXPECT_TRUE(inner.enabled());
    }
  }
  tracer.RecordInstant("test.warning", "something odd");
  tracer.RecordCounter("test.active", 7.0);
  tracer.Stop();

  EXPECT_EQ(tracer.event_count(), 4u);
  EXPECT_EQ(tracer.thread_count(), 1u);
  const std::string json = tracer.ToJson();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"corpus=48\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":7.000000}"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);
}

TEST_F(TraceTest, CancelledSpanIsNotRecorded) {
  Tracer& tracer = Tracer::Global();
  TraceOptions options;
  options.enabled = true;
  ASSERT_TRUE(tracer.Start(options));
  {
    TraceSpan span("test.cancelled");
    span.Cancel();
  }
  {
    TraceSpan span("test.stopped");
    span.Stop();
    span.Stop();  // idempotent: destructor must not double-record
  }
  tracer.Stop();
  EXPECT_EQ(tracer.event_count(), 1u);
  EXPECT_EQ(tracer.ToJson().find("test.cancelled"), std::string::npos);
}

TEST_F(TraceTest, FullRingDropsNewEventsWithoutBlockingOrReallocating) {
  Tracer& tracer = Tracer::Global();
  TraceOptions options;
  options.enabled = true;
  options.capacity_per_thread = 8;
  ASSERT_TRUE(tracer.Start(options));
  for (int i = 0; i < 20; ++i) tracer.RecordInstant("test.flood");
  tracer.Stop();
  EXPECT_EQ(tracer.event_count(), 8u) << "ring must hold exactly its "
                                         "capacity";
  EXPECT_EQ(tracer.dropped_events(), 12u);
  EXPECT_NE(tracer.ToJson().find("\"dropped_events\":12"), std::string::npos);
}

TEST_F(TraceTest, DetailIsTruncatedToInlineCapacity) {
  Tracer& tracer = Tracer::Global();
  TraceOptions options;
  options.enabled = true;
  ASSERT_TRUE(tracer.Start(options));
  const std::string long_detail(200, 'x');
  tracer.RecordInstant("test.truncate", long_detail);
  tracer.Stop();
  const std::string kept(Tracer::kDetailCapacity - 1, 'x');
  const std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"detail\":\"" + kept + "\""), std::string::npos);
  EXPECT_EQ(json.find(kept + "x"), std::string::npos)
      << "detail must be cut at kDetailCapacity-1 characters";
}

TEST_F(TraceTest, ConcurrentRecordingFromPoolWorkersIsLossless) {
  Tracer& tracer = Tracer::Global();
  TraceOptions options;
  options.enabled = true;
  ASSERT_TRUE(tracer.Start(options));
  const std::size_t threads = testing::TestThreadCount();
  ThreadPool pool(threads);
  constexpr std::size_t kEvents = 4000;
  ParallelFor(&pool, kEvents, [&](std::size_t) {
    TraceSpan span("test.parallel");
  });
  tracer.Stop();
  // ParallelFor emits one pool.chunk span per drained chunk on top of the
  // kEvents test spans; every event must have landed in some ring.
  EXPECT_GE(tracer.event_count(), kEvents);
  EXPECT_EQ(tracer.dropped_events(), 0u);
  EXPECT_GE(tracer.thread_count(), 1u);
  // On a loaded (or single-core) machine the caller may drain every chunk
  // before a worker wakes; but any worker that did record must show up as a
  // named track.
  if (tracer.thread_count() > 1) {
    EXPECT_NE(tracer.ToJson().find("pool-worker-"), std::string::npos)
        << "worker tracks must be named in the export";
  }
  (void)threads;
}

TEST_F(TraceTest, ScopedTraceExportsToPathOnDestruction) {
  const std::string path =
      ::testing::TempDir() + "/adarts_scoped_trace_test.json";
  std::remove(path.c_str());
  {
    TraceOptions options;
    options.enabled = true;
    options.path = path;
    ScopedTrace session(options);
    ASSERT_TRUE(session.active());
    TraceSpan span("test.scoped");
  }
  const std::string content = ReadAndRemove(path);
  ASSERT_FALSE(content.empty()) << "ScopedTrace destructor must write " << path;
  EXPECT_NE(content.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(content.find("\"name\":\"test.scoped\""), std::string::npos);
  EXPECT_FALSE(Tracer::Global().enabled())
      << "session must be stopped after the owning scope ends";
}

TEST_F(TraceTest, SequentialContextsUnderOneScopedTraceAllReachTheFile) {
  const std::string path =
      ::testing::TempDir() + "/adarts_sequential_contexts_trace.json";
  std::remove(path.c_str());
  ::setenv("ADARTS_TRACE", path.c_str(), 1);
  {
    ExecContext outside(1);
    EXPECT_FALSE(Tracer::Global().enabled())
        << "only a ScopedTrace starts a session, whatever ADARTS_TRACE says";
  }
  {
    // The binaries' pattern: no --trace flag, so the session follows
    // ADARTS_TRACE. Each context records and ends inside it.
    ScopedTrace session(TraceOptions::FromFlagOrEnv(""));
    ASSERT_TRUE(session.active());
    const auto record = [](const char* name) {
      ExecContext ctx(1);
      ParallelFor(ctx, 2, [name](std::size_t) { TraceSpan span(name); });
    };
    record("test.context0");
    record("test.context1");
    record("test.context2");
    EXPECT_TRUE(Tracer::Global().enabled())
        << "a context must not end the ScopedTrace's session";
  }
  ::unsetenv("ADARTS_TRACE");
  const std::string content = ReadAndRemove(path);
  ASSERT_FALSE(content.empty()) << "ScopedTrace destructor must write " << path;
  for (const char* name : {"test.context0", "test.context1", "test.context2"}) {
    EXPECT_NE(content.find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos)
        << name << " must reach the exported file";
  }
}

// ---------------------------------------------------------------------------
// Latency histograms: layout, exact percentiles, bit-determinism.

TEST(HistogramTest, BucketLayoutIsExactBelowSixteenAndMonotoneAbove) {
  for (std::uint64_t ns = 0; ns < LatencyHistogram::kSubBuckets; ++ns) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(ns), ns);
    EXPECT_EQ(LatencyHistogram::BucketUpperBound(ns), ns);
  }
  std::size_t prev = LatencyHistogram::BucketIndex(15);
  for (std::uint64_t ns : {16ull, 31ull, 32ull, 1000ull, 1ull << 20,
                           1ull << 40}) {
    const std::size_t index = LatencyHistogram::BucketIndex(ns);
    EXPECT_GT(index, prev) << "bucket index must grow with the value";
    EXPECT_LT(index, LatencyHistogram::kNumBuckets);
    EXPECT_GE(LatencyHistogram::BucketUpperBound(index), ns)
        << "a value must not exceed its bucket's upper bound";
    prev = index;
  }
  // Values beyond the top tier clamp into the last bucket instead of
  // indexing out of range.
  EXPECT_EQ(LatencyHistogram::BucketIndex(~0ull),
            LatencyHistogram::kNumBuckets - 1);
}

TEST(HistogramTest, ExactPercentilesOnKnownSmallValues) {
  // Values below 16 ns land in exact unit buckets, so nearest-rank
  // percentiles over {1..10} are exact: rank(ceil(q*10)) of the sorted list.
  LatencyHistogram hist;
  for (std::uint64_t ns = 1; ns <= 10; ++ns) hist.Record(ns);
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 10u);
  EXPECT_EQ(snap.sum_ns, 55u);
  EXPECT_EQ(snap.max_ns, 10u);
  EXPECT_EQ(snap.p50_ns, 5u);
  EXPECT_EQ(snap.p90_ns, 9u);
  EXPECT_EQ(snap.p99_ns, 10u);
}

TEST(HistogramTest, PercentileIsBucketRepresentativeForLargeValues) {
  LatencyHistogram hist;
  hist.Record(1000);
  const HistogramSnapshot snap = hist.Snapshot();
  const std::uint64_t representative =
      LatencyHistogram::BucketUpperBound(LatencyHistogram::BucketIndex(1000));
  EXPECT_EQ(snap.p50_ns, representative);
  EXPECT_EQ(snap.p99_ns, representative);
  EXPECT_GE(representative, 1000u);
  EXPECT_EQ(snap.max_ns, 1000u) << "max is exact, not bucketed";
}

TEST(HistogramTest, EmptySnapshotIsAllZeros) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.Snapshot(), HistogramSnapshot{});
}

TEST(HistogramTest, OneVsManyThreadsProduceBitIdenticalSnapshots) {
  // The same multiset of durations must yield the same snapshot no matter
  // how many threads recorded it or in what interleaving — the property
  // that lets the engine expose percentiles without perturbing its
  // bit-determinism contract.
  const auto value_for = [](std::size_t i) {
    return static_cast<std::uint64_t>((i * 977) % 2'000'003);
  };
  constexpr std::size_t kN = 50000;
  LatencyHistogram serial;
  for (std::size_t i = 0; i < kN; ++i) serial.Record(value_for(i));
  LatencyHistogram parallel;
  ThreadPool pool(testing::TestThreadCount(8));
  ParallelFor(&pool, kN, [&](std::size_t i) { parallel.Record(value_for(i)); });
  EXPECT_EQ(serial.Snapshot(), parallel.Snapshot());
}

TEST(HistogramTest, MergeFromMatchesDirectRecordingAndCommutes) {
  const auto fill = [](LatencyHistogram& hist, std::size_t begin,
                       std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      hist.Record(static_cast<std::uint64_t>(i * 131) % 100000);
    }
  };
  LatencyHistogram whole;
  fill(whole, 0, 3000);
  LatencyHistogram a;
  LatencyHistogram b;
  fill(a, 0, 1000);
  fill(b, 1000, 3000);
  LatencyHistogram ab;
  ab.MergeFrom(a);
  ab.MergeFrom(b);
  LatencyHistogram ba;
  ba.MergeFrom(b);
  ba.MergeFrom(a);
  EXPECT_EQ(ab.Snapshot(), whole.Snapshot());
  EXPECT_EQ(ba.Snapshot(), whole.Snapshot());
}

TEST(HistogramTest, RegisteredInMetricsAndSurfacedInSnapshots) {
  Metrics metrics;
  LatencyHistogram* hist = metrics.histogram("unit.latency");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist, metrics.histogram("unit.latency"))
      << "handle must be stable so hot loops can hoist it";
  hist->Record(5);
  hist->Record(7);
  hist->RecordSeconds(-1.0);  // negative durations clamp to 0
  const StageMetrics snap = metrics.Snapshot();
  EXPECT_EQ(snap.Histogram("unit.latency").count, 3u);
  EXPECT_EQ(snap.Histogram("unit.latency").max_ns, 7u);
  EXPECT_EQ(snap.Histogram("no.such").count, 0u);
  EXPECT_FALSE(snap.empty());
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"histograms\":{\"unit.latency\":{\"count\":3,"),
            std::string::npos)
      << json;
  EXPECT_NE(snap.ToString().find("unit.latency=count:3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Leveled logging.

/// Restores the default stderr sink even if an assertion fails mid-test.
class ScopedLogSink {
 public:
  explicit ScopedLogSink(LogSink sink) { SetLogSink(std::move(sink)); }
  ~ScopedLogSink() { SetLogSink(nullptr); }
};

TEST(LogTest, CustomSinkReceivesAllLevelsRegardlessOfQuiet) {
  std::vector<std::pair<LogLevel, std::string>> seen;
  ScopedLogSink scoped([&](LogLevel level, const std::string& message) {
    seen.emplace_back(level, message);
  });
  ::setenv("ADARTS_QUIET", "1", 1);
  LogInfo("info line");
  LogWarn("warn line");
  LogError("error line");
  LogWarn(std::string("dynamic ") + "warn");  // std::string overload stays
  ::unsetenv("ADARTS_QUIET");
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].first, LogLevel::kInfo);
  EXPECT_EQ(seen[1].first, LogLevel::kWarn);
  EXPECT_EQ(seen[2].first, LogLevel::kError);
  EXPECT_EQ(seen[2].second, "error line");
  EXPECT_EQ(seen[3].second, "dynamic warn");
}

TEST(LogTest, QuietIsReadPerCallNotLatched) {
  // The old implementation latched ADARTS_QUIET in a static on first use;
  // toggling it mid-process must take effect immediately.
  ::unsetenv("ADARTS_QUIET");
  ::testing::internal::CaptureStderr();
  LogWarn("audible");
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("audible"),
            std::string::npos);
  ::setenv("ADARTS_QUIET", "1", 1);
  ::testing::internal::CaptureStderr();
  LogWarn("silenced");
  LogError("still audible");
  const std::string quiet_out = ::testing::internal::GetCapturedStderr();
  ::unsetenv("ADARTS_QUIET");
  EXPECT_EQ(quiet_out.find("silenced"), std::string::npos)
      << "ADARTS_QUIET must suppress WARN after being set mid-process";
  EXPECT_NE(quiet_out.find("still audible"), std::string::npos)
      << "ERROR is never suppressed";
  ::testing::internal::CaptureStderr();
  LogWarn("audible again");
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("audible again"),
            std::string::npos)
      << "unsetting ADARTS_QUIET must restore output";
}

TEST(LogTest, WarningsBecomeTraceInstantsWhileTracing) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  TraceOptions options;
  options.enabled = true;
  ASSERT_TRUE(tracer.Start(options));
  ScopedLogSink scoped([](LogLevel, const std::string&) {});  // mute stderr
  LogInfo("not on the timeline");
  LogWarn("degraded to fallback");
  LogError("fit failed");
  tracer.Stop();
  const std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"name\":\"log.warn\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"log.error\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"degraded to fallback\""),
            std::string::npos);
  EXPECT_EQ(json.find("not on the timeline"), std::string::npos)
      << "INFO lines stay off the trace";
  tracer.Reset();
}

}  // namespace
}  // namespace adarts
