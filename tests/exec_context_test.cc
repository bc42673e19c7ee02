// Tests of the ExecContext spine (DESIGN.md §8): context defaults, the
// lazy one-pool-per-context contract (a whole Train builds exactly one
// ThreadPool), the Metrics registry and StageMetrics snapshots, the
// deterministic RNG fork policy, cancel-aware ParallelFor on a context,
// and cancellation/deadline propagation through RecommendBatchPartial.

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adarts/adarts.h"
#include "automl/model_race.h"
#include "common/cancellation.h"
#include "common/exec_context.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/generators.h"
#include "tests/test_util.h"
#include "ts/missing.h"

namespace adarts {
namespace {

using ::adarts::testing::MakeBlobs;

// ---------------------------------------------------------------------------
// Context defaults and the lazy pool.

TEST(ExecContextTest, DefaultsAreSerialUncancelledAndMetricFree) {
  ExecContext ctx;
  EXPECT_EQ(ctx.num_threads(), 0u);
  EXPECT_EQ(ctx.cancel(), nullptr);
  EXPECT_FALSE(ctx.cancelled());
  EXPECT_TRUE(ctx.CheckCancelled("anything").ok());
  EXPECT_FALSE(ctx.pool_created());
  EXPECT_TRUE(ctx.metrics().Snapshot().empty());
}

TEST(ExecContextTest, PoolIsConstructedLazilyAndExactlyOnce) {
  ExecContext ctx(3);
  EXPECT_FALSE(ctx.pool_created());
  const std::uint64_t before = ThreadPool::TotalCreated();
  ThreadPool& first = ctx.pool();
  ThreadPool& second = ctx.pool();
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(first.size(), 3u);
  EXPECT_TRUE(ctx.pool_created());
  EXPECT_EQ(ThreadPool::TotalCreated() - before, 1u);
}

TEST(ExecContextTest, CheckCancelledReflectsTheToken) {
  CancellationToken token;
  ExecContext ctx(1, &token);
  EXPECT_TRUE(ctx.CheckCancelled("phase").ok());
  EXPECT_FALSE(ctx.cancelled());
  token.Cancel();
  EXPECT_TRUE(ctx.cancelled());
  Status s = ctx.CheckCancelled("phase");
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_NE(s.message().find("phase"), std::string::npos);
  ctx.set_cancel(nullptr);
  EXPECT_TRUE(ctx.CheckCancelled("phase").ok());
}

// ---------------------------------------------------------------------------
// ParallelFor on a context.

TEST(ExecContextParallelForTest, CoversEveryIndexExactlyOnce) {
  ExecContext ctx(4);
  constexpr std::size_t kN = 5000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(ctx, kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
  EXPECT_TRUE(ctx.pool_created());
}

TEST(ExecContextParallelForTest, SerialContextNeverConstructsThePool) {
  ExecContext ctx(1);
  std::vector<std::size_t> order;
  ParallelFor(ctx, 5, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(order[i], i);
  EXPECT_FALSE(ctx.pool_created());
}

TEST(ExecContextParallelForTest, TinyLoopsStayInlineOnParallelContexts) {
  ExecContext ctx(4);
  int hits = 0;
  ParallelFor(ctx, 0, [&](std::size_t) { ++hits; });
  ParallelFor(ctx, 1, [&](std::size_t) { ++hits; });
  EXPECT_EQ(hits, 1);
  EXPECT_FALSE(ctx.pool_created());
}

TEST(ExecContextParallelForTest, ExpiredTokenSkipsEveryIteration) {
  CancellationToken token;
  token.Cancel();
  ExecContext ctx(testing::TestThreadCount(), &token);
  std::vector<int> touched(64, 0);
  ParallelFor(ctx, touched.size(), [&](std::size_t i) { touched[i] = 1; });
  for (int t : touched) EXPECT_EQ(t, 0);
  // The caller-side contract: re-check the token after the loop.
  EXPECT_EQ(ctx.CheckCancelled("after").code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// The Metrics registry and StageMetrics snapshots.

TEST(MetricsTest, CounterHandlesAreStableAndAccumulate) {
  Metrics metrics;
  MetricCounter* c = metrics.counter("race.pipelines_evaluated");
  EXPECT_EQ(c, metrics.counter("race.pipelines_evaluated"));
  c->Increment();
  c->Increment(4);
  metrics.Increment("race.pipelines_evaluated", 5);
  const StageMetrics snap = metrics.Snapshot();
  EXPECT_EQ(snap.Counter("race.pipelines_evaluated"), 10u);
  EXPECT_EQ(snap.Counter("no.such.counter"), 0u);
}

TEST(MetricsTest, SpansAccumulateAcrossRepeatedStages) {
  Metrics metrics;
  metrics.RecordSpanSeconds("train.race_seconds", 0.25);
  metrics.RecordSpanSeconds("train.race_seconds", 0.5);
  const StageMetrics snap = metrics.Snapshot();
  EXPECT_DOUBLE_EQ(snap.SpanSeconds("train.race_seconds"), 0.75);
  EXPECT_DOUBLE_EQ(snap.SpanSeconds("no.such.span"), 0.0);
  EXPECT_FALSE(snap.empty());
}

TEST(MetricsTest, ConcurrentIncrementsAreLockFreeAndLossless) {
  Metrics metrics;
  MetricCounter* c = metrics.counter("stress.hits");
  ThreadPool pool(testing::TestThreadCount());
  constexpr std::size_t kN = 20000;
  ParallelFor(&pool, kN, [&](std::size_t) { c->Increment(); });
  EXPECT_EQ(metrics.Snapshot().Counter("stress.hits"), kN);
}

TEST(MetricsTest, SnapshotSerializesToJsonAndText) {
  Metrics metrics;
  metrics.Increment("b.count", 2);
  metrics.Increment("a.count");
  metrics.RecordSpanSeconds("a.span_seconds", 1.5);
  const StageMetrics snap = metrics.Snapshot();
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"counters\":{\"a.count\":1,\"b.count\":2}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"spans_seconds\":{\"a.span_seconds\":1.500000}"),
            std::string::npos)
      << json;
  const std::string text = snap.ToString();
  EXPECT_NE(text.find("a.count=1"), std::string::npos) << text;
  EXPECT_NE(text.find("b.count=2"), std::string::npos) << text;
  EXPECT_NE(text.find("a.span_seconds="), std::string::npos) << text;
}

TEST(MetricsTest, ToJsonEscapesHostileMetricNames) {
  // Metric names are plain identifiers today, but the JSON writer must not
  // emit broken output if a name ever carries quotes, backslashes, or
  // control characters (e.g. a name derived from user-provided series ids).
  Metrics metrics;
  metrics.Increment("weird\"name\\with\nstuff");
  metrics.RecordSpanSeconds("tab\there_seconds", 0.5);
  const std::string json = metrics.Snapshot().ToJson();
  EXPECT_NE(json.find("\"weird\\\"name\\\\with\\nstuff\":1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"tab\\there_seconds\":0.500000"), std::string::npos)
      << json;
}

TEST(MetricsTest, StageTimerRecordsOnceAndToleratesNullRegistry) {
  Metrics metrics;
  {
    StageTimer timer(&metrics, "unit.test_seconds");
    timer.Stop();
    timer.Stop();  // idempotent: the destructor must not double-record
  }
  const StageMetrics snap = metrics.Snapshot();
  ASSERT_EQ(snap.spans_seconds.count("unit.test_seconds"), 1u);
  EXPECT_GE(snap.SpanSeconds("unit.test_seconds"), 0.0);
  StageTimer no_op(nullptr, "ignored");  // must not crash on destruction
}

// ---------------------------------------------------------------------------
// Deterministic RNG forking.

TEST(ExecContextTest, ForkRngsMatchesSequentialForksInIndexOrder) {
  Rng parent_a(42);
  Rng parent_b(42);
  std::vector<Rng> forked = ExecContext::ForkRngs(&parent_a, 6);
  ASSERT_EQ(forked.size(), 6u);
  for (std::size_t i = 0; i < forked.size(); ++i) {
    Rng manual = parent_b.Fork();
    for (int draw = 0; draw < 16; ++draw) {
      EXPECT_EQ(forked[i].NextU64(), manual.NextU64())
          << "child " << i << " draw " << draw;
    }
  }
  // Both parents consumed the same fork stream.
  EXPECT_EQ(parent_a.NextU64(), parent_b.NextU64());
}

// ---------------------------------------------------------------------------
// Whole-engine contracts: one pool per Train, populated TrainReport,
// deprecated shims bit-identical to an explicit context, and cancellation
// propagation through the batched inference path.

std::vector<ts::TimeSeries> TinyCorpus(std::size_t per_category = 10) {
  data::GeneratorOptions gopts;
  gopts.num_series = per_category;
  gopts.length = 144;
  std::vector<ts::TimeSeries> corpus;
  for (data::Category c : {data::Category::kClimate, data::Category::kMotion}) {
    for (auto& s : data::GenerateCategory(c, gopts)) {
      corpus.push_back(std::move(s));
    }
  }
  return corpus;
}

TrainOptions TinyTrainOptions() {
  TrainOptions opts;
  opts.labeling.algorithms = {impute::Algorithm::kCdRec,
                              impute::Algorithm::kTkcm,
                              impute::Algorithm::kLinearInterp};
  opts.race.num_seed_pipelines = 12;
  opts.race.num_partial_sets = 2;
  opts.race.num_folds = 2;
  // gamma = 0 removes the wall-clock term from the race score so two runs
  // can be compared bit-for-bit (as in threading_test).
  opts.race.gamma = 0.0;
  opts.race.seed = 11;
  opts.features.landmarks = 16;
  return opts;
}

ts::TimeSeries FaultyProbe(std::uint64_t seed) {
  data::GeneratorOptions gopts;
  gopts.num_series = 1;
  gopts.length = 144;
  gopts.seed = seed;
  auto set = data::GenerateCategory(data::Category::kClimate, gopts);
  Rng rng(seed + 1);
  EXPECT_TRUE(ts::InjectSingleBlock(12, &rng, &set[0]).ok());
  return std::move(set[0]);
}

TEST(ExecContextEngineTest, WholeTrainConstructsExactlyOnePool) {
  const auto corpus = TinyCorpus();
  const TrainOptions opts = TinyTrainOptions();
  ExecContext ctx(3);
  const std::uint64_t before = ThreadPool::TotalCreated();
  auto engine = Adarts::Train(corpus, opts, ctx);
  ASSERT_TRUE(engine.ok()) << engine.status();
  // Clustering, labeling, feature extraction, the race, and the committee
  // refits all ran — on one shared pool, constructed once.
  EXPECT_EQ(ThreadPool::TotalCreated() - before, 1u);
  EXPECT_TRUE(ctx.pool_created());

  // The run's StageMetrics snapshot landed in the train report.
  const StageMetrics& stages = engine->train_report().stages;
  ASSERT_FALSE(stages.empty());
  EXPECT_GT(stages.Counter("race.pipelines_evaluated"), 0u);
  EXPECT_EQ(stages.spans_seconds.count("train.labeling_seconds"), 1u);
  EXPECT_EQ(stages.spans_seconds.count("train.features_seconds"), 1u);
  EXPECT_EQ(stages.spans_seconds.count("train.race_seconds"), 1u);
  EXPECT_EQ(stages.spans_seconds.count("train.committee_seconds"), 1u);
  EXPECT_EQ(stages.spans_seconds.count("race.total_seconds"), 1u);
}

TEST(ExecContextEngineTest, BatchPartialReportsDeadlineThroughContext) {
  const auto corpus = TinyCorpus();
  ExecContext train_ctx;
  auto engine = Adarts::Train(corpus, TinyTrainOptions(), train_ctx);
  ASSERT_TRUE(engine.ok()) << engine.status();

  std::vector<ts::TimeSeries> batch;
  for (std::uint64_t seed : {301u, 302u, 303u, 304u}) {
    batch.push_back(FaultyProbe(seed));
  }

  CancellationToken expired = CancellationToken::WithDeadline(0.0);
  ExecContext ctx(testing::TestThreadCount(), &expired);
  auto partial = engine->RecommendBatchPartial(batch, ctx);
  ASSERT_EQ(partial.size(), batch.size());
  for (const auto& slot : partial) {
    ASSERT_FALSE(slot.ok());
    EXPECT_EQ(slot.status().code(), StatusCode::kDeadlineExceeded);
  }

  // A healthy context on the same engine works and records batch metrics.
  ExecContext healthy_ctx(testing::TestThreadCount());
  auto ok_partial = engine->RecommendBatchPartial(batch, healthy_ctx);
  ASSERT_EQ(ok_partial.size(), batch.size());
  for (const auto& slot : ok_partial) EXPECT_TRUE(slot.ok()) << slot.status();
  EXPECT_EQ(healthy_ctx.metrics().Snapshot().Counter("recommend.requests"),
            batch.size());
}

}  // namespace
}  // namespace adarts
