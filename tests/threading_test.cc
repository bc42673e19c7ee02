// Tests of the shared ThreadPool / ParallelFor machinery and of the
// determinism contract: the parallelized training paths (ModelRace candidate
// evaluation, corpus feature extraction, exhaustive labeling) must produce
// bit-identical results for every thread count.

#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adarts/adarts.h"
#include "automl/model_race.h"
#include "common/exec_context.h"
#include "common/thread_pool.h"
#include "data/generators.h"
#include "labeling/labeler.h"
#include "tests/test_util.h"
#include "ts/missing.h"

namespace adarts {
namespace {

using ::adarts::testing::MakeBlobs;

// ---- ThreadPool / ParallelFor unit tests.

TEST(ThreadPoolTest, ResolvesZeroToHardwareConcurrency) {
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(3), 3u);
}

TEST(ThreadPoolTest, SizeOneSpawnsNoWorkersButStillRuns) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> hits(10, 0);
  ParallelFor(&pool, hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, NullPoolRunsSerially) {
  std::vector<std::size_t> order;
  ParallelFor(nullptr, 5, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(&pool, kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForTest, ZeroTasksIsANoOp) {
  ThreadPool pool(4);
  bool called = false;
  ParallelFor(&pool, 0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, MoreWorkersThanTasks) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(&pool, 3, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ReusableAcrossManyLoops) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round) {
    ParallelFor(&pool, 64, [&](std::size_t i) {
      total.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 50L * (64L * 63L / 2L));
}

TEST(ParallelForTest, NestedLoopsOnOnePoolDoNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_hits{0};
  ParallelFor(&pool, 4, [&](std::size_t) {
    ParallelFor(&pool, 4, [&](std::size_t) {
      inner_hits.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_hits.load(), 16);
}

// ---- Determinism across thread counts.

automl::ModelRaceOptions DeterministicRaceOptions() {
  automl::ModelRaceOptions options;
  options.num_seed_pipelines = 12;
  options.num_partial_sets = 2;
  options.num_folds = 2;
  // gamma = 0 removes the wall-clock term from the score so the comparison
  // below can demand bit-identical score histories; the structural outputs
  // (specs, prune counts) do not depend on gamma's default either way.
  options.gamma = 0.0;
  options.seed = 11;
  return options;
}

TEST(ThreadDeterminismTest, ModelRaceReportsAreIdenticalFor1And4Threads) {
  const ml::Dataset train = MakeBlobs(3, 30, 6);

  const automl::ModelRaceOptions options = DeterministicRaceOptions();
  ExecContext serial_ctx(1);
  ExecContext parallel_ctx(4);

  auto a = automl::RunModelRace(train, options, serial_ctx);
  auto b = automl::RunModelRace(train, options, parallel_ctx);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();

  EXPECT_EQ(a->pipelines_evaluated, b->pipelines_evaluated);
  EXPECT_EQ(a->pipelines_pruned_early, b->pipelines_pruned_early);
  EXPECT_EQ(a->pipelines_pruned_ttest, b->pipelines_pruned_ttest);
  ASSERT_EQ(a->elites.size(), b->elites.size());
  for (std::size_t i = 0; i < a->elites.size(); ++i) {
    EXPECT_EQ(a->elites[i].spec.ToString(), b->elites[i].spec.ToString());
    EXPECT_DOUBLE_EQ(a->elites[i].mean_score, b->elites[i].mean_score);
    EXPECT_DOUBLE_EQ(a->elites[i].mean_f1, b->elites[i].mean_f1);
    ASSERT_EQ(a->elites[i].scores.size(), b->elites[i].scores.size());
    for (std::size_t s = 0; s < a->elites[i].scores.size(); ++s) {
      EXPECT_DOUBLE_EQ(a->elites[i].scores[s], b->elites[i].scores[s]);
    }
  }
}

TEST(ThreadDeterminismTest, TrainRecommendationsAreIdenticalFor1And4Threads) {
  data::GeneratorOptions gopts;
  gopts.num_series = 10;
  gopts.length = 128;
  std::vector<ts::TimeSeries> corpus;
  for (data::Category c : {data::Category::kClimate, data::Category::kMotion}) {
    for (auto& s : data::GenerateCategory(c, gopts)) {
      corpus.push_back(std::move(s));
    }
  }

  TrainOptions opts;
  opts.labeling.algorithms = {impute::Algorithm::kCdRec,
                              impute::Algorithm::kSvdImpute,
                              impute::Algorithm::kLinearInterp};
  opts.race = DeterministicRaceOptions();
  opts.features.landmarks = 16;

  ExecContext serial_ctx(1);
  ExecContext parallel_ctx(4);

  auto a = Adarts::Train(corpus, opts, serial_ctx);
  auto b = Adarts::Train(corpus, opts, parallel_ctx);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();

  // Identical training data (labels + masked features) ...
  ASSERT_EQ(a->training_data().size(), b->training_data().size());
  EXPECT_EQ(a->training_data().labels, b->training_data().labels);
  for (std::size_t i = 0; i < a->training_data().size(); ++i) {
    const la::Vector& fa = a->training_data().features[i];
    const la::Vector& fb = b->training_data().features[i];
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t j = 0; j < fa.size(); ++j) {
      EXPECT_DOUBLE_EQ(fa[j], fb[j]) << "feature " << j << " of series " << i;
    }
  }

  // ... identical committees ...
  ASSERT_EQ(a->committee_size(), b->committee_size());
  for (std::size_t i = 0; i < a->committee().size(); ++i) {
    EXPECT_EQ(a->committee()[i].spec.ToString(),
              b->committee()[i].spec.ToString());
  }

  // ... and identical recommendations on fresh faulty probes.
  gopts.num_series = 4;
  gopts.seed = 99;
  for (auto& probe : data::GenerateCategory(data::Category::kClimate, gopts)) {
    Rng rng(3);
    ASSERT_TRUE(ts::InjectSingleBlock(12, &rng, &probe).ok());
    auto ra = a->Recommend(probe, serial_ctx);
    auto rb = b->Recommend(probe, parallel_ctx);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(*ra, *rb);
    auto ranked_a = a->RecommendEx(probe);
    auto ranked_b = b->RecommendEx(probe);
    ASSERT_TRUE(ranked_a.ok());
    ASSERT_TRUE(ranked_b.ok());
    EXPECT_EQ(ranked_a->ranking, ranked_b->ranking);
  }
}

TEST(ThreadDeterminismTest, ExhaustiveLabelingIsIdenticalAcrossThreadCounts) {
  const std::vector<ts::TimeSeries> series =
      testing::MakeCorrelatedSet(10, 96);
  labeling::LabelingOptions opts;
  opts.algorithms = {impute::Algorithm::kCdRec, impute::Algorithm::kSvdImpute,
                     impute::Algorithm::kLinearInterp,
                     impute::Algorithm::kMeanImpute};

  ExecContext serial_ctx(1);
  ExecContext parallel_ctx(4);

  auto a = labeling::LabelSeriesFull(series, opts, serial_ctx);
  auto b = labeling::LabelSeriesFull(series, opts, parallel_ctx);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->labels, b->labels);
  EXPECT_EQ(a->imputation_runs, b->imputation_runs);
  ASSERT_EQ(a->rmse.rows(), b->rmse.rows());
  ASSERT_EQ(a->rmse.cols(), b->rmse.cols());
  for (std::size_t r = 0; r < a->rmse.rows(); ++r) {
    for (std::size_t c = 0; c < a->rmse.cols(); ++c) {
      EXPECT_DOUBLE_EQ(a->rmse(r, c), b->rmse(r, c));
    }
  }
}

}  // namespace
}  // namespace adarts
