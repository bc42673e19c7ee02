#include <gtest/gtest.h>

#include "cluster/incremental.h"
#include "common/exec_context.h"
#include "labeling/labeler.h"
#include "tests/test_util.h"

namespace adarts::labeling {
namespace {

using ::adarts::testing::MakeCorrelatedSet;
using ::adarts::testing::MakeSine;

LabelingOptions SmallPool() {
  LabelingOptions opts;
  opts.algorithms = {impute::Algorithm::kCdRec, impute::Algorithm::kTkcm,
                     impute::Algorithm::kMeanImpute,
                     impute::Algorithm::kLinearInterp};
  return opts;
}

TEST(FullLabelingTest, LabelsEverySeriesWithinPool) {
  const auto series = MakeCorrelatedSet(6, 96);
  ExecContext ctx;
  auto result = LabelSeriesFull(series, SmallPool(), ctx);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->labels.size(), series.size());
  for (int label : result->labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 4);
  }
  EXPECT_EQ(result->algorithms.size(), 4u);
  EXPECT_EQ(result->rmse.rows(), series.size());
  EXPECT_EQ(result->rmse.cols(), 4u);
}

TEST(FullLabelingTest, LabelIsArgminOfRmseRow) {
  const auto series = MakeCorrelatedSet(5, 96);
  ExecContext ctx;
  auto result = LabelSeriesFull(series, SmallPool(), ctx);
  ASSERT_TRUE(result.ok());
  for (std::size_t i = 0; i < series.size(); ++i) {
    const int label = result->labels[i];
    for (std::size_t a = 0; a < result->algorithms.size(); ++a) {
      EXPECT_LE(result->rmse(i, static_cast<std::size_t>(label)),
                result->rmse(i, a));
    }
  }
}

TEST(FullLabelingTest, MeanRarelyWinsOnSmoothCorrelatedData) {
  const auto series = MakeCorrelatedSet(8, 128, 0.02);
  ExecContext ctx;
  auto result = LabelSeriesFull(series, SmallPool(), ctx);
  ASSERT_TRUE(result.ok());
  std::size_t mean_wins = 0;
  for (int label : result->labels) {
    if (result->algorithms[static_cast<std::size_t>(label)] ==
        impute::Algorithm::kMeanImpute) {
      ++mean_wins;
    }
  }
  EXPECT_LT(mean_wins, series.size() / 2);
}

TEST(FullLabelingTest, DeterministicForSameSeed) {
  const auto series = MakeCorrelatedSet(5, 96);
  ExecContext ctx;
  auto a = LabelSeriesFull(series, SmallPool(), ctx);
  auto b = LabelSeriesFull(series, SmallPool(), ctx);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->labels, b->labels);
}

TEST(ClusterLabelingTest, PropagatesWithinClusters) {
  const auto series = MakeCorrelatedSet(9, 96);
  cluster::Clustering clustering;
  clustering.clusters = {{0, 1, 2, 3}, {4, 5, 6, 7, 8}};
  ExecContext ctx;
  auto result = LabelByClusters(series, clustering, SmallPool(), ctx);
  ASSERT_TRUE(result.ok());
  // All members of one cluster share one label.
  for (const auto& members : clustering.clusters) {
    for (std::size_t i : members) {
      EXPECT_EQ(result->labels[i], result->labels[members[0]]);
    }
  }
}

TEST(ClusterLabelingTest, UsesFewerImputationRunsThanFull) {
  const auto series = MakeCorrelatedSet(12, 96);
  ExecContext ctx;
  auto clustering = cluster::IncrementalClustering(series, {}, ctx);
  ASSERT_TRUE(clustering.ok());
  auto fast = LabelByClusters(series, *clustering, SmallPool(), ctx);
  auto full = LabelSeriesFull(series, SmallPool(), ctx);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(full.ok());
  // Cluster labeling runs the pool once per cluster; full labeling runs it
  // once per set with every series masked, so the saving shows up when the
  // corpus splits into few clusters relative to the naive per-series cost
  // |series| * |pool| the paper motivates against.
  EXPECT_LE(fast->imputation_runs,
            clustering->NumClusters() * fast->algorithms.size());
  EXPECT_LE(fast->imputation_runs, series.size() * fast->algorithms.size());
}

TEST(ClusterRepresentativesTest, PicksHighestTotalCorrelation) {
  const auto series = MakeCorrelatedSet(4, 64);
  ExecContext ctx(1);
  const la::Matrix corr = cluster::PairwiseCorrelationMatrix(series, ctx);
  const std::vector<std::size_t> members = {0, 1, 2, 3};
  const auto reps = ClusterRepresentatives(members, corr, 2);
  EXPECT_EQ(reps.size(), 2u);
  for (std::size_t r : reps) {
    EXPECT_LT(r, 4u);
  }
  // Requesting more reps than members returns all members.
  EXPECT_EQ(ClusterRepresentatives(members, corr, 10).size(), 4u);
}

TEST(LabelingTest, EmptyInputRejected) {
  ExecContext ctx;
  EXPECT_FALSE(LabelSeriesFull({}, SmallPool(), ctx).ok());
  cluster::Clustering empty;
  EXPECT_FALSE(LabelByClusters({}, empty, SmallPool(), ctx).ok());
}

TEST(LabelingTest, DefaultPoolIsFullRegistry) {
  const auto series = MakeCorrelatedSet(4, 96);
  LabelingOptions opts;  // no explicit pool
  ExecContext ctx;
  auto result = LabelSeriesFull(series, opts, ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->algorithms.size(),
            static_cast<std::size_t>(impute::kNumAlgorithms));
}

}  // namespace
}  // namespace adarts::labeling
