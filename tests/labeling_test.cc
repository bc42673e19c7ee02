#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/incremental.h"
#include "common/exec_context.h"
#include "data/generators.h"
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

/// What one LabelByClusters run produced, with the RMSE matrix reduced to
/// an FNV-1a digest of its raw bytes.
struct ClusterLabelingGolden {
  std::size_t representatives_per_cluster = 0;
  std::vector<int> labels;
  std::vector<std::vector<std::size_t>> cluster_representatives;
  std::size_t imputation_runs = 0;
  std::uint64_t rmse_fnv = 0;
};

const ClusterLabelingGolden kClusterLabelingGolden[] = {
    {.representatives_per_cluster = 2,
     .labels = {3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 0, 0, 0, 1, 0,
                1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     .cluster_representatives = {{7, 9}, {26, 20}, {11, 12}, {15, 13}},
     .imputation_runs = 16,
     .rmse_fnv = 0x68fe62074cced6b9ULL},
    {.representatives_per_cluster = 4,
     .labels = {3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 1, 1, 1, 1, 1,
                1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     .cluster_representatives = {{7, 9, 0, 1},
                                 {26, 20, 22, 21},
                                 {12, 14, 10, 11},
                                 {15, 13, 17, 16}},
     .imputation_runs = 16,
     .rmse_fnv = 0x4d7e6470a20fcb11ULL},
};

/// Pins LabelByClusters on the clustering of a fixed corpus (10 series each
/// of Water, Medical and Lightning, length 128). At 4 representatives the
/// mean RMSE sums four scores, so the order in which representatives are
/// masked and summed shows in the digest.
TEST(ClusterLabelingTest, GoldenAtTwoAndFourRepresentatives) {
  data::GeneratorOptions gopts;
  gopts.num_series = 10;
  gopts.length = 128;
  gopts.seed = 2;
  std::vector<ts::TimeSeries> corpus;
  for (data::Category c : {data::Category::kWater, data::Category::kMedical,
                           data::Category::kLightning}) {
    for (ts::TimeSeries& s : data::GenerateCategory(c, gopts)) {
      corpus.push_back(std::move(s));
    }
  }
  ExecContext ctx(testing::TestThreadCount());
  auto clustering = cluster::IncrementalClustering(corpus, {}, ctx);
  ASSERT_TRUE(clustering.ok()) << clustering.status();

  for (const ClusterLabelingGolden& golden : kClusterLabelingGolden) {
    SCOPED_TRACE("representatives_per_cluster=" +
                 std::to_string(golden.representatives_per_cluster));
    LabelingOptions opts = SmallPool();
    opts.representatives_per_cluster = golden.representatives_per_cluster;
    auto result = LabelByClusters(corpus, *clustering, opts, ctx);
    ASSERT_TRUE(result.ok()) << result.status();
    std::vector<double> rmse;
    for (std::size_t r = 0; r < result->rmse.rows(); ++r) {
      rmse.insert(rmse.end(), result->rmse.RowPtr(r),
                  result->rmse.RowPtr(r) + result->rmse.cols());
    }
    EXPECT_EQ(result->labels, golden.labels);
    EXPECT_EQ(result->cluster_representatives,
              golden.cluster_representatives);
    EXPECT_EQ(result->imputation_runs, golden.imputation_runs);
    EXPECT_EQ(testing::BytesFnv(rmse), golden.rmse_fnv);

    // The pin covers the case where masking order matters: a cluster with
    // more than 4 members whose representatives, best medoid first, are not
    // in member order.
    bool reordered = false;
    for (std::size_t k = 0; k < clustering->NumClusters(); ++k) {
      const std::vector<std::size_t>& members = clustering->clusters[k];
      std::vector<std::ptrdiff_t> positions;
      for (std::size_t rep : result->cluster_representatives[k]) {
        positions.push_back(
            std::find(members.begin(), members.end(), rep) - members.begin());
      }
      if (members.size() > 4 &&
          !std::is_sorted(positions.begin(), positions.end())) {
        reordered = true;
      }
    }
    EXPECT_TRUE(reordered);
  }
}

TEST(ClusterRepresentativesTest, PicksHighestTotalCorrelation) {
  const auto series = MakeCorrelatedSet(4, 64);
  ExecContext ctx(1);
  const la::Matrix corr = cluster::PairwiseCorrelationMatrix(series, ctx);
  const auto reps = ClusterRepresentatives(corr, 2);
  EXPECT_EQ(reps.size(), 2u);
  for (std::size_t r : reps) {
    EXPECT_LT(r, 4u);
  }
  // Requesting more reps than members returns all members.
  EXPECT_EQ(ClusterRepresentatives(corr, 10).size(), 4u);
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
