#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "cluster/clustering.h"
#include "cluster/incremental.h"
#include "cluster/kshape.h"
#include "common/exec_context.h"
#include "common/rng.h"
#include "data/generators.h"
#include "tests/test_util.h"

namespace adarts::cluster {
namespace {

using ::adarts::testing::MakeSine;

/// Two clearly distinct families: slow sines and fast sines with opposite
/// phase structure.
std::vector<ts::TimeSeries> TwoFamilies(std::size_t per_family,
                                        std::size_t length = 96) {
  std::vector<ts::TimeSeries> out;
  for (std::size_t i = 0; i < per_family; ++i) {
    out.push_back(MakeSine(length, 32.0, 0.05, 100 + i));
  }
  for (std::size_t i = 0; i < per_family; ++i) {
    out.push_back(MakeSine(length, 7.0, 0.05, 200 + i));
  }
  return out;
}

/// The first reference corpus that bench/e2e's train_offline workload
/// retrains: Climate, Power and Motion, 32 series each of length 256,
/// generator seed 1.
std::vector<ts::TimeSeries> ReferenceCorpus() {
  std::vector<ts::TimeSeries> corpus;
  for (const data::Category c :
       {data::Category::kClimate, data::Category::kPower,
        data::Category::kMotion}) {
    data::GeneratorOptions g;
    g.num_series = 32;
    g.length = 256;
    g.seed = 1;
    std::vector<ts::TimeSeries> part = data::GenerateCategory(c, g);
    corpus.insert(corpus.end(), part.begin(), part.end());
  }
  return corpus;
}

TEST(CorrelationMatrixTest, SymmetricUnitDiagonal) {
  const auto series = TwoFamilies(3);
  ExecContext ctx(1);
  const la::Matrix corr = PairwiseCorrelationMatrix(series, ctx);
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_DOUBLE_EQ(corr(i, i), 1.0);
    for (std::size_t j = 0; j < series.size(); ++j) {
      EXPECT_DOUBLE_EQ(corr(i, j), corr(j, i));
    }
  }
}

TEST(ClusterAvgCorrelationTest, SingletonIsOneAndCoherentClusterHigh) {
  const auto series = TwoFamilies(4);
  ExecContext ctx(1);
  const la::Matrix corr = PairwiseCorrelationMatrix(series, ctx);
  EXPECT_DOUBLE_EQ(ClusterAvgCorrelation({0}, corr), 1.0);
  // Same-family cluster: high correlation. Mixed: lower.
  const double same = ClusterAvgCorrelation({0, 1, 2, 3}, corr);
  const double mixed = ClusterAvgCorrelation({0, 1, 4, 5}, corr);
  EXPECT_GT(same, 0.8);
  EXPECT_GT(same, mixed);
}

TEST(CorrelationGainTest, PrefersCoherentMerges) {
  const auto series = TwoFamilies(4);
  ExecContext ctx(1);
  const la::Matrix corr = PairwiseCorrelationMatrix(series, ctx);
  const double gain_same = CorrelationGain({0, 1}, {2, 3}, corr, series.size());
  const double gain_mixed = CorrelationGain({0, 1}, {4, 5}, corr, series.size());
  EXPECT_GT(gain_same, gain_mixed);
}

TEST(KShapeTest, SeparatesTwoFamilies) {
  const auto series = TwoFamilies(6);
  KShapeOptions opts;
  opts.k = 2;
  auto clustering = KShapeClustering(series, opts);
  ASSERT_TRUE(clustering.ok());
  ASSERT_EQ(clustering->NumClusters(), 2u);
  // Each cluster should be family-pure.
  for (const auto& cluster : clustering->clusters) {
    std::size_t fam0 = 0;
    for (std::size_t i : cluster) fam0 += i < 6 ? 1 : 0;
    EXPECT_TRUE(fam0 == 0 || fam0 == cluster.size())
        << "mixed cluster of size " << cluster.size();
  }
}

TEST(KShapeTest, EverySeriesAssignedExactlyOnce) {
  const auto series = TwoFamilies(5);
  KShapeOptions opts;
  opts.k = 3;
  auto clustering = KShapeClustering(series, opts);
  ASSERT_TRUE(clustering.ok());
  std::set<std::size_t> seen;
  for (const auto& cluster : clustering->clusters) {
    for (std::size_t i : cluster) {
      EXPECT_TRUE(seen.insert(i).second);
    }
  }
  EXPECT_EQ(seen.size(), series.size());
}

TEST(KShapeTest, RejectsEmptyInput) {
  EXPECT_FALSE(KShapeClustering({}, {}).ok());
}

TEST(KShapeTest, ZeroLengthSeriesAreInvalidArgument) {
  KShapeOptions opts;
  opts.k = 2;
  auto clustering =
      KShapeClustering({ts::TimeSeries(), ts::TimeSeries()}, opts);
  ASSERT_FALSE(clustering.ok());
  EXPECT_EQ(clustering.status().code(), StatusCode::kInvalidArgument);
}

TEST(KShapeTest, ClampsKToSeriesCount) {
  const std::vector<ts::TimeSeries> series = {MakeSine(64, 8.0),
                                              MakeSine(64, 9.0)};
  KShapeOptions opts;
  opts.k = 10;
  auto clustering = KShapeClustering(series, opts);
  ASSERT_TRUE(clustering.ok());
  EXPECT_LE(clustering->NumClusters(), 2u);
}

// The top-level split IncrementalClustering makes on the reference corpus
// (k = 96 * 0.2 = 19, 10 iterations, seed options.seed + 1), pinned as
// literals: any change to the k-shape kernels must keep every list.
TEST(KShapeTest, ReferenceCorpusClustersArePinned) {
  KShapeOptions opts;
  opts.k = 19;
  opts.max_iters = 10;
  opts.seed = 2;
  auto clustering = KShapeClustering(ReferenceCorpus(), opts);
  ASSERT_TRUE(clustering.ok());
  const std::vector<std::vector<std::size_t>> expected = {
      {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14, 15,
       16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31},
      {91},
      {32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47,
       48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63},
      {67, 73, 75, 85, 86, 95},
      {70, 72, 92},
      {80},
      {88},
      {84},
      {81},
      {71, 76, 82, 83},
      {94},
      {90},
      {68},
      {69, 74, 78},
      {64, 66},
      {79},
      {93},
      {65, 87},
      {77, 89},
  };
  EXPECT_EQ(clustering->clusters, expected);
}

TEST(KShapeVariantsTest, GridSearchReturnsReasonableClusterCount) {
  const auto series = TwoFamilies(5);
  ExecContext ctx(1);
  const la::Matrix corr = PairwiseCorrelationMatrix(series, ctx);
  auto clustering = KShapeGridSearch(series, 6, corr);
  ASSERT_TRUE(clustering.ok());
  EXPECT_GE(clustering->NumClusters(), 2u);
  EXPECT_LE(clustering->NumClusters(), 6u);
}

TEST(KShapeVariantsTest, IterativeSplitReachesThreshold) {
  const auto series = TwoFamilies(5);
  ExecContext ctx(1);
  const la::Matrix corr = PairwiseCorrelationMatrix(series, ctx);
  auto clustering = KShapeIterativeSplit(series, 0.7, corr);
  ASSERT_TRUE(clustering.ok());
  for (const auto& cluster : clustering->clusters) {
    EXPECT_GE(ClusterAvgCorrelation(cluster, corr), 0.7)
        << "cluster size " << cluster.size();
  }
}

TEST(IncrementalClusteringTest, MeetsCorrelationFloor) {
  const auto series = TwoFamilies(6);
  IncrementalOptions opts;
  opts.correlation_threshold = 0.75;
  ExecContext ctx;
  auto clustering = IncrementalClustering(series, opts, ctx);
  ASSERT_TRUE(clustering.ok());
  const la::Matrix corr = PairwiseCorrelationMatrix(series, ctx);
  // Phase 1 guarantees the threshold; phase-2 merges may relax it down to
  // the slack floor, never below.
  const double floor = opts.merge_correlation_slack * opts.correlation_threshold;
  for (const auto& cluster : clustering->clusters) {
    if (cluster.size() < 2) continue;
    EXPECT_GE(ClusterAvgCorrelation(cluster, corr), floor);
  }
}

TEST(IncrementalClusteringTest, CoversAllSeriesOnce) {
  const auto series = TwoFamilies(7);
  ExecContext ctx;
  auto clustering = IncrementalClustering(series, {}, ctx);
  ASSERT_TRUE(clustering.ok());
  std::set<std::size_t> seen;
  for (const auto& cluster : clustering->clusters) {
    for (std::size_t i : cluster) EXPECT_TRUE(seen.insert(i).second);
  }
  EXPECT_EQ(seen.size(), series.size());
}

TEST(IncrementalClusteringTest, MergePhaseAbsorbsNoisySingletons) {
  // The merge phase is what distinguishes incremental clustering from plain
  // iterative splitting (Fig. 11b: iterative explodes the cluster count):
  // noisy outlier series that pure splitting isolates forever are folded
  // back into their family when the correlation gain allows it.
  std::vector<ts::TimeSeries> series;
  for (std::size_t i = 0; i < 10; ++i) {
    series.push_back(MakeSine(96, 16.0, 0.05, 500 + i));  // clean family
  }
  for (std::size_t i = 0; i < 4; ++i) {
    series.push_back(MakeSine(96, 16.0, 0.9, 600 + i));  // noisy cousins
  }
  ExecContext ctx(1);
  const la::Matrix corr = PairwiseCorrelationMatrix(series, ctx);
  IncrementalOptions opts;
  opts.correlation_threshold = 0.85;
  opts.merge_correlation_slack = 0.7;
  opts.small_cluster_size = 4;
  auto incremental = IncrementalClustering(series, opts, ctx);
  auto iterative = KShapeIterativeSplit(series, 0.85, corr);
  ASSERT_TRUE(incremental.ok());
  ASSERT_TRUE(iterative.ok());
  EXPECT_LT(incremental->NumClusters(), iterative->NumClusters());
}

TEST(IncrementalClusteringTest, ReferenceCorpusClustersArePinned) {
  ExecContext ctx(2);
  auto clustering = IncrementalClustering(ReferenceCorpus(), {}, ctx);
  ASSERT_TRUE(clustering.ok());
  const std::vector<std::vector<std::size_t>> expected = {
      {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14, 15, 16, 17,
       18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 91, 80, 88, 81},
      {32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49,
       50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 70, 72, 92, 78},
      {67, 73, 75, 85, 86, 95, 90, 65, 87, 93, 77, 89, 69, 74, 68},
      {71, 76, 82, 83, 84},
      {79, 64, 66, 94},
  };
  EXPECT_EQ(clustering->clusters, expected);
}

TEST(IncrementalClusteringTest, HighlyCorrelatedCorpusStaysOneCluster) {
  // All series nearly identical: no split should happen.
  std::vector<ts::TimeSeries> series;
  for (std::size_t i = 0; i < 8; ++i) {
    series.push_back(MakeSine(96, 24.0, 0.01, 400 + i));
  }
  ExecContext ctx;
  auto clustering = IncrementalClustering(series, {}, ctx);
  ASSERT_TRUE(clustering.ok());
  EXPECT_EQ(clustering->NumClusters(), 1u);
}

}  // namespace
}  // namespace adarts::cluster
