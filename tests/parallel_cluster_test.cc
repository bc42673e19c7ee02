// Determinism tests of the parallel clustering path: the pair-index-slotted
// PairwiseCorrelationMatrix, IncrementalClustering's pooled candidate
// evaluation, and LabelByClusters on top of both must produce bit-identical
// results for every thread count, plus the degenerate-corpus edge cases.

#include <cstddef>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/clustering.h"
#include "cluster/incremental.h"
#include "common/exec_context.h"
#include "data/generators.h"
#include "labeling/labeler.h"
#include "tests/test_util.h"

namespace adarts::cluster {
namespace {

using ::adarts::testing::MakeSine;
using ::adarts::testing::TestThreadCount;

std::vector<ts::TimeSeries> MixedCorpus(std::size_t per_category = 4,
                                        std::size_t length = 128) {
  data::GeneratorOptions gopts;
  gopts.num_series = per_category;
  gopts.length = length;
  return data::GenerateMixedCorpus(1, gopts);
}

ts::TimeSeries ConstantSeries(std::size_t length, double value) {
  return ts::TimeSeries(la::Vector(length, value));
}

// ---- Pair-index decoding.

TEST(ParallelClusterPairIndexTest, EnumeratesUpperTriangleInOrder) {
  for (std::size_t n : {2u, 3u, 4u, 7u, 12u, 33u}) {
    std::size_t k = 0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j, ++k) {
        const auto [row, col] = PairFromIndex(k, n);
        EXPECT_EQ(row, i) << "k=" << k << " n=" << n;
        EXPECT_EQ(col, j) << "k=" << k << " n=" << n;
      }
    }
    EXPECT_EQ(k, n * (n - 1) / 2);
  }
}

// ---- Bit-identity across thread counts.

TEST(ParallelClusterDeterminismTest, CorrelationMatrixBitIdentical) {
  const auto corpus = MixedCorpus();
  ExecContext serial_ctx(1);
  const la::Matrix serial = PairwiseCorrelationMatrix(corpus, serial_ctx);
  ExecContext parallel_ctx(TestThreadCount());
  const la::Matrix parallel = PairwiseCorrelationMatrix(corpus, parallel_ctx);
  ASSERT_EQ(parallel.rows(), serial.rows());
  ASSERT_EQ(parallel.cols(), serial.cols());
  for (std::size_t i = 0; i < serial.rows(); ++i) {
    for (std::size_t j = 0; j < serial.cols(); ++j) {
      EXPECT_EQ(parallel(i, j), serial(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

TEST(ParallelClusterDeterminismTest, ClusterAssignmentsBitIdentical) {
  const auto corpus = MixedCorpus();
  IncrementalOptions opts;
  opts.correlation_threshold = 0.75;
  ExecContext serial_ctx(1);
  ExecContext parallel_ctx(TestThreadCount());

  auto a = IncrementalClustering(corpus, opts, serial_ctx);
  auto b = IncrementalClustering(corpus, opts, parallel_ctx);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->clusters, b->clusters);
}

TEST(ParallelClusterDeterminismTest, ClusterLabelsBitIdentical) {
  const auto corpus = MixedCorpus(3, 96);
  ExecContext serial_ctx(1);
  ExecContext parallel_ctx(TestThreadCount());
  auto clustering = IncrementalClustering(corpus, {}, serial_ctx);
  ASSERT_TRUE(clustering.ok()) << clustering.status();

  labeling::LabelingOptions opts;
  opts.algorithms = {impute::Algorithm::kCdRec, impute::Algorithm::kSvdImpute,
                     impute::Algorithm::kLinearInterp};

  auto a = labeling::LabelByClusters(corpus, *clustering, opts, serial_ctx);
  auto b = labeling::LabelByClusters(corpus, *clustering, opts, parallel_ctx);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->labels, b->labels);
  EXPECT_EQ(a->imputation_runs, b->imputation_runs);
  ASSERT_EQ(a->rmse.rows(), b->rmse.rows());
  ASSERT_EQ(a->rmse.cols(), b->rmse.cols());
  for (std::size_t r = 0; r < a->rmse.rows(); ++r) {
    for (std::size_t c = 0; c < a->rmse.cols(); ++c) {
      EXPECT_EQ(a->rmse(r, c), b->rmse(r, c));
    }
  }
}

// ---- Degenerate corpora.

TEST(ParallelClusterEdgeCaseTest, EmptyCorpusRejectedByClustering) {
  ExecContext ctx;
  auto clustering = IncrementalClustering({}, {}, ctx);
  ASSERT_FALSE(clustering.ok());
  EXPECT_EQ(clustering.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParallelClusterEdgeCaseTest, EmptyCorpusCorrelationMatrixIsEmpty) {
  ExecContext ctx(TestThreadCount());
  const la::Matrix corr = PairwiseCorrelationMatrix({}, ctx);
  EXPECT_EQ(corr.rows(), 0u);
  EXPECT_EQ(corr.cols(), 0u);
}

TEST(ParallelClusterEdgeCaseTest, SingleSeriesIsOneSingletonCluster) {
  const std::vector<ts::TimeSeries> one = {MakeSine(64, 8.0)};
  ExecContext ctx(TestThreadCount());
  const la::Matrix corr = PairwiseCorrelationMatrix(one, ctx);
  ASSERT_EQ(corr.rows(), 1u);
  EXPECT_EQ(corr(0, 0), 1.0);
  auto clustering = IncrementalClustering(one, {}, ctx);
  ASSERT_TRUE(clustering.ok()) << clustering.status();
  ASSERT_EQ(clustering->NumClusters(), 1u);
  EXPECT_EQ(clustering->clusters[0], std::vector<std::size_t>{0});
}

TEST(ParallelClusterEdgeCaseTest, ConstantSeriesAmongVaryingOnesIsHandled) {
  // A zero-variance series has no defined correlation; Pearson resolves it
  // to 0.0, and the clustering must stay well-formed and thread-independent.
  std::vector<ts::TimeSeries> corpus;
  for (std::size_t i = 0; i < 6; ++i) {
    corpus.push_back(MakeSine(96, 16.0, 0.05, 700 + i));
  }
  corpus.push_back(ConstantSeries(96, 3.5));

  ExecContext serial_ctx(1);
  const la::Matrix serial = PairwiseCorrelationMatrix(corpus, serial_ctx);
  ExecContext parallel_ctx(TestThreadCount());
  const la::Matrix parallel = PairwiseCorrelationMatrix(corpus, parallel_ctx);
  const std::size_t constant_idx = corpus.size() - 1;
  for (std::size_t j = 0; j < corpus.size(); ++j) {
    if (j != constant_idx) {
      EXPECT_EQ(serial(constant_idx, j), 0.0);
    }
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(parallel(i, j), serial(i, j));
    }
  }

  ExecContext ctx(TestThreadCount());
  auto clustering = IncrementalClustering(corpus, {}, ctx);
  ASSERT_TRUE(clustering.ok()) << clustering.status();
  std::size_t covered = 0;
  for (const auto& c : clustering->clusters) covered += c.size();
  EXPECT_EQ(covered, corpus.size());
}

TEST(ParallelClusterEdgeCaseTest, AllConstantCorpusReturnsInvalidArgument) {
  // Regression: an all-constant corpus used to fall through to a correlation
  // matrix of undefined values instead of failing cleanly.
  std::vector<ts::TimeSeries> corpus;
  for (std::size_t i = 0; i < 5; ++i) {
    corpus.push_back(ConstantSeries(64, static_cast<double>(i)));
  }
  for (std::size_t threads : {std::size_t{1}, TestThreadCount()}) {
    ExecContext ctx(threads);
    auto clustering = IncrementalClustering(corpus, {}, ctx);
    ASSERT_FALSE(clustering.ok());
    EXPECT_EQ(clustering.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace adarts::cluster
