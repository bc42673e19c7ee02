#ifndef ADARTS_CLUSTER_CLUSTERING_H_
#define ADARTS_CLUSTER_CLUSTERING_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/status.h"
#include "la/matrix.h"
#include "ts/time_series.h"

namespace adarts {
class ExecContext;
}  // namespace adarts

namespace adarts::cluster {

/// A partition of series indices into clusters.
struct Clustering {
  std::vector<std::vector<std::size_t>> clusters;

  std::size_t NumClusters() const { return clusters.size(); }
};

/// Pairwise Pearson correlation matrix of a series set (symmetric, unit
/// diagonal). Train computes it once over the whole corpus, in
/// `IncrementalClustering` for the split decisions;
/// `labeling::LabelByClusters` computes each cluster's own block for
/// representative selection. The n*(n-1)/2 upper-triangle pairs fan out
/// over `ctx`'s shared pool (serial contexts never construct one); each
/// task owns exactly one pair index k, decoded to (i, j) with
/// `PairFromIndex`, and writes only the two mirrored slots (i, j) / (j, i)
/// — the matrix is bit-identical for every thread count. The wall-clock
/// accumulates into the `cluster.correlation_seconds` span of `ctx`'s
/// metrics.
la::Matrix PairwiseCorrelationMatrix(const std::vector<ts::TimeSeries>& series,
                                     ExecContext& ctx);

/// Decodes a linear upper-triangle pair index into its (row, col) pair,
/// row < col, over an n x n matrix: index 0 is (0, 1), index n-2 is
/// (0, n-1), index n-1 is (1, 2), ..., index n*(n-1)/2 - 1 is (n-2, n-1).
/// Exposed for the parallel tests; `k` must be < n*(n-1)/2.
std::pair<std::size_t, std::size_t> PairFromIndex(std::size_t k, std::size_t n);

/// Average absolute pairwise correlation inside one cluster (rho-bar of
/// Algorithm 2); 1.0 for singletons.
double ClusterAvgCorrelation(const std::vector<std::size_t>& cluster,
                             const la::Matrix& corr);

/// Mean of ClusterAvgCorrelation over all clusters, weighted by cluster
/// size (the Fig. 11a quality measure).
double AverageIntraClusterCorrelation(const Clustering& clustering,
                                      const la::Matrix& corr);

/// Correlation gain of merging clusters `a` and `b` (Definition 1):
/// Delta G = (1/2m) * (rho(a u b) - rho(a) * rho(b) / m).
double CorrelationGain(const std::vector<std::size_t>& a,
                       const std::vector<std::size_t>& b, const la::Matrix& corr,
                       std::size_t total_series);

}  // namespace adarts::cluster

#endif  // ADARTS_CLUSTER_CLUSTERING_H_
