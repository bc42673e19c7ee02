#ifndef ADARTS_CLUSTER_KSHAPE_H_
#define ADARTS_CLUSTER_KSHAPE_H_

#include <cstddef>
#include <cstdint>

#include "cluster/clustering.h"

namespace adarts::cluster {

/// Options for k-shape (Paparrizos & Gravano 2015): the Fig. 11 baseline
/// and the sub-clusterer of IncrementalClustering's split phase.
struct KShapeOptions {
  std::size_t k = 8;        ///< number of clusters (paper default)
  int max_iters = 20;       ///< refinement iterations
  std::uint64_t seed = 1;   ///< picks the first farthest-first centroid
};

/// Shape-based clustering: assigns series to the centroid with minimal
/// shape-based distance (1 - max NCC_c) and re-extracts centroids by power
/// iteration on the aligned, centred Gram operator. Each alignment costs one
/// spectrum product and one inverse FFT. The series must share one non-zero
/// length (InvalidArgument otherwise).
Result<Clustering> KShapeClustering(const std::vector<ts::TimeSeries>& series,
                                    const KShapeOptions& options = {});

/// Fig. 11 variant: grid-searches k in [2, max_k] and returns the clustering
/// with the best average intra-cluster correlation (the "ground truth"
/// cluster count at a very high runtime cost).
Result<Clustering> KShapeGridSearch(const std::vector<ts::TimeSeries>& series,
                                    std::size_t max_k,
                                    const la::Matrix& corr,
                                    std::uint64_t seed = 1);

/// Fig. 11 variant: iteratively splits every cluster whose average
/// correlation is below `threshold` with 2-shape, without any merge phase —
/// high correlation but a cluster explosion.
Result<Clustering> KShapeIterativeSplit(
    const std::vector<ts::TimeSeries>& series, double threshold,
    const la::Matrix& corr, std::uint64_t seed = 1);

}  // namespace adarts::cluster

#endif  // ADARTS_CLUSTER_KSHAPE_H_
