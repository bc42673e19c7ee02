#ifndef ADARTS_TDA_DELAY_EMBEDDING_H_
#define ADARTS_TDA_DELAY_EMBEDDING_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "la/vector_ops.h"

namespace adarts::tda {

/// A point cloud in R^d, one point per row.
using PointCloud = std::vector<la::Vector>;

/// Takens time-delay embedding: maps the series x into points
/// v_p(j) = (x_j, x_{j+tau}, ..., x_{j+(d-1)tau}) as in Fig. 4b of the
/// paper. Requires the series to be long enough for at least one vector.
Result<PointCloud> DelayEmbed(const la::Vector& signal, std::size_t dimension,
                              std::size_t tau);

/// Greedy maxmin (farthest-point) landmark selection, reducing a cloud to at
/// most `num_landmarks` well-spread points so that Rips persistence stays
/// tractable. Deterministic: starts from the first point.
PointCloud MaxMinLandmarks(const PointCloud& cloud, std::size_t num_landmarks);

/// Euclidean distance between two points of equal dimension.
double EuclideanDistance(const la::Vector& a, const la::Vector& b);

}  // namespace adarts::tda

#endif  // ADARTS_TDA_DELAY_EMBEDDING_H_
