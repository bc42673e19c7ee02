#include "tda/delay_embedding.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace adarts::tda {

Result<PointCloud> DelayEmbed(const la::Vector& signal, std::size_t dimension,
                              std::size_t tau) {
  if (dimension == 0 || tau == 0) {
    return Status::InvalidArgument("embedding dimension and tau must be > 0");
  }
  const std::size_t span = (dimension - 1) * tau;
  if (signal.size() <= span) {
    return Status::InvalidArgument("series too short for delay embedding");
  }
  const std::size_t count = signal.size() - span;
  PointCloud cloud(count, la::Vector(dimension));
  for (std::size_t j = 0; j < count; ++j) {
    for (std::size_t k = 0; k < dimension; ++k) {
      cloud[j][k] = signal[j + k * tau];
    }
  }
  return cloud;
}

PointCloud MaxMinLandmarks(const PointCloud& cloud,
                           std::size_t num_landmarks) {
  if (cloud.size() <= num_landmarks) return cloud;
  PointCloud landmarks;
  landmarks.reserve(num_landmarks);
  std::vector<double> min_dist(cloud.size(),
                               std::numeric_limits<double>::infinity());
  std::size_t next = 0;
  for (std::size_t k = 0; k < num_landmarks; ++k) {
    landmarks.push_back(cloud[next]);
    // Update each point's distance to the landmark set and pick the point
    // farthest from it.
    double best = -1.0;
    std::size_t best_idx = 0;
    for (std::size_t i = 0; i < cloud.size(); ++i) {
      const double d = EuclideanDistance(cloud[i], cloud[next]);
      min_dist[i] = std::min(min_dist[i], d);
      if (min_dist[i] > best) {
        best = min_dist[i];
        best_idx = i;
      }
    }
    next = best_idx;
  }
  return landmarks;
}

double EuclideanDistance(const la::Vector& a, const la::Vector& b) {
  ADARTS_CHECK(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

}  // namespace adarts::tda
