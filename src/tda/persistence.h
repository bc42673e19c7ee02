#ifndef ADARTS_TDA_PERSISTENCE_H_
#define ADARTS_TDA_PERSISTENCE_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "tda/delay_embedding.h"

namespace adarts::tda {

/// One point (b_i, d_i) of a persistence diagram: a topological pattern born
/// at filtration value `birth` and destroyed at `death` (Fig. 4c).
struct PersistencePair {
  int dimension = 0;  ///< homology dimension (0 = components, 1 = loops)
  double birth = 0.0;
  double death = 0.0;

  double Lifetime() const { return death - birth; }
};

/// A persistence diagram: the multiset of finite birth/death pairs produced
/// by the Vietoris-Rips filtration. Essential classes (which never die) are
/// capped at the maximum filtration value so diagram statistics stay finite.
struct PersistenceDiagram {
  std::vector<PersistencePair> pairs;
  double max_filtration = 0.0;

  /// Pairs of the given dimension, in filtration order.
  std::vector<PersistencePair> Dimension(int dim) const;
};

/// Computes the Vietoris-Rips persistence diagram (H0 and H1, every pair
/// kept) of a point cloud.
///
/// H0 is computed by a union-find pass over the edge filtration; H1 by
/// standard Z/2 boundary-matrix reduction over the triangle columns. The
/// cloud should be small (landmark-subsampled); cost is O(n^3) triangles.
Result<PersistenceDiagram> ComputeRipsPersistence(const PointCloud& cloud);

}  // namespace adarts::tda

#endif  // ADARTS_TDA_PERSISTENCE_H_
