#include "tda/persistence.h"

#include <algorithm>
#include <numeric>

namespace adarts::tda {

namespace {

/// Disjoint-set forest with path compression and union by size.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Returns false if already in the same set.
  bool Union(std::size_t a, std::size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

struct Edge {
  std::size_t i;
  std::size_t j;
  double dist;
};

struct Triangle {
  // Edge indices in filtration order; filtration value = longest edge.
  int e0;
  int e1;
  int e2;
  double filtration;
};

}  // namespace

std::vector<PersistencePair> PersistenceDiagram::Dimension(int dim) const {
  std::vector<PersistencePair> out;
  for (const auto& p : pairs) {
    if (p.dimension == dim) out.push_back(p);
  }
  return out;
}

Result<PersistenceDiagram> ComputeRipsPersistence(const PointCloud& cloud) {
  const std::size_t n = cloud.size();
  if (n < 2) return Status::InvalidArgument("Rips needs at least two points");

  // Edge filtration, sorted ascending by length.
  std::vector<Edge> edges;
  edges.reserve(n * (n - 1) / 2);
  double max_filtration = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d = EuclideanDistance(cloud[i], cloud[j]);
      edges.push_back({i, j, d});
      max_filtration = std::max(max_filtration, d);
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.dist != b.dist) return a.dist < b.dist;
    if (a.i != b.i) return a.i < b.i;
    return a.j < b.j;
  });

  PersistenceDiagram diagram;
  diagram.max_filtration = max_filtration;

  // --- H0 via union-find over the sorted edges. Edges that join two
  // components kill an H0 class; the rest create cycles (H1 candidates).
  UnionFind uf(n);
  std::vector<bool> creates_cycle(edges.size(), false);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (uf.Union(edges[e].i, edges[e].j)) {
      diagram.pairs.push_back({0, 0.0, edges[e].dist});
    } else {
      creates_cycle[e] = true;
    }
  }
  // The essential component is capped at the maximum filtration value.
  diagram.pairs.push_back({0, 0.0, max_filtration});

  // Edge-index lookup for triangle construction.
  std::vector<int> edge_index(n * n, -1);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    edge_index[edges[e].i * n + edges[e].j] = static_cast<int>(e);
  }
  const auto eidx = [&](std::size_t a, std::size_t b) {
    return a < b ? edge_index[a * n + b] : edge_index[b * n + a];
  };

  std::vector<Triangle> triangles;
  triangles.reserve(n * (n - 1) * (n - 2) / 6);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      for (std::size_t k = j + 1; k < n; ++k) {
        const int e0 = eidx(i, j);
        const int e1 = eidx(i, k);
        const int e2 = eidx(j, k);
        const double f = std::max(
            {edges[e0].dist, edges[e1].dist, edges[e2].dist});
        triangles.push_back({e0, e1, e2, f});
      }
    }
  }
  std::sort(triangles.begin(), triangles.end(),
            [](const Triangle& a, const Triangle& b) {
              return a.filtration < b.filtration;
            });

  // Z/2 boundary-matrix reduction: each triangle column holds its three
  // edge indices; the pivot is the column's maximum (latest) edge.
  std::vector<int> pivot_owner(edges.size(), -1);
  std::vector<std::vector<int>> reduced_columns;
  reduced_columns.reserve(triangles.size());
  std::vector<int> scratch;

  for (const Triangle& tri : triangles) {
    std::vector<int> col = {tri.e0, tri.e1, tri.e2};
    std::sort(col.begin(), col.end());
    while (!col.empty()) {
      const int pivot = col.back();
      const int owner = pivot_owner[pivot];
      if (owner < 0) break;
      // col ^= reduced_columns[owner]  (symmetric difference over Z/2).
      const std::vector<int>& other = reduced_columns[owner];
      scratch.clear();
      std::set_symmetric_difference(col.begin(), col.end(), other.begin(),
                                    other.end(),
                                    std::back_inserter(scratch));
      col.swap(scratch);
    }
    if (!col.empty()) {
      const int pivot = col.back();
      pivot_owner[pivot] = static_cast<int>(reduced_columns.size());
      reduced_columns.push_back(std::move(col));
      const double birth = edges[static_cast<std::size_t>(pivot)].dist;
      const double death = tri.filtration;
      if (death > birth) {
        diagram.pairs.push_back({1, birth, death});
      }
    } else {
      reduced_columns.emplace_back();
    }
  }

  // Cycle-creating edges never claimed as a pivot are essential 1-cycles;
  // cap their death at the maximum filtration value.
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (creates_cycle[e] && pivot_owner[e] < 0 &&
        max_filtration > edges[e].dist) {
      diagram.pairs.push_back({1, edges[e].dist, max_filtration});
    }
  }

  return diagram;
}

}  // namespace adarts::tda
