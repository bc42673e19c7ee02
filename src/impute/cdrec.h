#ifndef ADARTS_IMPUTE_CDREC_H_
#define ADARTS_IMPUTE_CDREC_H_

#include <cstddef>

#include "common/status.h"
#include "impute/imputer.h"
#include "la/matrix.h"

namespace adarts::impute {

/// Centroid decomposition of X into L * R^T with `rank` centroid
/// components. The sign vector of each component is found by the greedy
/// scalable-sign-vector iteration. Exposed for testing.
struct CentroidDecomposition {
  la::Matrix loadings;   ///< rows x rank
  la::Matrix relevance;  ///< cols x rank
};

/// Computes the rank-`rank` centroid decomposition of `x`.
Result<CentroidDecomposition> ComputeCentroidDecomposition(const la::Matrix& x,
                                                           std::size_t rank);

/// CDRec (Khayati et al.): memory-efficient recovery of missing blocks via
/// iterative truncated centroid decomposition, the reference algorithm of
/// the ImputeBench family for highly correlated sets.
class CdRecImputer final : public Imputer {
 public:
  explicit CdRecImputer(std::size_t rank = 3, int max_iters = 40,
                        double tol = 1e-5)
      : rank_(rank), max_iters_(max_iters), tol_(tol) {}
  std::string_view name() const override { return "cdrec"; }

 private:
  Result<std::vector<ts::TimeSeries>> Fit(
      const std::vector<ts::TimeSeries>& set,
      FitDiagnostics* diagnostics) const override;

  std::size_t rank_;
  int max_iters_;
  double tol_;
};

}  // namespace adarts::impute

#endif  // ADARTS_IMPUTE_CDREC_H_
