#ifndef ADARTS_IMPUTE_FACTORIZATION_H_
#define ADARTS_IMPUTE_FACTORIZATION_H_

#include <cstddef>

#include "impute/imputer.h"

namespace adarts::impute {

/// Temporal regularized matrix factorization (Yu et al. 2016): X ~ F G^T
/// where the time factors F are pulled towards temporal smoothness. Solved
/// by alternating ridge least squares with a Gauss-Seidel pass over the
/// time factors.
class TrmfImputer final : public Imputer {
 public:
  explicit TrmfImputer(std::size_t rank = 3, double lambda_temporal = 0.5,
                       double lambda_ridge = 0.1, int max_iters = 25,
                       double tol = 1e-5)
      : rank_(rank),
        lambda_temporal_(lambda_temporal),
        lambda_ridge_(lambda_ridge),
        max_iters_(max_iters),
        tol_(tol) {}
  std::string_view name() const override { return "trmf"; }

 private:
  Result<std::vector<ts::TimeSeries>> Fit(
      const std::vector<ts::TimeSeries>& set,
      FitDiagnostics* diagnostics) const override;

  std::size_t rank_;
  double lambda_temporal_;
  double lambda_ridge_;
  int max_iters_;
  double tol_;
};

/// Nonnegative matrix factorization recovery (Mei et al. 2017 style):
/// shifts the data to the nonnegative orthant and runs mask-weighted
/// multiplicative updates W H, imputing from the product.
class TeNmfImputer final : public Imputer {
 public:
  explicit TeNmfImputer(std::size_t rank = 3, int max_iters = 120,
                        double tol = 1e-5)
      : rank_(rank), max_iters_(max_iters), tol_(tol) {}
  std::string_view name() const override { return "tenmf"; }

 private:
  Result<std::vector<ts::TimeSeries>> Fit(
      const std::vector<ts::TimeSeries>& set,
      FitDiagnostics* diagnostics) const override;

  std::size_t rank_;
  int max_iters_;
  double tol_;
};

}  // namespace adarts::impute

#endif  // ADARTS_IMPUTE_FACTORIZATION_H_
