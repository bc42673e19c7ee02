#ifndef ADARTS_IMPUTE_SVD_FAMILY_H_
#define ADARTS_IMPUTE_SVD_FAMILY_H_

#include <cstddef>

#include "impute/imputer.h"

namespace adarts::impute {

/// Iterative rank-k SVD completion (SVDImpute, Troyanskaya et al. 2001):
/// alternate between a truncated SVD reconstruction and re-imposing the
/// observed entries until the missing entries stabilise.
class SvdImputer final : public Imputer {
 public:
  explicit SvdImputer(std::size_t rank = 3, int max_iters = 40,
                      double tol = 1e-5)
      : rank_(rank), max_iters_(max_iters), tol_(tol) {}
  std::string_view name() const override { return "svd_impute"; }

 private:
  Result<std::vector<ts::TimeSeries>> Fit(
      const std::vector<ts::TimeSeries>& set,
      FitDiagnostics* diagnostics) const override;

  std::size_t rank_;
  int max_iters_;
  double tol_;
};

/// SoftImpute (Mazumder et al. 2010): iterate X <- S_lambda(P_O(X) +
/// P_Oc(X_hat)) where S_lambda soft-thresholds the singular values.
class SoftImputer final : public Imputer {
 public:
  /// lambda_ratio scales the threshold relative to the top singular value.
  explicit SoftImputer(double lambda_ratio = 0.15, int max_iters = 60,
                       double tol = 1e-5)
      : lambda_ratio_(lambda_ratio), max_iters_(max_iters), tol_(tol) {}
  std::string_view name() const override { return "soft_impute"; }

 private:
  Result<std::vector<ts::TimeSeries>> Fit(
      const std::vector<ts::TimeSeries>& set,
      FitDiagnostics* diagnostics) const override;

  double lambda_ratio_;
  int max_iters_;
  double tol_;
};

/// Singular value thresholding (Cai, Candès, Shen 2010): gradient iteration
/// Y <- Y + delta * P_O(X - S_tau(Y)), returning S_tau(Y) at missing
/// entries.
class SvtImputer final : public Imputer {
 public:
  explicit SvtImputer(double tau_ratio = 0.2, double step = 1.2,
                      int max_iters = 80, double tol = 1e-5)
      : tau_ratio_(tau_ratio), step_(step), max_iters_(max_iters), tol_(tol) {}
  std::string_view name() const override { return "svt"; }

 private:
  Result<std::vector<ts::TimeSeries>> Fit(
      const std::vector<ts::TimeSeries>& set,
      FitDiagnostics* diagnostics) const override;

  double tau_ratio_;
  double step_;
  int max_iters_;
  double tol_;
};

/// Robust orthonormal subspace learning (Shu et al. 2014), simplified to the
/// missing-value setting: alternate a rank-k subspace fit with a sparse
/// outlier component E soft-thresholded on the observed entries, and impute
/// from the low-rank part.
class RoslImputer final : public Imputer {
 public:
  explicit RoslImputer(std::size_t rank = 3, double sparsity = 0.1,
                       int max_iters = 30, double tol = 1e-5)
      : rank_(rank), sparsity_(sparsity), max_iters_(max_iters), tol_(tol) {}
  std::string_view name() const override { return "rosl"; }

 private:
  Result<std::vector<ts::TimeSeries>> Fit(
      const std::vector<ts::TimeSeries>& set,
      FitDiagnostics* diagnostics) const override;

  std::size_t rank_;
  double sparsity_;
  int max_iters_;
  double tol_;
};

}  // namespace adarts::impute

#endif  // ADARTS_IMPUTE_SVD_FAMILY_H_
