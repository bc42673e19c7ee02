#include "impute/svd_family.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/failpoint.h"
#include "impute/masked_matrix.h"
#include "la/decompositions.h"

namespace adarts::impute {

namespace {

/// Passes every singular value to ShrunkReconstruction.
constexpr std::size_t kAllRanks = std::numeric_limits<std::size_t>::max();

/// Reconstruction from the top `rank` singular triplets with every singular
/// value shrunk by `threshold`: 0 is the rank-k truncation U_k S_k V_k^T,
/// a positive threshold over kAllRanks is soft thresholding.
Result<la::Matrix> ShrunkReconstruction(const la::Matrix& x, std::size_t rank,
                                        double threshold) {
  ADARTS_ASSIGN_OR_RETURN(la::SvdResult svd, la::ComputeSvd(x));
  const std::size_t k =
      std::min<std::size_t>(rank, svd.singular_values.size());
  la::Matrix out(x.rows(), x.cols());
  for (std::size_t r = 0; r < k; ++r) {
    const double s = std::max(svd.singular_values[r] - threshold, 0.0);
    if (s <= 0.0) break;  // singular values are sorted descending
    for (std::size_t i = 0; i < x.rows(); ++i) {
      const double us = svd.u(i, r) * s;
      for (std::size_t j = 0; j < x.cols(); ++j) {
        out(i, j) += us * svd.v(j, r);
      }
    }
  }
  return out;
}

double TopSingularValue(const la::Matrix& x) {
  auto svd = la::ComputeSvd(x);
  if (!svd.ok() || svd->singular_values.empty()) return 1.0;
  return std::max(svd->singular_values[0], 1e-12);
}

}  // namespace

Result<std::vector<ts::TimeSeries>> SvdImputer::Fit(
    const std::vector<ts::TimeSeries>& set, FitDiagnostics* diagnostics) const {
  ADARTS_FAILPOINT("impute.svd.fit");
  ADARTS_ASSIGN_OR_RETURN(MaskedMatrix m, BuildMaskedMatrix(set));
  la::Matrix x = m.values;
  const std::size_t rank =
      std::min<std::size_t>(rank_, std::min(x.rows(), x.cols()));
  const auto step = [&]() -> Result<double> {
    ADARTS_ASSIGN_OR_RETURN(la::Matrix recon,
                            ShrunkReconstruction(x, rank, 0.0));
    RestoreObserved(m, &recon);
    const double change = RelativeChange(recon, x);
    x = std::move(recon);
    return change;
  };
  ADARTS_RETURN_NOT_OK(
      IterateUntilConverged(max_iters_, tol_, diagnostics, step));
  return MatrixToSeries(x, set);
}

Result<std::vector<ts::TimeSeries>> SoftImputer::Fit(
    const std::vector<ts::TimeSeries>& set, FitDiagnostics* diagnostics) const {
  ADARTS_FAILPOINT("impute.soft.fit");
  ADARTS_ASSIGN_OR_RETURN(MaskedMatrix m, BuildMaskedMatrix(set));
  la::Matrix x = m.values;
  const double lambda = lambda_ratio_ * TopSingularValue(x);
  const auto step = [&]() -> Result<double> {
    ADARTS_ASSIGN_OR_RETURN(la::Matrix recon,
                            ShrunkReconstruction(x, kAllRanks, lambda));
    RestoreObserved(m, &recon);
    const double change = RelativeChange(recon, x);
    x = std::move(recon);
    return change;
  };
  ADARTS_RETURN_NOT_OK(
      IterateUntilConverged(max_iters_, tol_, diagnostics, step));
  return MatrixToSeries(x, set);
}

Result<std::vector<ts::TimeSeries>> SvtImputer::Fit(
    const std::vector<ts::TimeSeries>& set, FitDiagnostics* diagnostics) const {
  ADARTS_FAILPOINT("impute.svt.fit");
  ADARTS_ASSIGN_OR_RETURN(MaskedMatrix m, BuildMaskedMatrix(set));
  const double tau = tau_ratio_ * TopSingularValue(m.values);

  // Y accumulates the dual variable; start from the observed projection.
  la::Matrix y = m.values;
  la::Matrix z = m.values;
  const auto step = [&]() -> Result<double> {
    ADARTS_ASSIGN_OR_RETURN(la::Matrix znew,
                            ShrunkReconstruction(y, kAllRanks, tau));
    const double change = RelativeChange(znew, z);
    z = std::move(znew);
    // Gradient step on observed residuals only.
    for (std::size_t t = 0; t < m.rows(); ++t) {
      for (std::size_t j = 0; j < m.cols(); ++j) {
        if (!m.missing[t][j]) {
          y(t, j) += step_ * (m.values(t, j) - z(t, j));
        }
      }
    }
    return change;
  };
  ADARTS_RETURN_NOT_OK(
      IterateUntilConverged(max_iters_, tol_, diagnostics, step));
  return MatrixToSeries(z, set);
}

Result<std::vector<ts::TimeSeries>> RoslImputer::Fit(
    const std::vector<ts::TimeSeries>& set, FitDiagnostics* diagnostics) const {
  ADARTS_FAILPOINT("impute.rosl.fit");
  ADARTS_ASSIGN_OR_RETURN(MaskedMatrix m, BuildMaskedMatrix(set));
  la::Matrix x = m.values;
  la::Matrix sparse(x.rows(), x.cols());
  const std::size_t rank =
      std::min<std::size_t>(rank_, std::min(x.rows(), x.cols()));
  // Sparse threshold relative to the observed scale.
  double scale = 0.0;
  for (std::size_t t = 0; t < m.rows(); ++t) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      scale = std::max(scale, std::fabs(m.values(t, j)));
    }
  }
  const double thr = sparsity_ * scale;

  la::Matrix lowrank = x;
  const auto step = [&]() -> Result<double> {
    // Low-rank fit of the outlier-cleaned matrix.
    ADARTS_ASSIGN_OR_RETURN(
        la::Matrix fit, ShrunkReconstruction(x.Subtract(sparse), rank, 0.0));
    const double change = RelativeChange(fit, lowrank);
    lowrank = std::move(fit);
    // Sparse component: soft-threshold the observed residuals.
    for (std::size_t t = 0; t < m.rows(); ++t) {
      for (std::size_t j = 0; j < m.cols(); ++j) {
        if (m.missing[t][j]) {
          sparse(t, j) = 0.0;
          x(t, j) = lowrank(t, j);  // refine the fill from the subspace
        } else {
          const double r = m.values(t, j) - lowrank(t, j);
          sparse(t, j) = std::copysign(std::max(std::fabs(r) - thr, 0.0), r);
        }
      }
    }
    return change;
  };
  ADARTS_RETURN_NOT_OK(
      IterateUntilConverged(max_iters_, tol_, diagnostics, step));
  return MatrixToSeries(lowrank, set);
}

}  // namespace adarts::impute
