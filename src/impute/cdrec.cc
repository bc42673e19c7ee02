#include "impute/cdrec.h"

#include <algorithm>
#include <cmath>

#include "common/failpoint.h"
#include "impute/masked_matrix.h"
#include "la/vector_ops.h"

namespace adarts::impute {

namespace {

/// Greedy scalable-sign-vector search: finds z in {-1, +1}^rows maximising
/// ||X^T z||_2 by flipping one sign at a time while the objective improves.
std::vector<double> FindSignVector(const la::Matrix& x) {
  const std::size_t m = x.rows();
  const std::size_t n = x.cols();
  std::vector<double> z(m, 1.0);

  // s = X^T z, maintained incrementally.
  la::Vector s(n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) s[j] += x(i, j);
  }

  // Precompute row norms for the flip deltas.
  la::Vector row_sq(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) row_sq[i] += x(i, j) * x(i, j);
  }

  const int max_passes = 100;
  for (int pass = 0; pass < max_passes; ++pass) {
    double best_delta = 0.0;
    std::size_t best_i = m;
    for (std::size_t i = 0; i < m; ++i) {
      // Flipping z_i changes ||s||^2 by -4 z_i (x_i . s) + 4 ||x_i||^2.
      double dot = 0.0;
      for (std::size_t j = 0; j < n; ++j) dot += x(i, j) * s[j];
      const double delta = -4.0 * z[i] * dot + 4.0 * row_sq[i];
      if (delta > best_delta + 1e-12) {
        best_delta = delta;
        best_i = i;
      }
    }
    if (best_i == m) break;
    // Apply the flip and update s.
    const double zi_old = z[best_i];
    z[best_i] = -zi_old;
    for (std::size_t j = 0; j < n; ++j) {
      s[j] -= 2.0 * zi_old * x(best_i, j);
    }
  }
  return z;
}

}  // namespace

Result<CentroidDecomposition> ComputeCentroidDecomposition(const la::Matrix& x,
                                                           std::size_t rank) {
  if (x.empty()) return Status::InvalidArgument("CD of empty matrix");
  rank = std::min(rank, std::min(x.rows(), x.cols()));
  if (rank == 0) return Status::InvalidArgument("CD rank must be positive");

  la::Matrix residual = x;
  CentroidDecomposition cd;
  cd.loadings = la::Matrix(x.rows(), rank);
  cd.relevance = la::Matrix(x.cols(), rank);

  for (std::size_t r = 0; r < rank; ++r) {
    const std::vector<double> z = FindSignVector(residual);
    // c = X^T z / ||X^T z|| (relevance vector).
    la::Vector c(x.cols(), 0.0);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::size_t j = 0; j < x.cols(); ++j) {
        c[j] += residual(i, j) * z[i];
      }
    }
    const double norm = la::Norm2(c);
    if (norm <= 1e-12) break;  // residual exhausted; later columns stay zero
    for (double& v : c) v /= norm;
    // l = X c (loading vector).
    la::Vector l = residual.MultiplyVec(c);
    for (std::size_t i = 0; i < x.rows(); ++i) cd.loadings(i, r) = l[i];
    for (std::size_t j = 0; j < x.cols(); ++j) cd.relevance(j, r) = c[j];
    // Deflate.
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::size_t j = 0; j < x.cols(); ++j) {
        residual(i, j) -= l[i] * c[j];
      }
    }
  }
  return cd;
}

Result<std::vector<ts::TimeSeries>> CdRecImputer::Fit(
    const std::vector<ts::TimeSeries>& set, FitDiagnostics* diagnostics) const {
  ADARTS_FAILPOINT("impute.cdrec.fit");
  ADARTS_ASSIGN_OR_RETURN(MaskedMatrix m, BuildMaskedMatrix(set));
  la::Matrix x = m.values;
  const std::size_t rank =
      std::min<std::size_t>(rank_, std::min(x.rows(), x.cols()));
  const auto step = [&]() -> Result<double> {
    ADARTS_ASSIGN_OR_RETURN(CentroidDecomposition cd,
                            ComputeCentroidDecomposition(x, rank));
    la::Matrix recon = cd.loadings.Multiply(cd.relevance.Transpose());
    RestoreObserved(m, &recon);
    const double change = RelativeChange(recon, x);
    x = std::move(recon);
    return change;
  };
  ADARTS_RETURN_NOT_OK(
      IterateUntilConverged(max_iters_, tol_, diagnostics, step));
  return MatrixToSeries(x, set);
}

}  // namespace adarts::impute
