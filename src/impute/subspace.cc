#include "impute/subspace.h"

#include <algorithm>
#include <cmath>

#include "common/failpoint.h"
#include "impute/masked_matrix.h"
#include "la/decompositions.h"
#include "la/pca.h"

namespace adarts::impute {

namespace {

/// Orthonormalises the columns of `u` in place via modified Gram-Schmidt.
void Orthonormalize(la::Matrix* u) {
  for (std::size_t j = 0; j < u->cols(); ++j) {
    for (std::size_t prev = 0; prev < j; ++prev) {
      double dot = 0.0;
      for (std::size_t i = 0; i < u->rows(); ++i) {
        dot += (*u)(i, j) * (*u)(i, prev);
      }
      for (std::size_t i = 0; i < u->rows(); ++i) {
        (*u)(i, j) -= dot * (*u)(i, prev);
      }
    }
    double norm = 0.0;
    for (std::size_t i = 0; i < u->rows(); ++i) {
      norm += (*u)(i, j) * (*u)(i, j);
    }
    norm = std::sqrt(norm);
    if (norm > 1e-12) {
      for (std::size_t i = 0; i < u->rows(); ++i) (*u)(i, j) /= norm;
    }
  }
}

}  // namespace

Result<std::vector<ts::TimeSeries>> GrouseImputer::Fit(
    const std::vector<ts::TimeSeries>& set, FitDiagnostics* diagnostics) const {
  ADARTS_FAILPOINT("impute.grouse.fit");
  ADARTS_ASSIGN_OR_RETURN(MaskedMatrix m, BuildMaskedMatrix(set));
  const std::size_t n = m.cols();  // ambient dimension = number of series
  const std::size_t t_len = m.rows();

  if (n < 2) {
    // No cross-section to track: the interpolation pre-fill is the output.
    return MatrixToSeries(m.values, set);
  }
  // GROUSE runs a fixed number of decaying-step passes rather than
  // iterating to a tolerance; it reports the pass count and counts as
  // converged by construction.
  diagnostics->iterations = passes_;
  const std::size_t k = std::min<std::size_t>(std::max<std::size_t>(rank_, 1),
                                              n);

  // Initialise U from the SVD of the pre-filled matrix (columns of V span
  // the cross-section space).
  la::Matrix u(n, k);
  {
    auto svd = la::ComputeSvd(m.values);
    if (svd.ok()) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < k && j < svd->v.cols(); ++j) {
          u(i, j) = svd->v(i, j);
        }
      }
    } else {
      for (std::size_t j = 0; j < k; ++j) u(j, j) = 1.0;
    }
  }
  Orthonormalize(&u);

  la::Matrix result = m.values;
  for (int pass = 0; pass < passes_; ++pass) {
    // Step size decays per pass for convergence.
    const double eta = step_ / static_cast<double>(pass + 1);
    for (std::size_t t = 0; t < t_len; ++t) {
      // Observed coordinates of the cross-section x_t.
      std::vector<std::size_t> obs;
      for (std::size_t j = 0; j < n; ++j) {
        if (!m.missing[t][j]) obs.push_back(j);
      }
      if (obs.empty()) continue;

      // w = argmin ||U_Omega w - x_Omega||.
      la::Matrix u_obs(obs.size(), k);
      la::Vector x_obs(obs.size());
      for (std::size_t r = 0; r < obs.size(); ++r) {
        for (std::size_t c = 0; c < k; ++c) u_obs(r, c) = u(obs[r], c);
        x_obs[r] = m.values(t, obs[r]);
      }
      auto w_res = la::SolveLeastSquares(u_obs, x_obs, 1e-8);
      if (!w_res.ok()) continue;
      const la::Vector& w = *w_res;

      // Full-space prediction p = U w; residual r on observed coordinates.
      la::Vector p = u.MultiplyVec(w);
      la::Vector r_full(n, 0.0);
      for (std::size_t idx = 0; idx < obs.size(); ++idx) {
        r_full[obs[idx]] = x_obs[idx] - p[obs[idx]];
      }

      // Impute the missing coordinates from the subspace prediction.
      for (std::size_t j = 0; j < n; ++j) {
        if (m.missing[t][j]) result(t, j) = p[j];
      }

      // Grassmannian gradient step: U += eta * r w^T / (||r|| ||w|| + eps)
      // followed by re-orthonormalisation (first-order approximation of the
      // geodesic update).
      const double rnorm = la::Norm2(r_full);
      const double wnorm = la::Norm2(w);
      if (rnorm > 1e-12 && wnorm > 1e-12) {
        const double scale = eta / (rnorm * wnorm + 1e-12) * rnorm;
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t c = 0; c < k; ++c) {
            u(i, c) += scale * r_full[i] * (w[c] / wnorm);
          }
        }
        Orthonormalize(&u);
      }
    }
  }

  return MatrixToSeries(result, set);
}

Result<std::vector<ts::TimeSeries>> DynaMmoImputer::Fit(
    const std::vector<ts::TimeSeries>& set, FitDiagnostics* diagnostics) const {
  ADARTS_FAILPOINT("impute.dynammo.fit");
  ADARTS_ASSIGN_OR_RETURN(MaskedMatrix m, BuildMaskedMatrix(set));
  la::Matrix x = m.values;
  const std::size_t t_len = m.rows();
  const std::size_t n = m.cols();
  const std::size_t k =
      std::min<std::size_t>(std::max<std::size_t>(latent_dim_, 1),
                            std::min(t_len > 1 ? t_len - 1 : 1, n));

  const auto step = [&]() -> Result<double> {
    // E-step surrogate: latent trajectory via PCA of the current fill.
    la::Pca pca;
    ADARTS_RETURN_NOT_OK(pca.Fit(x, k));
    ADARTS_ASSIGN_OR_RETURN(la::Matrix z, pca.Transform(x));

    // Fit the VAR(1) transition z_{t+1} ~ A z_t by least squares.
    la::Matrix a(k, k);
    if (t_len > k + 1) {
      la::Matrix z_past(t_len - 1, k);
      for (std::size_t t = 0; t + 1 < t_len; ++t) {
        for (std::size_t c = 0; c < k; ++c) z_past(t, c) = z(t, c);
      }
      for (std::size_t c = 0; c < k; ++c) {
        la::Vector target(t_len - 1);
        for (std::size_t t = 0; t + 1 < t_len; ++t) target[t] = z(t + 1, c);
        auto coef = la::SolveLeastSquares(z_past, target, 1e-6);
        if (coef.ok()) {
          for (std::size_t c2 = 0; c2 < k; ++c2) a(c, c2) = (*coef)[c2];
        }
      }
    } else {
      a = la::Matrix::Identity(k);
    }

    // Smooth the latent states: blend each z_t with its one-step forward
    // prediction A z_{t-1} and backward consistency (pseudo-smoothing).
    la::Matrix z_smooth = z;
    for (std::size_t t = 1; t < t_len; ++t) {
      const la::Vector pred = a.MultiplyVec(z.Row(t - 1));
      // Heavier smoothing at timesteps with many missing coordinates.
      std::size_t miss = 0;
      for (std::size_t j = 0; j < n; ++j) miss += m.missing[t][j] ? 1 : 0;
      const double alpha =
          0.5 * static_cast<double>(miss) / static_cast<double>(n);
      for (std::size_t c = 0; c < k; ++c) {
        z_smooth(t, c) = (1.0 - alpha) * z(t, c) + alpha * pred[c];
      }
    }

    // M-step surrogate: reconstruct from the smoothed latent trajectory.
    // x_hat = z_smooth * components^T + mean (inverse PCA).
    la::Matrix recon = z_smooth.Multiply(pca.components().Transpose());
    // Add back the PCA mean, which Transform subtracted.
    la::Vector mean(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t t = 0; t < t_len; ++t) s += x(t, j);
      mean[j] = s / static_cast<double>(t_len);
    }
    for (std::size_t t = 0; t < t_len; ++t) {
      for (std::size_t j = 0; j < n; ++j) recon(t, j) += mean[j];
    }

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
