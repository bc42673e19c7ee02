#include "impute/factorization.h"

#include <algorithm>
#include <cmath>

#include "common/failpoint.h"
#include "common/rng.h"
#include "impute/masked_matrix.h"
#include "la/decompositions.h"

namespace adarts::impute {

Result<std::vector<ts::TimeSeries>> TrmfImputer::Fit(
    const std::vector<ts::TimeSeries>& set, FitDiagnostics* diagnostics) const {
  ADARTS_FAILPOINT("impute.trmf.fit");
  ADARTS_ASSIGN_OR_RETURN(MaskedMatrix m, BuildMaskedMatrix(set));
  const std::size_t t_len = m.rows();
  const std::size_t n = m.cols();
  const std::size_t k =
      std::min<std::size_t>(std::max<std::size_t>(rank_, 1),
                            std::min(t_len, n));

  // Initialise F from the SVD of the pre-filled matrix, G from V * S.
  la::Matrix f(t_len, k);
  la::Matrix g(n, k);
  {
    auto svd = la::ComputeSvd(m.values);
    if (svd.ok()) {
      for (std::size_t t = 0; t < t_len; ++t) {
        for (std::size_t c = 0; c < k; ++c) f(t, c) = svd->u(t, c);
      }
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t c = 0; c < k; ++c) {
          g(j, c) = svd->v(j, c) * svd->singular_values[c];
        }
      }
    } else {
      Rng rng(7);
      for (std::size_t t = 0; t < t_len; ++t)
        for (std::size_t c = 0; c < k; ++c) f(t, c) = rng.Normal(0, 0.1);
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t c = 0; c < k; ++c) g(j, c) = rng.Normal(0, 0.1);
    }
  }

  la::Matrix prev_recon = m.values;
  const auto step = [&]() -> Result<double> {
    // --- Update G: per-series ridge regression on observed rows.
    for (std::size_t j = 0; j < n; ++j) {
      la::Matrix ata(k, k);
      la::Vector atb(k, 0.0);
      for (std::size_t t = 0; t < t_len; ++t) {
        if (m.missing[t][j]) continue;
        for (std::size_t a = 0; a < k; ++a) {
          atb[a] += f(t, a) * m.values(t, j);
          for (std::size_t b = a; b < k; ++b) {
            ata(a, b) += f(t, a) * f(t, b);
          }
        }
      }
      for (std::size_t a = 0; a < k; ++a) {
        for (std::size_t b = a; b < k; ++b) ata(b, a) = ata(a, b);
        ata(a, a) += lambda_ridge_;
      }
      auto sol = la::SolveLinear(ata, atb);
      if (sol.ok()) {
        for (std::size_t c = 0; c < k; ++c) g(j, c) = (*sol)[c];
      }
    }

    // --- Update F: Gauss-Seidel over time with a temporal-smoothness pull
    // towards the average of the neighbouring factors.
    for (std::size_t t = 0; t < t_len; ++t) {
      la::Matrix ata(k, k);
      la::Vector atb(k, 0.0);
      for (std::size_t j = 0; j < n; ++j) {
        if (m.missing[t][j]) continue;
        for (std::size_t a = 0; a < k; ++a) {
          atb[a] += g(j, a) * m.values(t, j);
          for (std::size_t b = a; b < k; ++b) {
            ata(a, b) += g(j, a) * g(j, b);
          }
        }
      }
      double neighbor_weight = 0.0;
      la::Vector neighbor_sum(k, 0.0);
      if (t > 0) {
        neighbor_weight += lambda_temporal_;
        for (std::size_t c = 0; c < k; ++c) {
          neighbor_sum[c] += lambda_temporal_ * f(t - 1, c);
        }
      }
      if (t + 1 < t_len) {
        neighbor_weight += lambda_temporal_;
        for (std::size_t c = 0; c < k; ++c) {
          neighbor_sum[c] += lambda_temporal_ * f(t + 1, c);
        }
      }
      for (std::size_t a = 0; a < k; ++a) {
        for (std::size_t b = a; b < k; ++b) ata(b, a) = ata(a, b);
        ata(a, a) += lambda_ridge_ + neighbor_weight;
        atb[a] += neighbor_sum[a];
      }
      auto sol = la::SolveLinear(ata, atb);
      if (sol.ok()) {
        for (std::size_t c = 0; c < k; ++c) f(t, c) = (*sol)[c];
      }
    }

    la::Matrix recon = f.Multiply(g.Transpose());
    const double change = RelativeChange(recon, prev_recon);
    prev_recon = std::move(recon);
    return change;
  };
  ADARTS_RETURN_NOT_OK(
      IterateUntilConverged(max_iters_, tol_, diagnostics, step));
  return MatrixToSeries(prev_recon, set);
}

Result<std::vector<ts::TimeSeries>> TeNmfImputer::Fit(
    const std::vector<ts::TimeSeries>& set, FitDiagnostics* diagnostics) const {
  ADARTS_FAILPOINT("impute.tenmf.fit");
  ADARTS_ASSIGN_OR_RETURN(MaskedMatrix m, BuildMaskedMatrix(set));
  const std::size_t t_len = m.rows();
  const std::size_t n = m.cols();
  const std::size_t k =
      std::min<std::size_t>(std::max<std::size_t>(rank_, 1),
                            std::min(t_len, n));

  // Shift to the nonnegative orthant.
  double vmin = 0.0;
  for (std::size_t t = 0; t < t_len; ++t) {
    for (std::size_t j = 0; j < n; ++j) {
      vmin = std::min(vmin, m.values(t, j));
    }
  }
  const double shift = -vmin + 1.0;
  la::Matrix x(t_len, n);
  for (std::size_t t = 0; t < t_len; ++t) {
    for (std::size_t j = 0; j < n; ++j) x(t, j) = m.values(t, j) + shift;
  }

  // Deterministic positive initialisation.
  Rng rng(13);
  la::Matrix w(t_len, k);
  la::Matrix h(k, n);
  for (std::size_t t = 0; t < t_len; ++t)
    for (std::size_t c = 0; c < k; ++c) w(t, c) = 0.5 + rng.Uniform();
  for (std::size_t c = 0; c < k; ++c)
    for (std::size_t j = 0; j < n; ++j) h(c, j) = 0.5 + rng.Uniform();

  constexpr double kEps = 1e-9;
  la::Matrix prev = x;
  const auto step = [&]() -> Result<double> {
    const la::Matrix wh = w.Multiply(h);
    // Mask-weighted multiplicative updates (observed entries only drive the
    // fit; missing entries carry the current reconstruction).
    la::Matrix target = x;
    for (std::size_t t = 0; t < t_len; ++t) {
      for (std::size_t j = 0; j < n; ++j) {
        if (m.missing[t][j]) target(t, j) = wh(t, j);
      }
    }
    // H update: H *= (W^T target) / (W^T W H).
    const la::Matrix wt = w.Transpose();
    const la::Matrix num_h = wt.Multiply(target);
    const la::Matrix den_h = wt.Multiply(w).Multiply(h);
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t j = 0; j < n; ++j) {
        h(c, j) *= num_h(c, j) / (den_h(c, j) + kEps);
      }
    }
    // W update: W *= (target H^T) / (W H H^T).
    const la::Matrix ht = h.Transpose();
    const la::Matrix num_w = target.Multiply(ht);
    const la::Matrix den_w = w.Multiply(h).Multiply(ht);
    for (std::size_t t = 0; t < t_len; ++t) {
      for (std::size_t c = 0; c < k; ++c) {
        w(t, c) *= num_w(t, c) / (den_w(t, c) + kEps);
      }
    }
    const la::Matrix recon = w.Multiply(h);
    const double change = RelativeChange(recon, prev);
    prev = recon;
    return change;
  };
  ADARTS_RETURN_NOT_OK(
      IterateUntilConverged(max_iters_, tol_, diagnostics, step));

  // Shift back; MatrixToSeries keeps the observed values.
  la::Matrix result(t_len, n);
  for (std::size_t t = 0; t < t_len; ++t) {
    for (std::size_t j = 0; j < n; ++j) result(t, j) = prev(t, j) - shift;
  }
  return MatrixToSeries(result, set);
}

}  // namespace adarts::impute
