#include "impute/pattern.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "impute/masked_matrix.h"
#include "la/decompositions.h"

namespace adarts::impute {

namespace {

/// Temporal view: inverse-square-distance weighting of observed values of
/// the same series inside a window around t.
double TemporalIdw(const MaskedMatrix& m, std::size_t t, std::size_t j,
                   std::size_t window) {
  double num = 0.0, den = 0.0;
  const std::ptrdiff_t lo =
      std::max<std::ptrdiff_t>(0, static_cast<std::ptrdiff_t>(t) -
                                      static_cast<std::ptrdiff_t>(window));
  const std::size_t hi = std::min(m.rows() - 1, t + window);
  for (std::size_t s = static_cast<std::size_t>(lo); s <= hi; ++s) {
    if (s == t || m.missing[s][j]) continue;
    const double d = static_cast<double>(s > t ? s - t : t - s);
    const double w = 1.0 / (d * d);
    num += w * m.values(s, j);
    den += w;
  }
  return den > 0.0 ? num / den : m.values(t, j);
}

/// Spatial view: correlation-weighted average of the other series at t,
/// mapped into the target series' scale via z-normalisation.
double SpatialView(const MaskedMatrix& m, const la::Matrix& corr,
                   const la::Vector& means, const la::Vector& sds,
                   std::size_t t, std::size_t j) {
  double num = 0.0, den = 0.0;
  for (std::size_t b = 0; b < m.cols(); ++b) {
    if (b == j || m.missing[t][b]) continue;
    const double c = corr(j, b);
    const double w = std::fabs(c);
    if (w < 0.05) continue;
    const double z = (m.values(t, b) - means[b]) / sds[b];
    const double mapped = means[j] + std::copysign(1.0, c) * z * sds[j];
    num += w * mapped;
    den += w;
  }
  return den > 0.0 ? num / den : m.values(t, j);
}

/// SES view: exponential smoothing over the past observed values.
double SesView(const MaskedMatrix& m, std::size_t t, std::size_t j,
               double alpha) {
  double level = m.values(0, j);
  bool seen = false;
  for (std::size_t s = 0; s < t; ++s) {
    if (m.missing[s][j]) continue;
    if (!seen) {
      level = m.values(s, j);
      seen = true;
    } else {
      level = alpha * m.values(s, j) + (1.0 - alpha) * level;
    }
  }
  return level;
}

}  // namespace

Result<std::vector<ts::TimeSeries>> StMvlImputer::Fit(
    const std::vector<ts::TimeSeries>& set, FitDiagnostics*) const {
  ADARTS_ASSIGN_OR_RETURN(MaskedMatrix m, BuildMaskedMatrix(set));
  const std::size_t n = m.cols();
  const std::size_t t_len = m.rows();

  la::Matrix corr(n, n);
  la::Vector means(n), sds(n);
  for (std::size_t j = 0; j < n; ++j) {
    const la::Vector col = m.values.Col(j);
    means[j] = la::Mean(col);
    sds[j] = std::max(la::StdDev(col), 1e-9);
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const double c = la::PearsonCorrelation(m.values.Col(a), m.values.Col(b));
      corr(a, b) = c;
      corr(b, a) = c;
    }
  }

  // Collaborative weights: regress observed values on the three views using
  // a sample of observed points (every 3rd observed cell).
  la::Vector weights = {0.4, 0.4, 0.2};
  {
    std::vector<la::Vector> rows;
    la::Vector targets;
    std::size_t counter = 0;
    for (std::size_t t = 0; t < t_len && rows.size() < 400; ++t) {
      for (std::size_t j = 0; j < n && rows.size() < 400; ++j) {
        if (m.missing[t][j]) continue;
        if (++counter % 3 != 0) continue;
        rows.push_back({TemporalIdw(m, t, j, temporal_window_),
                        SpatialView(m, corr, means, sds, t, j),
                        SesView(m, t, j, ses_alpha_)});
        targets.push_back(m.values(t, j));
      }
    }
    if (rows.size() >= 12) {
      const la::Matrix a = la::Matrix::FromRows(rows);
      auto coef = la::SolveLeastSquares(a, targets, 0.5);
      if (coef.ok()) {
        // Guard against degenerate fits: require nonnegative-ish weights.
        double s = 0.0;
        bool sane = true;
        for (double w : *coef) {
          if (w < -0.2) sane = false;
          s += std::max(w, 0.0);
        }
        if (sane && s > 0.2) {
          weights = *coef;
          for (double& w : weights) w = std::max(w, 0.0) / s;
        }
      }
    }
  }

  la::Matrix result = m.values;
  for (std::size_t t = 0; t < t_len; ++t) {
    for (std::size_t j = 0; j < n; ++j) {
      if (!m.missing[t][j]) continue;
      const double views[3] = {TemporalIdw(m, t, j, temporal_window_),
                               SpatialView(m, corr, means, sds, t, j),
                               SesView(m, t, j, ses_alpha_)};
      result(t, j) =
          weights[0] * views[0] + weights[1] * views[1] + weights[2] * views[2];
    }
  }

  return MatrixToSeries(result, set);
}

Result<std::vector<ts::TimeSeries>> TkcmImputer::Fit(
    const std::vector<ts::TimeSeries>& set, FitDiagnostics*) const {
  ADARTS_ASSIGN_OR_RETURN(MaskedMatrix m, BuildMaskedMatrix(set));
  la::Matrix result = m.values;

  for (std::size_t j = 0; j < m.cols(); ++j) {
    // Identify contiguous missing blocks of this series.
    std::size_t t = 0;
    while (t < m.rows()) {
      if (!m.missing[t][j]) {
        ++t;
        continue;
      }
      std::size_t end = t;
      while (end < m.rows() && m.missing[end][j]) ++end;
      const std::size_t block_len = end - t;

      // The query pattern is the window immediately preceding the block.
      // Without a usable match the block keeps its interpolation pre-fill.
      const std::size_t p = std::min(pattern_length_, t);
      if (p >= 2) {
        // Scan the fully observed history for the best-matching window whose
        // continuation (block_len values) is also observed.
        double best_dist = std::numeric_limits<double>::infinity();
        std::size_t best_pos = 0;
        for (std::size_t s = p; s + block_len <= m.rows(); ++s) {
          if (s + block_len > t && s < end + p) continue;  // overlaps block
          bool usable = true;
          for (std::size_t i = s - p; i < s + block_len && usable; ++i) {
            usable = !m.missing[i][j];
          }
          if (!usable) continue;
          double dist = 0.0;
          for (std::size_t i = 0; i < p; ++i) {
            const double d = m.values(t - p + i, j) - m.values(s - p + i, j);
            dist += d * d;
          }
          if (dist < best_dist) {
            best_dist = dist;
            best_pos = s;
          }
        }
        if (best_dist < std::numeric_limits<double>::infinity()) {
          // Copy the continuation, anchored so it joins the last observed
          // value without a jump.
          const double anchor =
              t > 0 ? m.values(t - 1, j) - m.values(best_pos - 1, j) : 0.0;
          for (std::size_t i = 0; i < block_len; ++i) {
            result(t + i, j) = m.values(best_pos + i, j) + anchor;
          }
        }
      }
      t = end;
    }
  }

  return MatrixToSeries(result, set);
}

Result<std::vector<ts::TimeSeries>> IimImputer::Fit(
    const std::vector<ts::TimeSeries>& set, FitDiagnostics*) const {
  ADARTS_ASSIGN_OR_RETURN(MaskedMatrix m, BuildMaskedMatrix(set));
  const std::size_t n = m.cols();
  if (n < 2) {
    return MatrixToSeries(m.values, set);  // interpolation pre-fill
  }
  la::Matrix result = m.values;

  for (std::size_t j = 0; j < n; ++j) {
    // Training rows: timesteps where series j is observed. Regressors are
    // the other series (pre-filled values) plus an intercept.
    std::vector<la::Vector> rows;
    la::Vector targets;
    for (std::size_t t = 0; t < m.rows(); ++t) {
      if (m.missing[t][j]) continue;
      la::Vector row;
      row.reserve(n);
      row.push_back(1.0);
      for (std::size_t b = 0; b < n; ++b) {
        if (b != j) row.push_back(m.values(t, b));
      }
      rows.push_back(std::move(row));
      targets.push_back(m.values(t, j));
    }
    if (rows.size() < n + 2) continue;  // not enough data; keep pre-fill

    const la::Matrix a = la::Matrix::FromRows(rows);
    auto coef = la::SolveLeastSquares(a, targets, ridge_);
    if (!coef.ok()) continue;

    for (std::size_t t = 0; t < m.rows(); ++t) {
      if (!m.missing[t][j]) continue;
      double pred = (*coef)[0];
      std::size_t idx = 1;
      for (std::size_t b = 0; b < n; ++b) {
        if (b != j) pred += (*coef)[idx++] * m.values(t, b);
      }
      result(t, j) = pred;
    }
  }

  return MatrixToSeries(result, set);
}

}  // namespace adarts::impute
