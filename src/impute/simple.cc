#include "impute/simple.h"

#include <algorithm>
#include <cmath>

#include "impute/masked_matrix.h"

namespace adarts::impute {

Result<std::vector<ts::TimeSeries>> MeanImputer::Fit(
    const std::vector<ts::TimeSeries>& set, FitDiagnostics*) const {
  ADARTS_ASSIGN_OR_RETURN(MaskedMatrix m, BuildMaskedMatrix(set));
  for (std::size_t j = 0; j < m.cols(); ++j) {
    const double mean = set[j].ObservedMean();
    for (std::size_t t = 0; t < m.rows(); ++t) m.values(t, j) = mean;
  }
  return MatrixToSeries(m.values, set);
}

Result<std::vector<ts::TimeSeries>> LinearInterpImputer::Fit(
    const std::vector<ts::TimeSeries>& set, FitDiagnostics*) const {
  // The builder's pre-fill is the per-series linear interpolation.
  ADARTS_ASSIGN_OR_RETURN(MaskedMatrix m, BuildMaskedMatrix(set));
  return MatrixToSeries(m.values, set);
}

Result<std::vector<ts::TimeSeries>> KnnImputer::Fit(
    const std::vector<ts::TimeSeries>& set, FitDiagnostics*) const {
  ADARTS_ASSIGN_OR_RETURN(MaskedMatrix m, BuildMaskedMatrix(set));
  const std::size_t n_series = set.size();
  const std::size_t n_time = m.rows();

  // Pairwise correlations from the interpolated fill.
  la::Matrix corr(n_series, n_series);
  for (std::size_t a = 0; a < n_series; ++a) {
    for (std::size_t b = a + 1; b < n_series; ++b) {
      const double c = la::PearsonCorrelation(m.values.Col(a), m.values.Col(b));
      corr(a, b) = c;
      corr(b, a) = c;
    }
  }

  la::Matrix result = m.values;
  for (std::size_t j = 0; j < n_series; ++j) {
    // Neighbours sorted by |correlation| descending.
    std::vector<std::size_t> order;
    for (std::size_t b = 0; b < n_series; ++b) {
      if (b != j) order.push_back(b);
    }
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return std::fabs(corr(j, x)) > std::fabs(corr(j, y));
    });
    if (order.size() > k_) order.resize(k_);

    for (std::size_t t = 0; t < n_time; ++t) {
      if (!m.IsMissing(t, j)) continue;
      double num = 0.0;
      double den = 0.0;
      for (std::size_t b : order) {
        if (m.IsMissing(t, b)) continue;
        const double w = std::fabs(corr(j, b));
        if (w < 1e-6) continue;
        // The neighbour's raw value, on its own scale and sign.
        num += w * m.values(t, b);
        den += w;
      }
      if (den > 0.0) {
        result(t, j) = num / den;
      }
      // else: keep the interpolation pre-fill.
    }
  }

  // Rescale: the neighbours' raw values can sit on another scale, so a
  // column whose imputed points drift far from its observed moments is
  // re-standardised to them as a whole.
  for (std::size_t j = 0; j < n_series; ++j) {
    const double target_mean = set[j].ObservedMean();
    double target_sd = set[j].ObservedStdDev();
    if (target_sd <= 0.0) target_sd = 1.0;
    la::Vector imputed_vals;
    for (std::size_t t = 0; t < n_time; ++t) {
      if (m.IsMissing(t, j)) imputed_vals.push_back(result(t, j));
    }
    if (imputed_vals.size() < 2) continue;
    const double im = la::Mean(imputed_vals);
    const double isd = la::StdDev(imputed_vals);
    if (isd <= 1e-9) continue;
    // Only when the imputed mean is more than 2 observed SDs off; closer
    // columns keep the neighbour average unchanged.
    if (std::fabs(im - target_mean) > 2.0 * target_sd) {
      for (std::size_t t = 0; t < n_time; ++t) {
        if (m.IsMissing(t, j)) {
          result(t, j) = target_mean + (result(t, j) - im) / isd * target_sd;
        }
      }
    }
  }

  return MatrixToSeries(result, set);
}

}  // namespace adarts::impute
