#ifndef ADARTS_IMPUTE_SIMPLE_H_
#define ADARTS_IMPUTE_SIMPLE_H_

#include <cstddef>

#include "impute/imputer.h"

namespace adarts::impute {

/// Replaces missing values with the per-series observed mean.
class MeanImputer final : public Imputer {
 public:
  std::string_view name() const override { return "mean"; }

 private:
  Result<std::vector<ts::TimeSeries>> Fit(
      const std::vector<ts::TimeSeries>& set,
      FitDiagnostics* diagnostics) const override;
};

/// Linear interpolation between the nearest observed neighbours.
class LinearInterpImputer final : public Imputer {
 public:
  std::string_view name() const override { return "linear_interp"; }

 private:
  Result<std::vector<ts::TimeSeries>> Fit(
      const std::vector<ts::TimeSeries>& set,
      FitDiagnostics* diagnostics) const override;
};

/// For each missing point, averages the raw values at that timestamp of
/// the series' k most correlated neighbours (by |correlation| of the
/// interpolated fill), skipping those missing there, weighted by
/// |correlation|. The values are neither rescaled nor sign-flipped, so an
/// anti-correlated neighbour pulls the fill its own way. A point with no
/// such neighbour keeps the interpolation pre-fill. Afterwards a series'
/// imputed points are re-standardised to its observed mean and SD, but
/// only when their mean lies more than 2 observed SDs from the observed
/// mean.
class KnnImputer final : public Imputer {
 public:
  explicit KnnImputer(std::size_t k = 3) : k_(k) {}
  std::string_view name() const override { return "knn_impute"; }

 private:
  Result<std::vector<ts::TimeSeries>> Fit(
      const std::vector<ts::TimeSeries>& set,
      FitDiagnostics* diagnostics) const override;

  std::size_t k_;
};

}  // namespace adarts::impute

#endif  // ADARTS_IMPUTE_SIMPLE_H_
