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

/// For each missing point, averages the k most-correlated other series at
/// that timestamp (weighted by |correlation|); falls back to interpolation
/// when no correlated neighbour is observed there.
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
