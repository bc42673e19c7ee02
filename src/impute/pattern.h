#ifndef ADARTS_IMPUTE_PATTERN_H_
#define ADARTS_IMPUTE_PATTERN_H_

#include <cstddef>

#include "impute/imputer.h"

namespace adarts::impute {

/// ST-MVL (Yi et al. 2016): blends four views — temporal inverse-distance
/// weighting, cross-series (spatial) correlation weighting, simple
/// exponential smoothing, and a collaborative weighting of the three learned
/// by ridge regression on observed points.
class StMvlImputer final : public Imputer {
 public:
  explicit StMvlImputer(std::size_t temporal_window = 8, double ses_alpha = 0.4)
      : temporal_window_(temporal_window), ses_alpha_(ses_alpha) {}
  std::string_view name() const override { return "stmvl"; }

 private:
  Result<std::vector<ts::TimeSeries>> Fit(
      const std::vector<ts::TimeSeries>& set,
      FitDiagnostics* diagnostics) const override;

  std::size_t temporal_window_;
  double ses_alpha_;
};

/// TKCM (Wellenzohn et al. 2017): repairs each missing block by locating the
/// historical window whose preceding pattern best matches the pattern just
/// before the block, then copying that window's continuation.
class TkcmImputer final : public Imputer {
 public:
  explicit TkcmImputer(std::size_t pattern_length = 8)
      : pattern_length_(pattern_length) {}
  std::string_view name() const override { return "tkcm"; }

 private:
  Result<std::vector<ts::TimeSeries>> Fit(
      const std::vector<ts::TimeSeries>& set,
      FitDiagnostics* diagnostics) const override;

  std::size_t pattern_length_;
};

/// IIM (Zhang et al. 2019) in per-series form: learns a ridge regression of
/// each series on the other series of the set from fully observed rows and
/// predicts the missing entries; degenerates to interpolation for singleton
/// sets.
class IimImputer final : public Imputer {
 public:
  explicit IimImputer(double ridge = 0.1) : ridge_(ridge) {}
  std::string_view name() const override { return "iim"; }

 private:
  Result<std::vector<ts::TimeSeries>> Fit(
      const std::vector<ts::TimeSeries>& set,
      FitDiagnostics* diagnostics) const override;

  double ridge_;
};

}  // namespace adarts::impute

#endif  // ADARTS_IMPUTE_PATTERN_H_
