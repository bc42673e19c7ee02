#include "ts/metrics.h"

#include <cmath>

namespace adarts::ts {

namespace {

Status CheckAligned(const TimeSeries& truth, const TimeSeries& imputed) {
  if (truth.length() != imputed.length()) {
    return Status::InvalidArgument("series length mismatch");
  }
  if (truth.MissingCount() == 0) {
    return Status::InvalidArgument("no masked positions to evaluate");
  }
  return Status::OK();
}

}  // namespace

Result<double> ImputationRmse(const TimeSeries& truth_with_mask,
                              const TimeSeries& imputed) {
  ADARTS_RETURN_NOT_OK(CheckAligned(truth_with_mask, imputed));
  double se = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < truth_with_mask.length(); ++i) {
    if (!truth_with_mask.IsMissing(i)) continue;
    const double d = truth_with_mask.value(i) - imputed.value(i);
    se += d * d;
    ++n;
  }
  return std::sqrt(se / static_cast<double>(n));
}

Result<double> Smape(const la::Vector& actual, const la::Vector& forecast) {
  if (actual.size() != forecast.size() || actual.empty()) {
    return Status::InvalidArgument("sMAPE requires equal non-empty vectors");
  }
  double s = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double denom = std::fabs(actual[i]) + std::fabs(forecast[i]);
    if (denom > 0.0) {
      s += 2.0 * std::fabs(forecast[i] - actual[i]) / denom;
    }
  }
  return s / static_cast<double>(actual.size());
}

}  // namespace adarts::ts
