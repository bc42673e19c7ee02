#include "ts/time_series.h"

#include <cmath>

#include "common/check.h"

namespace adarts::ts {

TimeSeries::TimeSeries(la::Vector values, std::vector<bool> missing)
    : values_(std::move(values)), missing_(std::move(missing)) {
  ADARTS_CHECK(values_.size() == missing_.size());
}

Result<TimeSeries> TimeSeries::Create(la::Vector values,
                                      std::vector<bool> missing) {
  if (values.size() != missing.size()) {
    return Status::InvalidArgument("value/mask size mismatch: " +
                                   std::to_string(values.size()) + " vs " +
                                   std::to_string(missing.size()));
  }
  TimeSeries out(std::move(values), std::move(missing));
  ADARTS_RETURN_NOT_OK(out.ValidateObservedFinite());
  return out;
}

Status TimeSeries::ValidateObservedFinite() const {
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (!missing_[i] && !std::isfinite(values_[i])) {
      return Status::InvalidArgument(
          "non-finite observed value at position " + std::to_string(i) +
          (name_.empty() ? "" : " of series '" + name_ + "'"));
    }
  }
  return Status::OK();
}

std::size_t TimeSeries::MissingCount() const {
  std::size_t n = 0;
  for (bool m : missing_) n += m ? 1 : 0;
  return n;
}

la::Vector TimeSeries::ObservedValues() const {
  la::Vector out;
  out.reserve(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (!missing_[i]) out.push_back(values_[i]);
  }
  return out;
}

std::vector<std::size_t> TimeSeries::MissingIndices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (missing_[i]) out.push_back(i);
  }
  return out;
}

double TimeSeries::ObservedMean() const {
  return la::Mean(ObservedValues());
}

double TimeSeries::ObservedStdDev() const {
  return la::StdDev(ObservedValues());
}

TimeSeries TimeSeries::ZNormalized() const {
  const double mean = ObservedMean();
  double sd = ObservedStdDev();
  if (sd <= 0.0) sd = 1.0;
  la::Vector vals(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    vals[i] = (values_[i] - mean) / sd;
  }
  TimeSeries out(std::move(vals), missing_);
  out.name_ = name_;
  return out;
}

}  // namespace adarts::ts
