#ifndef ADARTS_TS_TIME_SERIES_H_
#define ADARTS_TS_TIME_SERIES_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "la/vector_ops.h"

namespace adarts::ts {

/// A univariate time series with an explicit missing-value mask.
///
/// Values at masked positions are retained (when known) so that imputation
/// quality can be evaluated against the hidden ground truth; algorithms must
/// only read positions where `IsMissing` is false.
class TimeSeries {
 public:
  TimeSeries() = default;

  /// Fully observed series.
  explicit TimeSeries(la::Vector values)
      : values_(std::move(values)), missing_(values_.size(), false) {}

  /// Series with an explicit mask; sizes must match.
  TimeSeries(la::Vector values, std::vector<bool> missing);

  /// Validating construction: rejects size mismatches and NaN/Inf at
  /// *observed* (non-masked) positions with InvalidArgument. Masked
  /// positions may hold anything — their values are placeholders. This is
  /// the boundary check the engine entry points rely on; the plain
  /// constructors stay unchecked for internal use on trusted data.
  static Result<TimeSeries> Create(la::Vector values,
                                   std::vector<bool> missing);

  /// OK when every observed position holds a finite value; InvalidArgument
  /// naming the first offending index otherwise.
  Status ValidateObservedFinite() const;

  std::size_t length() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double value(std::size_t i) const { return values_[i]; }
  void set_value(std::size_t i, double v) { values_[i] = v; }

  bool IsMissing(std::size_t i) const { return missing_[i]; }
  void SetMissing(std::size_t i, bool missing) { missing_[i] = missing; }

  const la::Vector& values() const { return values_; }
  const std::vector<bool>& missing_mask() const { return missing_; }

  /// Number of missing positions.
  std::size_t MissingCount() const;

  /// True if any position is missing.
  bool HasMissing() const { return MissingCount() > 0; }

  /// Values at observed positions, in temporal order.
  la::Vector ObservedValues() const;

  /// Indices of missing positions, ascending.
  std::vector<std::size_t> MissingIndices() const;

  /// Mean / stddev over observed positions only.
  double ObservedMean() const;
  double ObservedStdDev() const;

  /// Z-score normalised copy (using observed mean/stddev); a constant series
  /// maps to all zeros. The mask is preserved.
  TimeSeries ZNormalized() const;

  /// Optional identifier (dataset bookkeeping).
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

 private:
  la::Vector values_;
  std::vector<bool> missing_;
  std::string name_;
};

}  // namespace adarts::ts

#endif  // ADARTS_TS_TIME_SERIES_H_
