#ifndef ADARTS_TS_METRICS_H_
#define ADARTS_TS_METRICS_H_

#include "common/status.h"
#include "ts/time_series.h"

namespace adarts::ts {

/// Root mean squared error between imputed values and the hidden truth,
/// evaluated only at the positions masked in `truth_with_mask`.
/// `imputed` must be the repaired series (same length).
Result<double> ImputationRmse(const TimeSeries& truth_with_mask,
                              const TimeSeries& imputed);

/// Symmetric mean absolute percentage error between a forecast and actuals
/// (Fig. 12 downstream metric): mean of 2|f - a| / (|f| + |a|).
Result<double> Smape(const la::Vector& actual, const la::Vector& forecast);

}  // namespace adarts::ts

#endif  // ADARTS_TS_METRICS_H_
