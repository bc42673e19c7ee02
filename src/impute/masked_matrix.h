#ifndef ADARTS_IMPUTE_MASKED_MATRIX_H_
#define ADARTS_IMPUTE_MASKED_MATRIX_H_

#include <functional>
#include <vector>

#include "common/status.h"
#include "impute/imputer.h"
#include "la/matrix.h"
#include "ts/time_series.h"

namespace adarts::impute {

/// Column-per-series matrix view of a time-series set with a missing mask:
/// entry (t, j) is series j at time t. The working layout shared by the
/// matrix-completion imputers.
struct MaskedMatrix {
  la::Matrix values;                      ///< time x series
  std::vector<std::vector<bool>> missing; ///< missing[t][j]

  std::size_t rows() const { return values.rows(); }
  std::size_t cols() const { return values.cols(); }
  bool IsMissing(std::size_t t, std::size_t j) const { return missing[t][j]; }
};

/// Builds the masked matrix from a set of equal-length series; missing
/// positions are pre-filled by per-series linear interpolation so iterative
/// algorithms start from a sensible state.
Result<MaskedMatrix> BuildMaskedMatrix(const std::vector<ts::TimeSeries>& set);

/// Writes the completed `values` (time x series) back into copies of the
/// original series: masked positions take `values`, observed positions keep
/// the original's value, and the mask clears.
std::vector<ts::TimeSeries> MatrixToSeries(
    const la::Matrix& values, const std::vector<ts::TimeSeries>& original);

/// Restores observed entries of `work` from `reference` (projection onto the
/// observed set, P_Omega), leaving missing entries untouched.
void RestoreObserved(const MaskedMatrix& reference, la::Matrix* work);

/// Relative change ||a - b||_F / (||b||_F + eps) used as the convergence
/// criterion of the iterative completers.
double RelativeChange(const la::Matrix& a, const la::Matrix& b);

/// The convergence loop of the iterative completers. Runs `step`, which
/// performs one iteration and returns its RelativeChange, until the change
/// drops below `tol` or `max_iters` iterations ran, and records the
/// iteration count, the last change and whether it converged in
/// `diagnostics`. A failing step's status is returned as is.
Status IterateUntilConverged(int max_iters, double tol,
                             FitDiagnostics* diagnostics,
                             const std::function<Result<double>()>& step);

}  // namespace adarts::impute

#endif  // ADARTS_IMPUTE_MASKED_MATRIX_H_
