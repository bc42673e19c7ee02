#include "impute/masked_matrix.h"

#include <cmath>

#include "features/feature_extractor.h"

namespace adarts::impute {

Result<MaskedMatrix> BuildMaskedMatrix(
    const std::vector<ts::TimeSeries>& set) {
  if (set.empty()) return Status::InvalidArgument("empty series set");
  const std::size_t n = set[0].length();
  if (n == 0) return Status::InvalidArgument("zero-length series");
  for (std::size_t j = 0; j < set.size(); ++j) {
    const auto& s = set[j];
    if (s.length() != n) {
      return Status::InvalidArgument("series lengths differ within set");
    }
    if (s.MissingCount() == s.length()) {
      return Status::InvalidArgument("series " + std::to_string(j) +
                                     " has no observed values");
    }
    // NaN/Inf in observed positions would silently poison every iterative
    // completer; reject at the boundary instead (DESIGN.md §7).
    ADARTS_RETURN_NOT_OK(s.ValidateObservedFinite());
  }

  MaskedMatrix m;
  m.values = la::Matrix(n, set.size());
  m.missing.assign(n, std::vector<bool>(set.size(), false));
  for (std::size_t j = 0; j < set.size(); ++j) {
    const la::Vector filled = features::InterpolateMissing(set[j]);
    for (std::size_t t = 0; t < n; ++t) {
      m.values(t, j) = filled[t];
      m.missing[t][j] = set[j].IsMissing(t);
    }
  }
  return m;
}

std::vector<ts::TimeSeries> MatrixToSeries(
    const la::Matrix& values, const std::vector<ts::TimeSeries>& original) {
  std::vector<ts::TimeSeries> out;
  out.reserve(original.size());
  for (std::size_t j = 0; j < original.size(); ++j) {
    la::Vector vals(original[j].length());
    for (std::size_t t = 0; t < original[j].length(); ++t) {
      vals[t] = original[j].IsMissing(t) ? values(t, j)
                                         : original[j].value(t);
    }
    ts::TimeSeries s(std::move(vals));
    s.set_name(original[j].name());
    out.push_back(std::move(s));
  }
  return out;
}

void RestoreObserved(const MaskedMatrix& reference, la::Matrix* work) {
  for (std::size_t t = 0; t < reference.rows(); ++t) {
    for (std::size_t j = 0; j < reference.cols(); ++j) {
      if (!reference.missing[t][j]) {
        (*work)(t, j) = reference.values(t, j);
      }
    }
  }
}

double RelativeChange(const la::Matrix& a, const la::Matrix& b) {
  return a.Subtract(b).FrobeniusNorm() / (b.FrobeniusNorm() + 1e-12);
}

Status IterateUntilConverged(int max_iters, double tol,
                             FitDiagnostics* diagnostics,
                             const std::function<Result<double>()>& step) {
  diagnostics->converged = false;
  for (int it = 0; it < max_iters; ++it) {
    ADARTS_ASSIGN_OR_RETURN(const double change, step());
    diagnostics->iterations = it + 1;
    diagnostics->final_change = change;
    if (change < tol) {
      diagnostics->converged = true;
      break;
    }
  }
  return Status::OK();
}

}  // namespace adarts::impute
