#ifndef ADARTS_IMPUTE_SUBSPACE_H_
#define ADARTS_IMPUTE_SUBSPACE_H_

#include <cstddef>

#include "impute/imputer.h"

namespace adarts::impute {

/// GROUSE (Balzano et al.): Grassmannian rank-one update subspace
/// estimation. Streams the cross-sections x_t in R^(num series), tracking a
/// rank-k subspace U from the observed coordinates and imputing the missing
/// ones as U w_t. Falls back to the interpolation pre-fill for sets with a
/// single series (no cross-section to track).
class GrouseImputer final : public Imputer {
 public:
  explicit GrouseImputer(std::size_t rank = 2, int passes = 4,
                         double step = 0.5)
      : rank_(rank), passes_(passes), step_(step) {}
  std::string_view name() const override { return "grouse"; }

 private:
  Result<std::vector<ts::TimeSeries>> Fit(
      const std::vector<ts::TimeSeries>& set,
      FitDiagnostics* diagnostics) const override;

  std::size_t rank_;
  int passes_;
  double step_;
};

/// DynaMMo-style linear-dynamics recovery (Li et al. 2009), simplified:
/// project to a k-dim latent trajectory (PCA), fit a VAR(1) transition, and
/// smooth the latent states forward/backward before reconstructing the
/// missing entries. Captures the co-evolution structure the original EM/LDS
/// formulation targets without the full Kalman machinery.
class DynaMmoImputer final : public Imputer {
 public:
  explicit DynaMmoImputer(std::size_t latent_dim = 3, int max_iters = 15,
                          double tol = 1e-5)
      : latent_dim_(latent_dim), max_iters_(max_iters), tol_(tol) {}
  std::string_view name() const override { return "dynammo"; }

 private:
  Result<std::vector<ts::TimeSeries>> Fit(
      const std::vector<ts::TimeSeries>& set,
      FitDiagnostics* diagnostics) const override;

  std::size_t latent_dim_;
  int max_iters_;
  double tol_;
};

}  // namespace adarts::impute

#endif  // ADARTS_IMPUTE_SUBSPACE_H_
