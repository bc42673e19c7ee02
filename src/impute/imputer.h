#ifndef ADARTS_IMPUTE_IMPUTER_H_
#define ADARTS_IMPUTE_IMPUTER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "ts/time_series.h"

namespace adarts::impute {

/// The imputation-algorithm pool recommended over by A-DARTS. Mirrors the
/// matrix/pattern-based family covered by ImputeBench (Fig. 3 of the paper);
/// deep-learning imputers are substituted out as documented in DESIGN.md.
enum class Algorithm {
  kCdRec = 0,     ///< centroid-decomposition recovery
  kSvdImpute,     ///< iterative rank-k SVD completion (Troyanskaya)
  kSoftImpute,    ///< soft-thresholded SVD (Mazumder et al.)
  kSvt,           ///< singular value thresholding (Cai et al.)
  kGrouse,        ///< Grassmannian rank-one subspace tracking
  kDynaMmo,       ///< linear-dynamics smoothing (Li et al. style)
  kTrmf,          ///< temporal regularized matrix factorization
  kTeNmf,         ///< nonnegative matrix factorization recovery
  kRosl,          ///< robust orthonormal subspace learning
  kStMvl,         ///< spatio-temporal multi-view blending
  kTkcm,          ///< pattern-matching continuation (TKCM)
  kIim,           ///< regression-based individual imputation
  kMeanImpute,    ///< observed-mean baseline
  kLinearInterp,  ///< linear interpolation baseline
  kKnnImpute,     ///< correlated-neighbour average baseline
};

/// Number of algorithms in the enum (contiguous from 0).
inline constexpr int kNumAlgorithms = 15;

/// Short identifier, e.g. "cdrec".
std::string_view AlgorithmToString(Algorithm a);

/// Parses an identifier; fails on unknown names.
Result<Algorithm> AlgorithmFromString(std::string_view name);

/// All algorithms, enum order.
std::vector<Algorithm> AllAlgorithms();

/// Convergence report of one imputer fit. Iterative completers (CDRec, the
/// SVD family, TRMF/TeNMF, DynaMMo, GROUSE) fill it instead of silently
/// returning best-effort output: `converged == false` means the iteration
/// hit its cap while the reconstruction was still moving by more than the
/// tolerance. One-shot imputers (mean, interpolation, kNN, pattern-based)
/// report the defaults.
struct FitDiagnostics {
  bool converged = true;
  int iterations = 0;       ///< iterations (or passes) actually run
  double final_change = 0.0;  ///< last relative change of the reconstruction
};

/// Interface shared by every imputation algorithm.
///
/// Imputers operate on a *set* of equal-length series (the columns of an
/// ImputeBench-style matrix): cross-series algorithms exploit correlation
/// across the set, univariate ones process each series independently.
/// Returned series have all positions observed.
///
/// Each of the 15 imputers implements one virtual, `Fit`; the public entry
/// points are non-virtual wrappers around it, so every imputer hands out
/// its convergence report by the same rule.
class Imputer {
 public:
  virtual ~Imputer() = default;

  /// Algorithm identifier matching AlgorithmToString.
  virtual std::string_view name() const = 0;

  /// Repairs every missing position in every series of the set.
  /// All series must have the same non-zero length, at least one observed
  /// value each, and only finite observed values.
  Result<std::vector<ts::TimeSeries>> ImputeSet(
      const std::vector<ts::TimeSeries>& set) const;

  /// ImputeSet plus a convergence report, so callers that care —
  /// Adarts::Repair's degradation ladder, benches — see honest diagnostics.
  /// The report is written only when the fit succeeds; a failed fit leaves
  /// `*diagnostics` untouched. `diagnostics` may be nullptr.
  Result<std::vector<ts::TimeSeries>> ImputeSetWithDiagnostics(
      const std::vector<ts::TimeSeries>& set,
      FitDiagnostics* diagnostics) const;

  /// Convenience wrapper for a single series.
  Result<ts::TimeSeries> Impute(const ts::TimeSeries& series) const;

 protected:
  /// Repairs the set. `diagnostics` is never null and starts at the
  /// one-shot defaults; iterative imputers fill it in.
  virtual Result<std::vector<ts::TimeSeries>> Fit(
      const std::vector<ts::TimeSeries>& set,
      FitDiagnostics* diagnostics) const = 0;
};

/// Instantiates the implementation of `algorithm` with its ImputeBench-style
/// default parameterisation.
std::unique_ptr<Imputer> CreateImputer(Algorithm algorithm);

}  // namespace adarts::impute

#endif  // ADARTS_IMPUTE_IMPUTER_H_
