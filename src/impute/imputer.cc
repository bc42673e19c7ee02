#include "impute/imputer.h"

#include "impute/cdrec.h"
#include "impute/factorization.h"
#include "impute/pattern.h"
#include "impute/simple.h"
#include "impute/subspace.h"
#include "impute/svd_family.h"

namespace adarts::impute {

std::string_view AlgorithmToString(Algorithm a) {
  switch (a) {
    case Algorithm::kCdRec:
      return "cdrec";
    case Algorithm::kSvdImpute:
      return "svd_impute";
    case Algorithm::kSoftImpute:
      return "soft_impute";
    case Algorithm::kSvt:
      return "svt";
    case Algorithm::kGrouse:
      return "grouse";
    case Algorithm::kDynaMmo:
      return "dynammo";
    case Algorithm::kTrmf:
      return "trmf";
    case Algorithm::kTeNmf:
      return "tenmf";
    case Algorithm::kRosl:
      return "rosl";
    case Algorithm::kStMvl:
      return "stmvl";
    case Algorithm::kTkcm:
      return "tkcm";
    case Algorithm::kIim:
      return "iim";
    case Algorithm::kMeanImpute:
      return "mean";
    case Algorithm::kLinearInterp:
      return "linear_interp";
    case Algorithm::kKnnImpute:
      return "knn_impute";
  }
  return "unknown";
}

Result<Algorithm> AlgorithmFromString(std::string_view name) {
  for (Algorithm a : AllAlgorithms()) {
    if (AlgorithmToString(a) == name) return a;
  }
  return Status::NotFound("unknown imputation algorithm: " +
                          std::string(name));
}

std::vector<Algorithm> AllAlgorithms() {
  std::vector<Algorithm> out;
  out.reserve(kNumAlgorithms);
  for (int i = 0; i < kNumAlgorithms; ++i) {
    out.push_back(static_cast<Algorithm>(i));
  }
  return out;
}

Result<std::vector<ts::TimeSeries>> Imputer::ImputeSet(
    const std::vector<ts::TimeSeries>& set) const {
  return ImputeSetWithDiagnostics(set, nullptr);
}

Result<std::vector<ts::TimeSeries>> Imputer::ImputeSetWithDiagnostics(
    const std::vector<ts::TimeSeries>& set, FitDiagnostics* diagnostics) const {
  FitDiagnostics report;
  Result<std::vector<ts::TimeSeries>> repaired = Fit(set, &report);
  if (repaired.ok() && diagnostics != nullptr) *diagnostics = report;
  return repaired;
}

Result<ts::TimeSeries> Imputer::Impute(const ts::TimeSeries& series) const {
  ADARTS_ASSIGN_OR_RETURN(std::vector<ts::TimeSeries> repaired,
                          ImputeSet({series}));
  return std::move(repaired[0]);
}

std::unique_ptr<Imputer> CreateImputer(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kCdRec:
      return std::make_unique<CdRecImputer>();
    case Algorithm::kSvdImpute:
      return std::make_unique<SvdImputer>();
    case Algorithm::kSoftImpute:
      return std::make_unique<SoftImputer>();
    case Algorithm::kSvt:
      return std::make_unique<SvtImputer>();
    case Algorithm::kGrouse:
      return std::make_unique<GrouseImputer>();
    case Algorithm::kDynaMmo:
      return std::make_unique<DynaMmoImputer>();
    case Algorithm::kTrmf:
      return std::make_unique<TrmfImputer>();
    case Algorithm::kTeNmf:
      return std::make_unique<TeNmfImputer>();
    case Algorithm::kRosl:
      return std::make_unique<RoslImputer>();
    case Algorithm::kStMvl:
      return std::make_unique<StMvlImputer>();
    case Algorithm::kTkcm:
      return std::make_unique<TkcmImputer>();
    case Algorithm::kIim:
      return std::make_unique<IimImputer>();
    case Algorithm::kMeanImpute:
      return std::make_unique<MeanImputer>();
    case Algorithm::kLinearInterp:
      return std::make_unique<LinearInterpImputer>();
    case Algorithm::kKnnImpute:
      return std::make_unique<KnnImputer>();
  }
  return nullptr;
}

}  // namespace adarts::impute
