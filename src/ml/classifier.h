#ifndef ADARTS_ML_CLASSIFIER_H_
#define ADARTS_ML_CLASSIFIER_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "la/vector_ops.h"
#include "ml/dataset.h"

namespace adarts::ml {

/// The twelve classifier families raced by ModelRace (Section VII-B tests
/// "12 different classifiers ranging from standard kNN, decision trees and
/// MLPs to more recent, sophisticated ones such as CatBoost" — gradient
/// boosted trees stand in for CatBoost; see DESIGN.md).
enum class ClassifierKind {
  kKnn = 0,
  kDecisionTree,
  kRandomForest,
  kExtraTrees,
  kGradientBoosting,
  kAdaBoost,
  kMlp,
  kLogisticRegression,
  kRidge,
  kLinearSvm,
  kGaussianNb,
  kLda,
};

inline constexpr int kNumClassifierKinds = 12;

std::string_view ClassifierKindToString(ClassifierKind kind);
Result<ClassifierKind> ClassifierKindFromString(std::string_view name);
std::vector<ClassifierKind> AllClassifierKinds();

/// Hyperparameters as a name -> value map; integer parameters are stored as
/// doubles and rounded by the consumer. Missing entries take the spec's
/// default. This representation is what ModelRace's synthesizer mutates.
using HyperParams = std::map<std::string, double>;

/// Declares one tunable hyperparameter of a classifier family.
struct ParamSpec {
  std::string name;
  double min_value;
  double max_value;
  bool integer;
  double default_value;
  bool log_scale = false;  ///< mutate multiplicatively
};

/// Tunable hyperparameters of `kind` (used by the pipeline synthesizer).
const std::vector<ParamSpec>& ParamSpecsFor(ClassifierKind kind);

/// Returns `params` completed with defaults for unspecified names and
/// clamped into the legal ranges.
HyperParams ResolveParams(ClassifierKind kind, const HyperParams& params);

/// Interface for all classifiers: fit on a labeled dataset, then emit a
/// per-class probability vector for new samples. Implementations are
/// deterministic given the "seed" hyperparameter.
class Classifier {
 public:
  virtual ~Classifier() = default;
  virtual std::string_view name() const = 0;

  /// Trains on `data` (which must Validate()).
  virtual Status Fit(const Dataset& data) = 0;

  /// Per-class probabilities (sums to 1) for one sample. Requires Fit.
  virtual la::Vector PredictProba(const la::Vector& x) const = 0;

  /// Argmax class for one sample.
  int Predict(const la::Vector& x) const;
};

/// Instantiates a classifier of `kind` with `params` (resolved against the
/// family's spec).
std::unique_ptr<Classifier> CreateClassifier(ClassifierKind kind,
                                             const HyperParams& params = {});

}  // namespace adarts::ml

#endif  // ADARTS_ML_CLASSIFIER_H_
