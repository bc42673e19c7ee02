#include "ml/classifier.h"

#include <algorithm>
#include <cmath>

namespace adarts::ml {

std::string_view ClassifierKindToString(ClassifierKind kind) {
  switch (kind) {
    case ClassifierKind::kKnn:
      return "knn";
    case ClassifierKind::kDecisionTree:
      return "decision_tree";
    case ClassifierKind::kRandomForest:
      return "random_forest";
    case ClassifierKind::kExtraTrees:
      return "extra_trees";
    case ClassifierKind::kGradientBoosting:
      return "gradient_boosting";
    case ClassifierKind::kAdaBoost:
      return "adaboost";
    case ClassifierKind::kMlp:
      return "mlp";
    case ClassifierKind::kLogisticRegression:
      return "logistic_regression";
    case ClassifierKind::kRidge:
      return "ridge";
    case ClassifierKind::kLinearSvm:
      return "linear_svm";
    case ClassifierKind::kGaussianNb:
      return "gaussian_nb";
    case ClassifierKind::kLda:
      return "lda";
  }
  return "unknown";
}

Result<ClassifierKind> ClassifierKindFromString(std::string_view name) {
  for (ClassifierKind k : AllClassifierKinds()) {
    if (ClassifierKindToString(k) == name) return k;
  }
  return Status::NotFound("unknown classifier: " + std::string(name));
}

std::vector<ClassifierKind> AllClassifierKinds() {
  std::vector<ClassifierKind> out;
  out.reserve(kNumClassifierKinds);
  for (int i = 0; i < kNumClassifierKinds; ++i) {
    out.push_back(static_cast<ClassifierKind>(i));
  }
  return out;
}

const std::vector<ParamSpec>& ParamSpecsFor(ClassifierKind kind) {
  // Function-local statics avoid non-trivial globals (style guide) while
  // giving each family a stable spec table.
  switch (kind) {
    case ClassifierKind::kKnn: {
      static const auto& specs = *new std::vector<ParamSpec>{
          {"k", 1, 25, true, 5},
          {"weight_by_distance", 0, 1, true, 1},
      };
      return specs;
    }
    case ClassifierKind::kDecisionTree: {
      static const auto& specs = *new std::vector<ParamSpec>{
          {"max_depth", 2, 16, true, 8},
          {"min_samples_leaf", 1, 10, true, 2},
      };
      return specs;
    }
    case ClassifierKind::kRandomForest: {
      static const auto& specs = *new std::vector<ParamSpec>{
          {"num_trees", 5, 60, true, 20},
          {"max_depth", 2, 16, true, 8},
          {"feature_fraction", 0.3, 1.0, false, 0.7},
      };
      return specs;
    }
    case ClassifierKind::kExtraTrees: {
      static const auto& specs = *new std::vector<ParamSpec>{
          {"num_trees", 5, 60, true, 20},
          {"max_depth", 2, 16, true, 10},
          {"feature_fraction", 0.3, 1.0, false, 0.8},
      };
      return specs;
    }
    case ClassifierKind::kGradientBoosting: {
      static const auto& specs = *new std::vector<ParamSpec>{
          {"num_rounds", 10, 80, true, 30},
          {"learning_rate", 0.02, 0.5, false, 0.15, true},
          {"max_depth", 2, 5, true, 3},
      };
      return specs;
    }
    case ClassifierKind::kAdaBoost: {
      static const auto& specs = *new std::vector<ParamSpec>{
          {"num_rounds", 5, 60, true, 25},
          {"max_depth", 1, 4, true, 2},
      };
      return specs;
    }
    case ClassifierKind::kMlp: {
      static const auto& specs = *new std::vector<ParamSpec>{
          {"hidden_units", 4, 64, true, 24},
          {"learning_rate", 0.001, 0.3, false, 0.03, true},
          {"epochs", 20, 200, true, 80},
      };
      return specs;
    }
    case ClassifierKind::kLogisticRegression: {
      static const auto& specs = *new std::vector<ParamSpec>{
          {"learning_rate", 0.01, 1.0, false, 0.3, true},
          {"epochs", 50, 500, true, 300},
          {"l2", 0.0, 0.1, false, 0.001},
      };
      return specs;
    }
    case ClassifierKind::kRidge: {
      static const auto& specs = *new std::vector<ParamSpec>{
          {"alpha", 0.01, 10.0, false, 1.0, true},
      };
      return specs;
    }
    case ClassifierKind::kLinearSvm: {
      static const auto& specs = *new std::vector<ParamSpec>{
          {"c", 0.01, 10.0, false, 1.0, true},
          {"epochs", 20, 300, true, 100},
      };
      return specs;
    }
    case ClassifierKind::kGaussianNb: {
      static const auto& specs = *new std::vector<ParamSpec>{
          {"var_smoothing_log10", -12, -3, false, -9},
      };
      return specs;
    }
    case ClassifierKind::kLda: {
      static const auto& specs = *new std::vector<ParamSpec>{
          {"shrinkage", 0.0, 0.9, false, 0.2},
      };
      return specs;
    }
  }
  static const auto& empty = *new std::vector<ParamSpec>{};
  return empty;
}

HyperParams ResolveParams(ClassifierKind kind, const HyperParams& params) {
  HyperParams out;
  for (const ParamSpec& spec : ParamSpecsFor(kind)) {
    double v = spec.default_value;
    if (auto it = params.find(spec.name); it != params.end()) {
      v = it->second;
    }
    v = std::clamp(v, spec.min_value, spec.max_value);
    if (spec.integer) v = std::round(v);
    out[spec.name] = v;
  }
  // "seed" is accepted for every family.
  if (auto it = params.find("seed"); it != params.end()) {
    out["seed"] = it->second;
  } else {
    out["seed"] = 1.0;
  }
  return out;
}

int Classifier::Predict(const la::Vector& x) const {
  const la::Vector probs = PredictProba(x);
  return static_cast<int>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

}  // namespace adarts::ml
