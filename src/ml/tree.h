#ifndef ADARTS_ML_TREE_H_
#define ADARTS_ML_TREE_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "la/vector_ops.h"
#include "ml/dataset.h"

namespace adarts::ml {

/// Options shared by the classification and regression trees.
struct TreeOptions {
  std::size_t max_depth = 8;
  std::size_t min_samples_leaf = 1;
  /// Fraction of features examined per split (random forests subsample).
  double feature_fraction = 1.0;
  /// Extra-trees mode: pick one random threshold per feature instead of the
  /// best of the candidate thresholds.
  bool random_thresholds = false;
  std::uint64_t seed = 1;
};

/// CART classification tree (Gini impurity), supporting sample weights
/// (AdaBoost) and row subsets (bagging).
class ClassificationTree {
 public:
  explicit ClassificationTree(TreeOptions options = {});

  /// Fits on `rows` of `data` with optional per-sample weights (empty means
  /// uniform). Rows may repeat (bootstrap samples).
  Status Fit(const Dataset& data, const std::vector<std::size_t>& rows,
             const la::Vector& weights = {});

  /// Leaf class distribution for one sample.
  la::Vector PredictProba(const la::Vector& x) const;
  int Predict(const la::Vector& x) const;

 private:
  struct Node {
    int feature = -1;      // -1 marks a leaf
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    la::Vector class_probs;
  };
  int Build(const Dataset& data, std::vector<std::size_t>& rows,
            const la::Vector& weights, std::size_t depth, Rng* rng);

  TreeOptions options_;
  std::vector<Node> nodes_;
  int num_classes_ = 0;
};

/// Regression tree (squared-error splits, mean-value leaves) used as the
/// base learner of the gradient-boosting classifier.
class RegressionTree {
 public:
  explicit RegressionTree(TreeOptions options = {});

  Status Fit(const std::vector<la::Vector>& x, const la::Vector& targets,
             const std::vector<std::size_t>& rows);
  double Predict(const la::Vector& x) const;

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    double value = 0.0;
  };
  int Build(const std::vector<la::Vector>& x, const la::Vector& targets,
            std::vector<std::size_t>& rows, std::size_t depth, Rng* rng);

  TreeOptions options_;
  std::vector<Node> nodes_;
};

}  // namespace adarts::ml

#endif  // ADARTS_ML_TREE_H_
