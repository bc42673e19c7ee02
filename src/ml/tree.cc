#include "ml/tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace adarts::ml {

namespace {

/// Quantile-midpoint thresholds examined per feature in exact mode.
constexpr std::size_t kThresholdCandidates = 16;

/// Candidate split thresholds for one feature over the given rows: either
/// up to `kThresholdCandidates` quantile midpoints (exact mode) or one
/// uniform random draw (extra-trees).
la::Vector CandidateThresholds(const std::vector<la::Vector>& x,
                               const std::vector<std::size_t>& rows,
                               std::size_t feature, bool random_mode,
                               Rng* rng) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t r : rows) {
    lo = std::min(lo, x[r][feature]);
    hi = std::max(hi, x[r][feature]);
  }
  if (!(hi > lo)) return {};
  if (random_mode) {
    return {rng->Uniform(lo, hi)};
  }
  la::Vector values;
  values.reserve(rows.size());
  for (std::size_t r : rows) values.push_back(x[r][feature]);
  std::sort(values.begin(), values.end());
  la::Vector out;
  const std::size_t steps =
      std::min(kThresholdCandidates, values.size() - 1);
  for (std::size_t s = 1; s <= steps; ++s) {
    const std::size_t idx = s * (values.size() - 1) / (steps + 1) + 1;
    const double t = 0.5 * (values[idx - 1] + values[idx]);
    if (out.empty() || t != out.back()) out.push_back(t);
  }
  return out;
}

/// Features to consider at one split, without replacement.
std::vector<std::size_t> SampleFeatures(std::size_t dim,
                                        double feature_fraction, Rng* rng) {
  auto count = static_cast<std::size_t>(
      std::ceil(feature_fraction * static_cast<double>(dim)));
  count = std::clamp<std::size_t>(count, 1, dim);
  if (count == dim) {
    std::vector<std::size_t> all(dim);
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  return rng->SampleWithoutReplacement(dim, count);
}

double GiniFromCounts(const la::Vector& counts, double total) {
  if (total <= 0.0) return 0.0;
  double g = 1.0;
  for (double c : counts) {
    const double p = c / total;
    g -= p * p;
  }
  return g;
}

}  // namespace

ClassificationTree::ClassificationTree(TreeOptions options)
    : options_(options) {}

Status ClassificationTree::Fit(const Dataset& data,
                               const std::vector<std::size_t>& rows,
                               const la::Vector& weights) {
  ADARTS_RETURN_NOT_OK(data.Validate());
  if (rows.empty()) return Status::InvalidArgument("no training rows");
  if (!weights.empty() && weights.size() != data.size()) {
    return Status::InvalidArgument("weights size mismatch");
  }
  num_classes_ = data.num_classes;
  nodes_.clear();
  Rng rng(options_.seed);
  std::vector<std::size_t> work = rows;
  Build(data, work, weights, 0, &rng);
  return Status::OK();
}

int ClassificationTree::Build(const Dataset& data,
                              std::vector<std::size_t>& rows,
                              const la::Vector& weights, std::size_t depth,
                              Rng* rng) {
  // Weighted class histogram for this node.
  la::Vector counts(static_cast<std::size_t>(num_classes_), 0.0);
  double total = 0.0;
  for (std::size_t r : rows) {
    const double w = weights.empty() ? 1.0 : weights[r];
    counts[static_cast<std::size_t>(data.labels[r])] += w;
    total += w;
  }

  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  {
    la::Vector probs = counts;
    const double denom = total > 0.0 ? total : 1.0;
    for (double& p : probs) p /= denom;
    nodes_[node_id].class_probs = std::move(probs);
  }

  const double node_gini = GiniFromCounts(counts, total);
  if (depth >= options_.max_depth || node_gini <= 1e-12 ||
      rows.size() < 2 * options_.min_samples_leaf) {
    return node_id;
  }

  // Find the best split among sampled features and candidate thresholds.
  double best_score = node_gini - 1e-9;  // must strictly improve
  int best_feature = -1;
  double best_threshold = 0.0;

  for (std::size_t f :
       SampleFeatures(data.dim(), options_.feature_fraction, rng)) {
    const la::Vector thresholds = CandidateThresholds(
        data.features, rows, f, options_.random_thresholds, rng);
    for (double t : thresholds) {
      la::Vector left_counts(static_cast<std::size_t>(num_classes_), 0.0);
      double left_total = 0.0;
      std::size_t left_n = 0;
      for (std::size_t r : rows) {
        if (data.features[r][f] <= t) {
          const double w = weights.empty() ? 1.0 : weights[r];
          left_counts[static_cast<std::size_t>(data.labels[r])] += w;
          left_total += w;
          ++left_n;
        }
      }
      if (left_n < options_.min_samples_leaf ||
          rows.size() - left_n < options_.min_samples_leaf) {
        continue;
      }
      la::Vector right_counts(static_cast<std::size_t>(num_classes_), 0.0);
      for (std::size_t c = 0; c < left_counts.size(); ++c) {
        right_counts[c] = counts[c] - left_counts[c];
      }
      const double right_total = total - left_total;
      const double score =
          (left_total * GiniFromCounts(left_counts, left_total) +
           right_total * GiniFromCounts(right_counts, right_total)) /
          (total > 0.0 ? total : 1.0);
      if (score < best_score) {
        best_score = score;
        best_feature = static_cast<int>(f);
        best_threshold = t;
      }
    }
  }

  if (best_feature < 0) return node_id;

  // Partition rows (in place) and recurse.
  std::vector<std::size_t> left_rows, right_rows;
  for (std::size_t r : rows) {
    (data.features[r][static_cast<std::size_t>(best_feature)] <=
             best_threshold
         ? left_rows
         : right_rows)
        .push_back(r);
  }
  rows.clear();
  rows.shrink_to_fit();

  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = best_threshold;
  const int left = Build(data, left_rows, weights, depth + 1, rng);
  nodes_[node_id].left = left;
  const int right = Build(data, right_rows, weights, depth + 1, rng);
  nodes_[node_id].right = right;
  return node_id;
}

la::Vector ClassificationTree::PredictProba(const la::Vector& x) const {
  if (nodes_.empty()) {
    return la::Vector(static_cast<std::size_t>(num_classes_),
                      num_classes_ > 0 ? 1.0 / num_classes_ : 0.0);
  }
  int cur = 0;
  while (nodes_[cur].feature >= 0) {
    cur = x[static_cast<std::size_t>(nodes_[cur].feature)] <=
                  nodes_[cur].threshold
              ? nodes_[cur].left
              : nodes_[cur].right;
  }
  return nodes_[cur].class_probs;
}

int ClassificationTree::Predict(const la::Vector& x) const {
  const la::Vector probs = PredictProba(x);
  return static_cast<int>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

RegressionTree::RegressionTree(TreeOptions options) : options_(options) {}

Status RegressionTree::Fit(const std::vector<la::Vector>& x,
                           const la::Vector& targets,
                           const std::vector<std::size_t>& rows) {
  if (x.empty() || x.size() != targets.size()) {
    return Status::InvalidArgument("regression tree input mismatch");
  }
  if (rows.empty()) return Status::InvalidArgument("no training rows");
  nodes_.clear();
  Rng rng(options_.seed);
  std::vector<std::size_t> work = rows;
  Build(x, targets, work, 0, &rng);
  return Status::OK();
}

int RegressionTree::Build(const std::vector<la::Vector>& x,
                          const la::Vector& targets,
                          std::vector<std::size_t>& rows, std::size_t depth,
                          Rng* rng) {
  double sum = 0.0, sq = 0.0;
  for (std::size_t r : rows) {
    sum += targets[r];
    sq += targets[r] * targets[r];
  }
  const double n = static_cast<double>(rows.size());
  const double mean = sum / n;
  const double sse = sq - sum * sum / n;

  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].value = mean;

  if (depth >= options_.max_depth || sse <= 1e-12 ||
      rows.size() < 2 * options_.min_samples_leaf) {
    return node_id;
  }

  double best_sse = sse - 1e-9;
  int best_feature = -1;
  double best_threshold = 0.0;

  for (std::size_t f :
       SampleFeatures(x[0].size(), options_.feature_fraction, rng)) {
    const la::Vector thresholds =
        CandidateThresholds(x, rows, f, options_.random_thresholds, rng);
    for (double t : thresholds) {
      double lsum = 0.0, lsq = 0.0;
      std::size_t ln = 0;
      for (std::size_t r : rows) {
        if (x[r][f] <= t) {
          lsum += targets[r];
          lsq += targets[r] * targets[r];
          ++ln;
        }
      }
      const std::size_t rn = rows.size() - ln;
      if (ln < options_.min_samples_leaf || rn < options_.min_samples_leaf) {
        continue;
      }
      const double rsum = sum - lsum;
      const double rsq = sq - lsq;
      const double lsse = lsq - lsum * lsum / static_cast<double>(ln);
      const double rsse = rsq - rsum * rsum / static_cast<double>(rn);
      if (lsse + rsse < best_sse) {
        best_sse = lsse + rsse;
        best_feature = static_cast<int>(f);
        best_threshold = t;
      }
    }
  }

  if (best_feature < 0) return node_id;

  std::vector<std::size_t> left_rows, right_rows;
  for (std::size_t r : rows) {
    (x[r][static_cast<std::size_t>(best_feature)] <= best_threshold
         ? left_rows
         : right_rows)
        .push_back(r);
  }
  rows.clear();
  rows.shrink_to_fit();

  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = best_threshold;
  const int left = Build(x, targets, left_rows, depth + 1, rng);
  nodes_[node_id].left = left;
  const int right = Build(x, targets, right_rows, depth + 1, rng);
  nodes_[node_id].right = right;
  return node_id;
}

double RegressionTree::Predict(const la::Vector& x) const {
  if (nodes_.empty()) return 0.0;
  int cur = 0;
  while (nodes_[cur].feature >= 0) {
    cur = x[static_cast<std::size_t>(nodes_[cur].feature)] <=
                  nodes_[cur].threshold
              ? nodes_[cur].left
              : nodes_[cur].right;
  }
  return nodes_[cur].value;
}

}  // namespace adarts::ml
