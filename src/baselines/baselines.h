#ifndef ADARTS_BASELINES_BASELINES_H_
#define ADARTS_BASELINES_BASELINES_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "la/vector_ops.h"
#include "ml/classifier.h"
#include "ml/dataset.h"

namespace adarts::baselines {

/// Common interface for the comparator model-selection systems of Section
/// VII-B. Each system trains on a labeled dataset (holding out its own
/// validation split) and then predicts per-class probabilities for new
/// feature vectors. These are reimplementations of each system's documented
/// search strategy (see DESIGN.md), not the original codebases.
class ModelSelector {
 public:
  virtual ~ModelSelector() = default;
  virtual std::string_view name() const = 0;

  /// Runs the system's model search and fits the winning model(s).
  virtual Status Train(const ml::Dataset& train) = 0;

  /// Per-class probabilities for one sample.
  virtual la::Vector PredictProba(const la::Vector& x) const = 0;

  /// Whether the system can emit a ranked list (Table III reports MRR only
  /// for systems that can).
  virtual bool SupportsRanking() const { return true; }

  int Recommend(const la::Vector& x) const;
};

/// Search-budget knobs shared by the baselines, so the Fig. 8 runtime sweep
/// can vary the number of configurations uniformly.
struct BaselineOptions {
  std::size_t num_configurations = 24;
  std::uint64_t seed = 11;
};

/// FLAML-lite: multi-classifier cost-frontier search. One branch per
/// classifier family; each step expands the most promising branch by
/// mutating one hyperparameter, evaluating on a growing training sample
/// with a cost combining error and time. A single configuration wins; a
/// discarded branch (family) never returns. No feature scaling.
std::unique_ptr<ModelSelector> CreateFlamlLite(const BaselineOptions& options = {});

/// Tune-lite: Hyperband-style successive halving over pre-generated random
/// configurations of one hand-picked classifier (random forest). Each rung
/// evaluates all survivors on a doubled training budget and discards the
/// worst half. No scaling, single winner.
std::unique_ptr<ModelSelector> CreateTuneLite(const BaselineOptions& options = {});

/// AutoFolio-lite: single classifier (MLP), random seed configurations plus
/// one-parameter-at-a-time perturbations, evaluated across data partitions;
/// the best average configuration wins. No scaling, single winner.
std::unique_ptr<ModelSelector> CreateAutoFolioLite(
    const BaselineOptions& options = {});

/// RAHA-lite: clusters training samples by feature similarity, trains one
/// classifier per cluster (choosing the best family per cluster on a
/// validation split with an inverse-error objective), and routes each query
/// to its nearest cluster's model. Supports ranked output.
std::unique_ptr<ModelSelector> CreateRahaLite(const BaselineOptions& options = {});

}  // namespace adarts::baselines

#endif  // ADARTS_BASELINES_BASELINES_H_
