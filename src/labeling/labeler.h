#ifndef ADARTS_LABELING_LABELER_H_
#define ADARTS_LABELING_LABELER_H_

#include <cstdint>
#include <vector>

#include "cluster/clustering.h"
#include "common/status.h"
#include "impute/imputer.h"
#include "la/matrix.h"
#include "ts/missing.h"
#include "ts/time_series.h"

namespace adarts::labeling {

/// Options for annotating series with their best imputation algorithm.
struct LabelingOptions {
  /// Algorithm pool to race; defaults to the full registry.
  std::vector<impute::Algorithm> algorithms;
  ts::MissingPattern pattern = ts::MissingPattern::kSingleBlock;
  /// Size of the injected missing block, as a fraction of the series.
  double missing_fraction = 0.1;
  /// Representatives benchmarked per cluster in the fast path.
  std::size_t representatives_per_cluster = 2;
  std::uint64_t seed = 42;
};

/// Output of a labeling pass.
struct LabelingResult {
  /// Per-series label: index into `algorithms` of the winning imputer.
  std::vector<int> labels;
  /// Per-series RMSE of each algorithm (rows = series, cols = algorithms).
  /// For cluster labeling, every member's row holds its cluster's mean RMSE
  /// across the representatives.
  la::Matrix rmse;
  /// Number of algorithm executions performed — the cost the clustering
  /// step amortises (Section VI motivation).
  std::size_t imputation_runs = 0;
  /// The algorithm pool the label indices refer to.
  std::vector<impute::Algorithm> algorithms;
  /// Cluster path only: the representatives benchmarked for each cluster,
  /// as indices into the labeled `series` in medoid order (best first),
  /// parallel to the clustering's cluster list (empty in the exhaustive
  /// path). The engine persists the representatives so appended series can
  /// be assigned to clusters without the original corpus.
  std::vector<std::vector<std::size_t>> cluster_representatives;
};

/// Ground-truth labeling: injects one missing pattern into every series,
/// runs every algorithm over the whole set once, and labels each series with
/// its per-series argmin-RMSE algorithm. The per-algorithm benchmark runs on
/// `ctx`'s shared pool, the cancellation token is honoured, and the
/// `label.imputation_runs` counter accumulates in `ctx`'s metrics. Labels
/// and RMSE matrices are bit-identical for every thread count.
Result<LabelingResult> LabelSeriesFull(const std::vector<ts::TimeSeries>& series,
                                       const LabelingOptions& options,
                                       ExecContext& ctx);

/// Fast labeling (Fig. 2, step 1), the one cluster-labeling path: Train
/// labels its corpus clustering with it, and `Adarts::AppendSeries` the
/// clusters an append opens. Each non-empty cluster's members are copied
/// into a set whose own correlation block, computed on `ctx`'s pool, picks
/// its `representatives_per_cluster` correlation medoids. The medoids are
/// masked in member order, every pool algorithm runs once over the set,
/// and all members get the algorithm with the lowest mean RMSE across the
/// medoids. One `Rng(options.seed)` draws the masks of every cluster in
/// cluster order. Costs |clusters| * |algorithms| imputation runs (the
/// naive per-series cost is |series| * |algorithms|) and sum(m_k^2)
/// correlation pairs over clusters of m_k members, not n^2 over the whole
/// set. Same context contract as `LabelSeriesFull` (shared pool,
/// cancellation between clusters, `label.imputation_runs` metrics).
Result<LabelingResult> LabelByClusters(const std::vector<ts::TimeSeries>& series,
                                       const cluster::Clustering& clustering,
                                       const LabelingOptions& options,
                                       ExecContext& ctx);

/// Correlation medoids of a series set, from the set's correlation matrix:
/// the `count` (at least 1) indices with the highest total absolute
/// correlation to the rest of the set, best first, or every index in order
/// when the set has no more than `count` series.
std::vector<std::size_t> ClusterRepresentatives(const la::Matrix& corr,
                                                std::size_t count);

}  // namespace adarts::labeling

#endif  // ADARTS_LABELING_LABELER_H_
