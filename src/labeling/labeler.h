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
  /// For cluster labeling, rows repeat the representative's scores across
  /// the cluster.
  la::Matrix rmse;
  /// Number of algorithm executions performed — the cost the clustering
  /// step amortises (Section VI motivation).
  std::size_t imputation_runs = 0;
  /// The algorithm pool the label indices refer to.
  std::vector<impute::Algorithm> algorithms;
  /// Cluster path only: the representative series indices benchmarked for
  /// each cluster, parallel to the clustering's cluster list (empty in the
  /// exhaustive path). The engine persists the representatives so appended
  /// series can be assigned to clusters without the original corpus.
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

/// Fast labeling (Fig. 2, step 1): benchmarks only cluster representatives
/// (correlation medoids) and propagates each cluster's winning algorithm to
/// all members. Costs |clusters| * reps * |algorithms| runs instead of
/// |series| * |algorithms|. Same context contract as `LabelSeriesFull`
/// (shared pool, cancellation between clusters, `label.imputation_runs`
/// metrics); the representative-selection correlation matrix runs on the
/// same pool.
Result<LabelingResult> LabelByClusters(const std::vector<ts::TimeSeries>& series,
                                       const cluster::Clustering& clustering,
                                       const LabelingOptions& options,
                                       ExecContext& ctx);

/// Correlation medoids of a cluster: the `count` members with the highest
/// total absolute correlation to the rest of the cluster.
std::vector<std::size_t> ClusterRepresentatives(
    const std::vector<std::size_t>& members, const la::Matrix& corr,
    std::size_t count);

/// Label of one cluster benchmarked in isolation (the incremental append
/// path: a freshly split cluster is labeled without touching the rest of
/// the corpus).
struct ClusterLabel {
  /// Index into the resolved pool of the winning algorithm.
  int label = 0;
  /// Mean RMSE of each pool algorithm across the representatives.
  la::Vector mean_rmse;
  /// The representative indices (into the cluster set) that were scored.
  std::vector<std::size_t> representatives;
  /// Algorithm executions this labeling cost.
  std::size_t imputation_runs = 0;
};

/// Labels a standalone cluster by the procedure of one `LabelByClusters`
/// iteration: representatives are selected by correlation medoid within
/// `cluster_set`, masked with the configured pattern, scored against the
/// pool, and the argmin-mean-RMSE algorithm wins. Singleton clusters score
/// their only member. The masks differ from that iteration's: this draws
/// from a fresh `Rng(options.seed)` and masks representatives in medoid
/// order, while `LabelByClusters` draws from one `Rng` running across all
/// clusters and masks in ascending member order. Used by
/// `Adarts::AppendSeries` to label freshly split clusters — cost is
/// `reps * |algorithms|` runs, independent of the corpus size.
Result<ClusterLabel> LabelSingleCluster(
    const std::vector<ts::TimeSeries>& cluster_set,
    const LabelingOptions& options, ExecContext& ctx);

}  // namespace adarts::labeling

#endif  // ADARTS_LABELING_LABELER_H_
