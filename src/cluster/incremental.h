#ifndef ADARTS_CLUSTER_INCREMENTAL_H_
#define ADARTS_CLUSTER_INCREMENTAL_H_

#include <cstdint>

#include "cluster/clustering.h"

namespace adarts::cluster {

/// Options for A-DARTS's incremental clustering (Algorithm 2).
struct IncrementalOptions {
  /// Minimum average intra-cluster correlation delta; clusters below it are
  /// split further during the initial phase.
  double correlation_threshold = 0.8;
  /// Split factor p: a low-correlation cluster of size s is re-clustered
  /// into max(2, p * s) sub-clusters (paper sets p to 20%).
  double split_fraction = 0.2;
  /// Clusters of at most this size are "small" and candidates for merging
  /// during the refinement phase.
  std::size_t small_cluster_size = 3;
  /// The refinement phase may trade a little correlation for fewer clusters
  /// (the labeling cost scales with the cluster count): a merge is accepted
  /// while the merged cluster stays above slack * threshold.
  double merge_correlation_slack = 0.85;
  std::uint64_t seed = 1;
};

/// Two-phase incremental clustering: (1) recursively split clusters whose
/// average correlation is below the threshold; (2) merge small clusters and
/// move individual series guided by the correlation gain of Definition 1,
/// never letting a merge drop a cluster below the threshold. The
/// correlation matrix and the refinement phase's gain evaluation run on
/// `ctx`'s shared pool, the context's cancellation token is honoured
/// between phases, and `ctx`'s metrics gain the `cluster.splits` /
/// `cluster.merges` / `cluster.moves` counters plus the
/// `cluster.correlation_seconds` span. Clusterings are bit-identical for
/// every thread count; see the determinism contract in
/// common/thread_pool.h.
Result<Clustering> IncrementalClustering(
    const std::vector<ts::TimeSeries>& series,
    const IncrementalOptions& options, ExecContext& ctx);

/// Where one new series landed during incremental corpus growth.
struct SeriesAssignment {
  /// Index of the winning cluster in the representative list, or — when
  /// `split` is true — unset (the caller opens a fresh cluster).
  std::size_t cluster = 0;
  /// True when no existing cluster was admissible: the series splits off
  /// into a new singleton cluster (the append-path analogue of Algorithm
  /// 2's phase-1 split).
  bool split = false;
  /// Mean absolute correlation between the series and the winning
  /// cluster's representatives; 0 for a split.
  double correlation = 0.0;
};

/// Places one new series against the existing clusters without re-running
/// the full clustering: each cluster is summarised by its stored
/// representative series (correlation medoids), the series' mean absolute
/// correlation to every cluster's representatives is evaluated on `ctx`'s
/// pool (one slot per cluster), and the argmax reduction runs serially in
/// index order — bit-identical across thread counts. The winner must pass
/// the same admissibility floor the refinement phase of
/// `IncrementalClustering` uses for merges (`merge_correlation_slack *
/// correlation_threshold`); when no cluster passes, the series splits off.
Result<SeriesAssignment> AssignSeriesToClusters(
    const ts::TimeSeries& series,
    const std::vector<std::vector<ts::TimeSeries>>& representatives,
    const IncrementalOptions& options, ExecContext& ctx);

}  // namespace adarts::cluster

#endif  // ADARTS_CLUSTER_INCREMENTAL_H_
