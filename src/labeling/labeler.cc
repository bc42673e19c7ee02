#include "labeling/labeler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/exec_context.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "ts/metrics.h"

namespace adarts::labeling {

namespace {

std::vector<impute::Algorithm> ResolvePool(const LabelingOptions& options) {
  return options.algorithms.empty() ? impute::AllAlgorithms()
                                    : options.algorithms;
}

/// Injects the configured missing pattern into the selected series of the
/// set (each with its own random offset) and returns the masked copies.
Status MaskSeries(const LabelingOptions& options,
                  const std::vector<std::size_t>& targets, Rng* rng,
                  std::vector<ts::TimeSeries>* set) {
  for (std::size_t i : targets) {
    ADARTS_RETURN_NOT_OK(ts::InjectPattern(options.pattern,
                                           options.missing_fraction, rng,
                                           &(*set)[i]));
  }
  return Status::OK();
}

/// Runs every pool algorithm over the masked set and fills `rmse`
/// (rows = targets order, cols = algorithms). Counts executions. Algorithms
/// run in parallel across the pool's workers: each one builds its own
/// imputer and writes only its own `rmse` column, so results match the
/// serial pass bit-for-bit.
Status ScoreAlgorithms(const std::vector<ts::TimeSeries>& masked_set,
                       const std::vector<std::size_t>& targets,
                       const std::vector<impute::Algorithm>& pool,
                       ExecContext& ctx, la::Matrix* rmse,
                       std::size_t* runs) {
  // One histogram handle for the whole pass; each algorithm run records its
  // wall-clock into it lock-free.
  LatencyHistogram* const impute_hist =
      ctx.metrics().histogram("label.impute");
  ParallelFor(ctx, pool.size(), [&](std::size_t a) {
    TraceSpan span("label.impute", impute::AlgorithmToString(pool[a]));
    Stopwatch watch;
    const std::unique_ptr<impute::Imputer> imputer =
        impute::CreateImputer(pool[a]);
    auto repaired = imputer->ImputeSet(masked_set);
    impute_hist->RecordSeconds(watch.ElapsedSeconds());
    if (!repaired.ok()) {
      // An algorithm failing on a scenario is informative: it gets the
      // worst possible score rather than aborting the labeling pass.
      for (std::size_t r = 0; r < targets.size(); ++r) {
        (*rmse)(r, a) = std::numeric_limits<double>::infinity();
      }
      return;
    }
    for (std::size_t r = 0; r < targets.size(); ++r) {
      const std::size_t i = targets[r];
      auto err = ts::ImputationRmse(masked_set[i], (*repaired)[i]);
      (*rmse)(r, a) =
          err.ok() ? *err : std::numeric_limits<double>::infinity();
    }
  });
  ADARTS_RETURN_NOT_OK(ctx.CheckCancelled("Labeling algorithm benchmark"));
  *runs += pool.size();
  ctx.metrics().Increment("label.imputation_runs", pool.size());
  return Status::OK();
}

int ArgMinRow(const la::Matrix& m, std::size_t row) {
  int best = 0;
  for (std::size_t c = 1; c < m.cols(); ++c) {
    if (m(row, c) < m(row, static_cast<std::size_t>(best))) {
      best = static_cast<int>(c);
    }
  }
  return best;
}

/// The per-cluster core shared by LabelByClusters and LabelSingleCluster:
/// masks the representative slots of `cluster_set` in place, scores the
/// pool over the masked set, and returns each algorithm's mean RMSE across
/// the representatives. Consumes `rng` exactly as the pre-refactor inline
/// body did (one mask draw per representative, in order), so cluster-path
/// labels are bit-identical to earlier builds.
Result<la::Vector> ScoreClusterRepresentatives(
    std::vector<ts::TimeSeries>* cluster_set,
    const std::vector<std::size_t>& local_reps,
    const std::vector<impute::Algorithm>& pool, const LabelingOptions& options,
    Rng* rng, ExecContext& ctx, std::size_t* imputation_runs) {
  ADARTS_RETURN_NOT_OK(MaskSeries(options, local_reps, rng, cluster_set));
  la::Matrix rep_rmse(local_reps.size(), pool.size());
  ADARTS_RETURN_NOT_OK(ScoreAlgorithms(*cluster_set, local_reps, pool, ctx,
                                       &rep_rmse, imputation_runs));
  la::Vector mean_rmse(pool.size(), 0.0);
  for (std::size_t a = 0; a < pool.size(); ++a) {
    for (std::size_t r = 0; r < local_reps.size(); ++r) {
      mean_rmse[a] += rep_rmse(r, a);
    }
    mean_rmse[a] /= static_cast<double>(local_reps.size());
  }
  return mean_rmse;
}

}  // namespace

Result<LabelingResult> LabelSeriesFull(const std::vector<ts::TimeSeries>& series,
                                       const LabelingOptions& options,
                                       ExecContext& ctx) {
  if (series.empty()) return Status::InvalidArgument("no series to label");
  const std::vector<impute::Algorithm> pool = ResolvePool(options);
  Rng rng(options.seed);

  std::vector<ts::TimeSeries> masked = series;
  std::vector<std::size_t> targets(series.size());
  for (std::size_t i = 0; i < series.size(); ++i) targets[i] = i;
  ADARTS_RETURN_NOT_OK(MaskSeries(options, targets, &rng, &masked));

  LabelingResult result;
  result.algorithms = pool;
  result.rmse = la::Matrix(series.size(), pool.size());
  ADARTS_RETURN_NOT_OK(ScoreAlgorithms(masked, targets, pool, ctx,
                                       &result.rmse,
                                       &result.imputation_runs));
  result.labels.resize(series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    result.labels[i] = ArgMinRow(result.rmse, i);
  }
  return result;
}

Result<LabelingResult> LabelByClusters(const std::vector<ts::TimeSeries>& series,
                                       const cluster::Clustering& clustering,
                                       const LabelingOptions& options,
                                       ExecContext& ctx) {
  if (series.empty()) return Status::InvalidArgument("no series to label");
  const std::vector<impute::Algorithm> pool = ResolvePool(options);
  Rng rng(options.seed);
  // The representative-selection matrix reuses the context's pool: pairs fan
  // out before the per-cluster benchmark loop begins.
  const la::Matrix corr = cluster::PairwiseCorrelationMatrix(series, ctx);
  ADARTS_RETURN_NOT_OK(ctx.CheckCancelled("LabelByClusters correlation"));

  LabelingResult result;
  result.algorithms = pool;
  result.labels.assign(series.size(), 0);
  result.rmse = la::Matrix(series.size(), pool.size());

  for (const auto& members : clustering.clusters) {
    if (members.empty()) {
      // Keep the representative list parallel to the cluster list.
      result.cluster_representatives.emplace_back();
      continue;
    }
    const std::vector<std::size_t> reps = ClusterRepresentatives(
        members, corr, options.representatives_per_cluster);
    result.cluster_representatives.push_back(reps);

    // The benchmark runs on the cluster's series only (the context the
    // cross-series imputers exploit).
    std::vector<ts::TimeSeries> cluster_set;
    cluster_set.reserve(members.size());
    std::vector<std::size_t> local_reps;
    for (std::size_t local = 0; local < members.size(); ++local) {
      cluster_set.push_back(series[members[local]]);
      if (std::find(reps.begin(), reps.end(), members[local]) != reps.end()) {
        local_reps.push_back(local);
      }
    }
    ADARTS_ASSIGN_OR_RETURN(
        la::Vector mean_rmse,
        ScoreClusterRepresentatives(&cluster_set, local_reps, pool, options,
                                    &rng, ctx, &result.imputation_runs));

    // The cluster label is the algorithm with the lowest mean RMSE across
    // the representatives; scores propagate to every member.
    const int label = static_cast<int>(
        std::min_element(mean_rmse.begin(), mean_rmse.end()) -
        mean_rmse.begin());
    for (std::size_t i : members) {
      result.labels[i] = label;
      for (std::size_t a = 0; a < pool.size(); ++a) {
        result.rmse(i, a) = mean_rmse[a];
      }
    }
  }
  return result;
}

std::vector<std::size_t> ClusterRepresentatives(
    const std::vector<std::size_t>& members, const la::Matrix& corr,
    std::size_t count) {
  count = std::max<std::size_t>(count, 1);
  if (members.size() <= count) return members;
  // Total absolute correlation of each member to the rest of the cluster.
  std::vector<std::pair<double, std::size_t>> scored;
  scored.reserve(members.size());
  for (std::size_t i : members) {
    double total = 0.0;
    for (std::size_t j : members) {
      if (i != j) total += std::fabs(corr(i, j));
    }
    scored.emplace_back(total, i);
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::size_t> reps;
  for (std::size_t r = 0; r < count; ++r) reps.push_back(scored[r].second);
  return reps;
}

Result<ClusterLabel> LabelSingleCluster(
    const std::vector<ts::TimeSeries>& cluster_set,
    const LabelingOptions& options, ExecContext& ctx) {
  if (cluster_set.empty()) {
    return Status::InvalidArgument("no series in cluster to label");
  }
  const std::vector<impute::Algorithm> pool = ResolvePool(options);
  Rng rng(options.seed);

  ClusterLabel out;
  const std::size_t count =
      std::max<std::size_t>(options.representatives_per_cluster, 1);
  if (cluster_set.size() <= count) {
    out.representatives.resize(cluster_set.size());
    for (std::size_t i = 0; i < cluster_set.size(); ++i) {
      out.representatives[i] = i;
    }
  } else {
    // Medoid selection needs the intra-cluster correlation matrix; the
    // cluster is small (append deltas), so this stays cheap.
    const la::Matrix corr = cluster::PairwiseCorrelationMatrix(cluster_set, ctx);
    ADARTS_RETURN_NOT_OK(ctx.CheckCancelled("LabelSingleCluster correlation"));
    std::vector<std::size_t> members(cluster_set.size());
    for (std::size_t i = 0; i < cluster_set.size(); ++i) members[i] = i;
    out.representatives = ClusterRepresentatives(members, corr, count);
  }

  std::vector<ts::TimeSeries> masked = cluster_set;
  ADARTS_ASSIGN_OR_RETURN(
      out.mean_rmse,
      ScoreClusterRepresentatives(&masked, out.representatives, pool, options,
                                  &rng, ctx, &out.imputation_runs));
  out.label = static_cast<int>(
      std::min_element(out.mean_rmse.begin(), out.mean_rmse.end()) -
      out.mean_rmse.begin());
  return out;
}

}  // namespace adarts::labeling
