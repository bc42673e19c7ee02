#include "cluster/incremental.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>

#include "cluster/kshape.h"
#include "common/exec_context.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "la/vector_ops.h"
#include "ts/correlation.h"

namespace adarts::cluster {

namespace {

/// Best merge/move partner for `source` among `clusters`, skipping index
/// `skip` and empty clusters. Every candidate's correlation gain and merged
/// correlation floor check is evaluated on the pool (one slot per candidate
/// index); the argmax reduction then runs serially in index order, so the
/// winner is bit-identical to the serial scan. Returns clusters.size() when
/// no candidate has positive gain and an admissible merged correlation.
std::size_t BestPartner(const std::vector<std::size_t>& source,
                        std::size_t skip,
                        const std::vector<std::vector<std::size_t>>& clusters,
                        const la::Matrix& corr, std::size_t n,
                        double merge_floor, ExecContext& ctx) {
  std::vector<double> gains(clusters.size(), 0.0);
  std::vector<char> admissible(clusters.size(), 0);
  LatencyHistogram* const candidate_hist =
      ctx.metrics().histogram("cluster.candidate");
  ParallelFor(ctx, clusters.size(), [&](std::size_t j) {
    if (j == skip || clusters[j].empty()) return;
    TraceSpan span("cluster.candidate");
    Stopwatch watch;
    gains[j] = CorrelationGain(source, clusters[j], corr, n);
    std::vector<std::size_t> merged = source;
    merged.insert(merged.end(), clusters[j].begin(), clusters[j].end());
    admissible[j] = ClusterAvgCorrelation(merged, corr) >= merge_floor ? 1 : 0;
    candidate_hist->RecordSeconds(watch.ElapsedSeconds());
  });
  double best_gain = 0.0;
  std::size_t best_j = clusters.size();
  for (std::size_t j = 0; j < clusters.size(); ++j) {
    if (j == skip || clusters[j].empty()) continue;
    if (gains[j] > best_gain && admissible[j]) {
      best_gain = gains[j];
      best_j = j;
    }
  }
  return best_j;
}

}  // namespace

Result<Clustering> IncrementalClustering(
    const std::vector<ts::TimeSeries>& series,
    const IncrementalOptions& options, ExecContext& ctx) {
  if (series.empty()) return Status::InvalidArgument("no series to cluster");
  // A constant series has zero variance, so its Pearson correlation to any
  // other series is undefined; with *every* series constant the whole
  // correlation matrix is meaningless and no threshold can partition it.
  bool any_varying = false;
  for (const ts::TimeSeries& s : series) {
    if (la::StdDev(s.values()) > 0.0) {
      any_varying = true;
      break;
    }
  }
  if (!any_varying) {
    return Status::InvalidArgument(
        "every series in the corpus is constant; pairwise correlation is "
        "undefined");
  }
  const std::size_t n = series.size();
  const la::Matrix corr = PairwiseCorrelationMatrix(series, ctx);
  ADARTS_RETURN_NOT_OK(ctx.CheckCancelled("IncrementalClustering correlation"));

  // ---- Phase 1: recursive splitting (Algorithm 2, lines 2-8).
  std::deque<std::vector<std::size_t>> pending;
  {
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    pending.push_back(std::move(all));
  }

  Clustering result;
  std::uint64_t seed = options.seed;
  while (!pending.empty()) {
    std::vector<std::size_t> cur = std::move(pending.front());
    pending.pop_front();
    if (cur.size() <= 1 ||
        ClusterAvgCorrelation(cur, corr) >= options.correlation_threshold) {
      result.clusters.push_back(std::move(cur));
      continue;
    }
    const auto num_sub = std::max<std::size_t>(
        2, static_cast<std::size_t>(options.split_fraction *
                                    static_cast<double>(cur.size())));
    std::vector<ts::TimeSeries> subset;
    subset.reserve(cur.size());
    for (std::size_t i : cur) subset.push_back(series[i]);
    KShapeOptions kopts;
    kopts.k = std::min(num_sub, cur.size());
    kopts.max_iters = 10;
    kopts.seed = ++seed;
    TraceSpan split_span("cluster.split");
    if (split_span.enabled()) {
      split_span.SetDetail("members=" + std::to_string(cur.size()) +
                           " k=" + std::to_string(kopts.k));
    }
    ADARTS_ASSIGN_OR_RETURN(Clustering split, KShapeClustering(subset, kopts));
    split_span.Stop();
    if (split.NumClusters() < 2) {
      // The sub-clusterer could not separate the set; accept it as-is to
      // guarantee termination.
      result.clusters.push_back(std::move(cur));
      continue;
    }
    ctx.metrics().Increment("cluster.splits");
    for (const auto& part : split.clusters) {
      std::vector<std::size_t> mapped;
      mapped.reserve(part.size());
      for (std::size_t local : part) mapped.push_back(cur[local]);
      pending.push_back(std::move(mapped));
    }
  }
  ADARTS_RETURN_NOT_OK(ctx.CheckCancelled("IncrementalClustering split phase"));

  // ---- Phase 2: refinement by merge and move (lines 10-18). A merge or
  // move is applied only when the correlation gain is positive AND the
  // receiving cluster stays above the correlation threshold, preserving the
  // invariant established by phase 1.
  auto& clusters = result.clusters;

  const double merge_floor =
      options.merge_correlation_slack * options.correlation_threshold;

  // Merge small clusters into their best partner. Candidate partners are
  // scored concurrently (the merged-correlation check is the refinement
  // phase's hot loop); the cluster lists only mutate between BestPartner
  // calls, on this thread.
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    if (clusters[i].empty() || clusters[i].size() > options.small_cluster_size) {
      continue;
    }
    const std::size_t best_j =
        BestPartner(clusters[i], i, clusters, corr, n, merge_floor, ctx);
    if (best_j < clusters.size()) {
      clusters[best_j].insert(clusters[best_j].end(), clusters[i].begin(),
                              clusters[i].end());
      clusters[i].clear();
      ctx.metrics().Increment("cluster.merges");
      continue;
    }
    // No whole-cluster merge: try moving individual series (lines 15-18).
    // A series never moves back into a cluster it left (guaranteed here by
    // the single pass over members).
    std::vector<std::size_t> remaining;
    for (std::size_t x : clusters[i]) {
      const std::vector<std::size_t> singleton = {x};
      const std::size_t target =
          BestPartner(singleton, i, clusters, corr, n, merge_floor, ctx);
      if (target < clusters.size()) {
        clusters[target].push_back(x);
        ctx.metrics().Increment("cluster.moves");
      } else {
        remaining.push_back(x);
      }
    }
    clusters[i] = std::move(remaining);
  }

  std::erase_if(clusters,
                [](const std::vector<std::size_t>& c) { return c.empty(); });
  return result;
}

Result<SeriesAssignment> AssignSeriesToClusters(
    const ts::TimeSeries& series,
    const std::vector<std::vector<ts::TimeSeries>>& representatives,
    const IncrementalOptions& options, ExecContext& ctx) {
  if (representatives.empty()) {
    return Status::InvalidArgument("no clusters to assign against");
  }
  ADARTS_RETURN_NOT_OK(series.ValidateObservedFinite());
  for (const auto& reps : representatives) {
    for (const ts::TimeSeries& rep : reps) {
      if (rep.length() != series.length()) {
        return Status::InvalidArgument(
            "series length " + std::to_string(series.length()) +
            " does not match cluster representative length " +
            std::to_string(rep.length()));
      }
    }
  }
  // Mean |corr| to each cluster's representatives, one slot per cluster on
  // the shared pool; a constant series correlates 0 with everything and
  // therefore always splits.
  std::vector<double> affinity(representatives.size(), 0.0);
  ParallelFor(ctx, representatives.size(), [&](std::size_t j) {
    const auto& reps = representatives[j];
    if (reps.empty()) return;  // never admissible
    TraceSpan span("cluster.candidate");
    double total = 0.0;
    for (const ts::TimeSeries& rep : reps) {
      total += std::fabs(ts::Pearson(series, rep));
    }
    affinity[j] = total / static_cast<double>(reps.size());
  });
  ADARTS_RETURN_NOT_OK(ctx.CheckCancelled("AssignSeriesToClusters"));

  // Same admissibility floor as the refinement phase's merges; the serial
  // index-order argmax keeps the winner bit-identical to a serial scan.
  const double floor =
      options.merge_correlation_slack * options.correlation_threshold;
  SeriesAssignment out;
  out.split = true;
  for (std::size_t j = 0; j < representatives.size(); ++j) {
    if (representatives[j].empty() || affinity[j] < floor) continue;
    if (out.split || affinity[j] > out.correlation) {
      out.split = false;
      out.cluster = j;
      out.correlation = affinity[j];
    }
  }
  return out;
}

}  // namespace adarts::cluster
