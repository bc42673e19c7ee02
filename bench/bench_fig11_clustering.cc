// Fig. 11 reproduction: the incremental correlation-gain clustering vs three
// k-shape variants (default k=8, grid search, iterative splitting).
// Part (a): average intra-cluster correlation and runtime. Part (b): number
// of final clusters vs the grid-search "ground truth". Expected shape:
// incremental reaches high correlation at moderate runtime and lands close
// to the ground-truth cluster count; k-shape default is fast but poorly
// correlated; grid search is accurate but slow; iterative over-fragments.
// Part (c): thread scaling + parity of the parallel correlation matrix and
// incremental clustering (--threads N sizes parts (a)/(b), default 0 =
// hardware concurrency; part (c) sweeps 1/2/4 regardless). The binary exits 1
// when any part (c) row reports MISMATCH.

#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "cluster/incremental.h"
#include "cluster/kshape.h"
#include "common/exec_context.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "tools/tool_args.h"

namespace adarts::bench {
namespace {

int Run(std::size_t num_threads, const std::string& json_path) {
  const BenchJsonWriter json(json_path);
  std::printf("=== Fig. 11: Clustering Performance ===\n");
  std::printf("(clustering threads: %zu)\n\n",
              ThreadPool::ResolveThreadCount(num_threads));

  // Mixed corpus across all six categories: several natural groups.
  data::GeneratorOptions gopts;
  gopts.num_series = 12;
  gopts.length = 160;
  const std::vector<ts::TimeSeries> corpus = data::GenerateMixedCorpus(2, gopts);
  std::printf("corpus: %zu series from 6 categories x 2 variants\n\n",
              corpus.size());
  ExecContext serial_ctx(1);
  const la::Matrix corr =
      cluster::PairwiseCorrelationMatrix(corpus, serial_ctx);

  struct Row {
    const char* name;
    double correlation;
    double seconds;
    std::size_t clusters;
  };
  std::vector<Row> rows;

  StageMetrics incremental_stages;
  {
    Stopwatch w;
    cluster::IncrementalOptions opts;
    opts.correlation_threshold = 0.75;
    opts.small_cluster_size = 6;
    opts.merge_correlation_slack = 0.8;
    ExecContext ctx(num_threads);
    auto c = cluster::IncrementalClustering(corpus, opts, ctx);
    incremental_stages = ctx.metrics().Snapshot();
    if (c.ok()) {
      rows.push_back({"incremental (A-DARTS)",
                      cluster::AverageIntraClusterCorrelation(*c, corr),
                      w.ElapsedSeconds(), c->NumClusters()});
    }
  }
  {
    Stopwatch w;
    cluster::KShapeOptions opts;  // default k = 8
    auto c = cluster::KShapeClustering(corpus, opts);
    if (c.ok()) {
      rows.push_back({"k-shape (default k=8)",
                      cluster::AverageIntraClusterCorrelation(*c, corr),
                      w.ElapsedSeconds(), c->NumClusters()});
    }
  }
  std::size_t ground_truth_clusters = 0;
  {
    Stopwatch w;
    auto c = cluster::KShapeGridSearch(corpus, 20, corr);
    if (c.ok()) {
      ground_truth_clusters = c->NumClusters();
      rows.push_back({"k-shape (grid search)",
                      cluster::AverageIntraClusterCorrelation(*c, corr),
                      w.ElapsedSeconds(), c->NumClusters()});
    }
  }
  {
    Stopwatch w;
    auto c = cluster::KShapeIterativeSplit(corpus, 0.8, corr);
    if (c.ok()) {
      rows.push_back({"k-shape (iterative)",
                      cluster::AverageIntraClusterCorrelation(*c, corr),
                      w.ElapsedSeconds(), c->NumClusters()});
    }
  }

  std::printf("--- (a) cluster quality and runtime ---\n");
  std::printf("%-24s %14s %12s\n", "Method", "avg corr", "runtime (s)");
  PrintRule(54);
  for (const Row& r : rows) {
    std::printf("%-24s %14s %12s\n", r.name, Fmt(r.correlation, 3).c_str(),
                Fmt(r.seconds, 3).c_str());
    // The incremental row carries its ExecContext stage breakdown
    // (cluster.correlation_seconds, cluster.splits/merges/moves).
    const bool is_incremental = std::strncmp(r.name, "incremental", 11) == 0;
    json.Record("fig11.clustering",
                {{"method", r.name},
                 {"clusters", std::to_string(r.clusters)}},
                r.seconds, r.correlation,
                is_incremental ? &incremental_stages : nullptr);
  }

  std::printf("\n--- (b) number of final clusters (ground truth via grid "
              "search: %zu) ---\n",
              ground_truth_clusters);
  std::printf("%-24s %10s %18s\n", "Method", "#clusters", "|delta vs truth|");
  PrintRule(56);
  for (const Row& r : rows) {
    const auto delta = r.clusters > ground_truth_clusters
                           ? r.clusters - ground_truth_clusters
                           : ground_truth_clusters - r.clusters;
    std::printf("%-24s %10zu %18zu\n", r.name, r.clusters, delta);
  }
  std::printf("\n(paper shape: incremental ~0.87 corr at reasonable runtime "
              "and closest-to-truth cluster count; iterative high corr but "
              "cluster explosion; default k-shape fast but ~0.61 corr)\n");

  std::printf("\n--- (c) thread scaling of the clustering path ---\n");
  std::printf("%-10s %14s %14s %10s %8s\n", "threads", "corr-mat (s)",
              "cluster (s)", "speedup", "parity");
  PrintRule(62);
  // Serial reference for the bit-identity check and the speedup baseline.
  const la::Matrix ref_corr =
      cluster::PairwiseCorrelationMatrix(corpus, serial_ctx);
  cluster::IncrementalOptions copts;
  copts.correlation_threshold = 0.75;
  copts.small_cluster_size = 6;
  copts.merge_correlation_slack = 0.8;
  ExecContext ref_ctx(1);
  const auto ref_clusters =
      cluster::IncrementalClustering(corpus, copts, ref_ctx);
  double serial_total = 0.0;
  bool parity = true;
  for (std::size_t threads : {1, 2, 4}) {
    // One context per row: the correlation matrix and the clustering share
    // its pool (constructed lazily, once).
    ExecContext ctx(threads);
    Stopwatch corr_watch;
    const la::Matrix corr_t = cluster::PairwiseCorrelationMatrix(corpus, ctx);
    const double corr_seconds = corr_watch.ElapsedSeconds();
    Stopwatch cluster_watch;
    const auto clusters_t = cluster::IncrementalClustering(corpus, copts, ctx);
    const double cluster_seconds = cluster_watch.ElapsedSeconds();
    bool identical = clusters_t.ok() && ref_clusters.ok() &&
                     clusters_t->clusters == ref_clusters->clusters;
    for (std::size_t i = 0; identical && i < corpus.size(); ++i) {
      for (std::size_t j = 0; j < corpus.size(); ++j) {
        if (corr_t(i, j) != ref_corr(i, j)) {
          identical = false;
          break;
        }
      }
    }
    parity = parity && identical;
    const double total = corr_seconds + cluster_seconds;
    if (threads == 1) serial_total = total;
    std::printf("%-10zu %14s %14s %9sx %8s\n", threads,
                Fmt(corr_seconds, 4).c_str(), Fmt(cluster_seconds, 4).c_str(),
                serial_total > 0.0 ? Fmt(serial_total / total, 2).c_str() : "-",
                identical ? "ok" : "MISMATCH");
    const StageMetrics thread_stages = ctx.metrics().Snapshot();
    json.Record("fig11.thread_scaling",
                {{"threads", std::to_string(threads)},
                 {"parity", identical ? "ok" : "mismatch"}},
                total,
                clusters_t.ok()
                    ? static_cast<double>(clusters_t->NumClusters())
                    : -1.0,
                &thread_stages);
  }
  std::printf("(pairs fan out over the upper-triangle index space; matrices "
              "and cluster assignments are bit-identical at every thread "
              "count)\n");
  if (!parity) {
    std::fprintf(stderr, "FAIL: part (c) clusterings or correlation "
                         "matrices differ across thread counts\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace adarts::bench

int main(int argc, char** argv) {
  const adarts::Result<std::size_t> num_threads =
      adarts::bench::ThreadsFromArgs(argc, argv);
  if (!num_threads.ok()) return adarts::tools::BadFlag(num_threads.status());
  adarts::ScopedTrace trace_session(adarts::TraceOptions::FromFlagOrEnv(
      adarts::bench::TracePathFromArgs(argc, argv)));
  return adarts::bench::Run(*num_threads,
                            adarts::bench::JsonPathFromArgs(argc, argv));
}
