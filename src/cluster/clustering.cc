#include "cluster/clustering.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/exec_context.h"
#include "ts/correlation.h"

namespace adarts::cluster {

std::pair<std::size_t, std::size_t> PairFromIndex(std::size_t k, std::size_t n) {
  ADARTS_CHECK(n >= 2 && k < n * (n - 1) / 2);
  // Pairs with row < r occupy the first Before(r) = r*(2n - r - 1)/2 linear
  // indices. Seed the row from the real-valued root of Before(r) = k, then
  // correct with integer arithmetic — the float estimate can be off by one
  // for large n, never more.
  const auto before = [n](std::size_t r) { return r * (2 * n - r - 1) / 2; };
  const double nd = static_cast<double>(n);
  const double disc = (nd - 0.5) * (nd - 0.5) - 2.0 * static_cast<double>(k);
  std::size_t row = static_cast<std::size_t>(
      std::max(0.0, std::floor(nd - 0.5 - std::sqrt(std::max(0.0, disc)))));
  row = std::min(row, n - 2);
  while (row > 0 && before(row) > k) --row;
  while (row + 2 < n && before(row + 1) <= k) ++row;
  const std::size_t col = row + 1 + (k - before(row));
  return {row, col};
}

la::Matrix PairwiseCorrelationMatrix(const std::vector<ts::TimeSeries>& series,
                                     ExecContext& ctx) {
  StageTimer timer(&ctx.metrics(), "cluster.correlation_seconds");
  const std::size_t n = series.size();
  la::Matrix corr(n, n);
  for (std::size_t i = 0; i < n; ++i) corr(i, i) = 1.0;
  const std::size_t num_pairs = n < 2 ? 0 : n * (n - 1) / 2;
  // Skipped pairs on cancellation leave zero slots; callers re-check the
  // token before using the matrix (ParallelFor's barrier contract).
  ParallelFor(ctx, num_pairs, [&](std::size_t k) {
    const auto [i, j] = PairFromIndex(k, n);
    const double c = ts::Pearson(series[i], series[j]);
    corr(i, j) = c;
    corr(j, i) = c;
  });
  return corr;
}

double ClusterAvgCorrelation(const std::vector<std::size_t>& cluster,
                             const la::Matrix& corr) {
  if (cluster.size() < 2) return 1.0;
  double sum = 0.0;
  std::size_t pairs = 0;
  for (std::size_t a = 0; a < cluster.size(); ++a) {
    for (std::size_t b = a + 1; b < cluster.size(); ++b) {
      sum += std::fabs(corr(cluster[a], cluster[b]));
      ++pairs;
    }
  }
  return sum / static_cast<double>(pairs);
}

double AverageIntraClusterCorrelation(const Clustering& clustering,
                                      const la::Matrix& corr) {
  double sum = 0.0;
  std::size_t total = 0;
  for (const auto& c : clustering.clusters) {
    sum += ClusterAvgCorrelation(c, corr) * static_cast<double>(c.size());
    total += c.size();
  }
  return total > 0 ? sum / static_cast<double>(total) : 0.0;
}

double CorrelationGain(const std::vector<std::size_t>& a,
                       const std::vector<std::size_t>& b,
                       const la::Matrix& corr, std::size_t total_series) {
  if (total_series == 0) return 0.0;
  std::vector<std::size_t> merged = a;
  merged.insert(merged.end(), b.begin(), b.end());
  const double rho_merged = ClusterAvgCorrelation(merged, corr);
  const double rho_a = ClusterAvgCorrelation(a, corr);
  const double rho_b = ClusterAvgCorrelation(b, corr);
  const double m = static_cast<double>(total_series);
  return (1.0 / (2.0 * m)) * (rho_merged - rho_a * rho_b / m);
}

}  // namespace adarts::cluster
