#include "cluster/kshape.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>

#include "common/rng.h"
#include "ts/correlation.h"
#include "ts/fft.h"

namespace adarts::cluster {

namespace {

la::Vector ZNormVec(const ts::TimeSeries& s) {
  return s.ZNormalized().values();
}

/// Shifts `v` right by `shift` samples with zero padding (negative = left).
la::Vector ShiftVector(const la::Vector& v, int shift) {
  la::Vector out(v.size(), 0.0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const std::ptrdiff_t j = static_cast<std::ptrdiff_t>(i) - shift;
    if (j >= 0 && j < static_cast<std::ptrdiff_t>(v.size())) {
      out[i] = v[static_cast<std::size_t>(j)];
    }
  }
  return out;
}

/// Shape extraction: the k-shape centroid is the dominant eigenvector of
/// Q^T A^T A Q over the aligned members A (Q centres the vector). Computed
/// by power iteration using only matrix-vector products with A.
la::Vector ExtractShape(const std::vector<la::Vector>& aligned,
                        const la::Vector& previous_centroid) {
  if (aligned.empty()) return previous_centroid;
  const std::size_t len = aligned[0].size();

  const auto center = [](la::Vector v) {
    const double m = la::Mean(v);
    for (double& x : v) x -= m;
    return v;
  };

  // v <- Q A^T A Q v, normalised.
  la::Vector v = previous_centroid;
  if (la::Norm2(v) < 1e-9) v.assign(len, 1.0);
  for (int iter = 0; iter < 30; ++iter) {
    la::Vector qv = center(v);
    la::Vector acc(len, 0.0);
    for (const la::Vector& row : aligned) {
      const double dot = la::Dot(row, qv);
      la::Axpy(dot, row, &acc);
    }
    acc = center(acc);
    const double norm = la::Norm2(acc);
    if (norm < 1e-12) break;
    for (double& x : acc) x /= norm;
    // Early exit when converged.
    la::Vector diff = la::Subtract(acc, v);
    v = std::move(acc);
    if (la::Norm2(diff) < 1e-8) break;
  }
  // Resolve the sign ambiguity: the centroid should correlate positively
  // with the members.
  double agreement = 0.0;
  for (const la::Vector& row : aligned) agreement += la::Dot(row, v);
  if (agreement < 0.0) {
    for (double& x : v) x = -x;
  }
  return v;
}

}  // namespace

Result<Clustering> KShapeClustering(const std::vector<ts::TimeSeries>& series,
                                    const KShapeOptions& options) {
  if (series.empty()) return Status::InvalidArgument("no series to cluster");
  const std::size_t n = series.size();
  const std::size_t k = std::min(options.k, n);
  if (k == 0) return Status::InvalidArgument("k must be positive");

  std::vector<la::Vector> z;
  z.reserve(n);
  for (const auto& s : series) z.push_back(ZNormVec(s));
  const std::size_t len = z[0].size();
  for (const auto& v : z) {
    if (v.size() != len) {
      return Status::InvalidArgument("k-shape requires equal-length series");
    }
  }
  if (len == 0) {
    return Status::InvalidArgument("k-shape requires non-empty series");
  }

  // Every alignment is centroid against member, both of length `len`, so
  // all spectra share one size. A centroid's spectrum is computed when the
  // centroid is picked or re-extracted; a member's once per pass over the
  // members, and the assignment pass aligns it against all k centroids.
  const std::size_t fft_size = ts::NextPowerOfTwo(2 * len);
  const auto spectrum = [fft_size](const la::Vector& v) {
    return ts::ComputeNccSpectrum(v, fft_size);
  };

  Rng rng(options.seed);
  // Farthest-first initial centroids over the SBD metric: the first is a
  // random member, each next the series farthest from the chosen set. This
  // reliably separates distinct shape families from iteration one.
  std::vector<la::Vector> centroids;
  std::vector<ts::NccSpectrum> centroid_spectra;
  centroids.reserve(k);
  centroid_spectra.reserve(k);
  {
    std::vector<double> min_dist(n, 1e300);
    std::size_t next = static_cast<std::size_t>(rng.UniformInt(n));
    for (std::size_t c = 0; c < k; ++c) {
      centroids.push_back(z[next]);
      centroid_spectra.push_back(spectrum(z[next]));
      double best = -1.0;
      std::size_t best_idx = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double d =
            1.0 -
            ts::BestAlignment(centroid_spectra[c], spectrum(z[i])).ncc;
        min_dist[i] = std::min(min_dist[i], d);
        if (min_dist[i] > best) {
          best = min_dist[i];
          best_idx = i;
        }
      }
      next = best_idx;
    }
  }
  std::vector<std::size_t> assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const ts::NccSpectrum member = spectrum(z[i]);
    double best = 1e300;
    for (std::size_t c = 0; c < k; ++c) {
      const double d = 1.0 - ts::BestAlignment(centroid_spectra[c], member).ncc;
      if (d < best) {
        best = d;
        assign[i] = c;
      }
    }
  }

  for (int iter = 0; iter < options.max_iters; ++iter) {
    // --- Refinement: re-extract every centroid from aligned members.
    for (std::size_t c = 0; c < k; ++c) {
      std::vector<la::Vector> aligned;
      for (std::size_t i = 0; i < n; ++i) {
        if (assign[i] != c) continue;
        if (la::Norm2(centroids[c]) < 1e-9) {
          aligned.push_back(z[i]);
        } else {
          const ts::SbdAlignment al =
              ts::BestAlignment(centroid_spectra[c], spectrum(z[i]));
          aligned.push_back(ShiftVector(z[i], al.shift));
        }
      }
      centroids[c] = ExtractShape(aligned, centroids[c]);
      centroid_spectra[c] = spectrum(centroids[c]);
    }

    // --- Assignment: nearest centroid under SBD.
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      const ts::NccSpectrum member = spectrum(z[i]);
      double best = 1e300;
      std::size_t best_c = assign[i];
      for (std::size_t c = 0; c < k; ++c) {
        if (la::Norm2(centroids[c]) < 1e-9) continue;
        const double d =
            1.0 - ts::BestAlignment(centroid_spectra[c], member).ncc;
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      if (best_c != assign[i]) {
        assign[i] = best_c;
        changed = true;
      }
    }

    // Reseed empty clusters with a random member of the largest cluster.
    std::vector<std::size_t> sizes(k, 0);
    for (std::size_t a : assign) ++sizes[a];
    for (std::size_t c = 0; c < k; ++c) {
      if (sizes[c] > 0) continue;
      const std::size_t big = static_cast<std::size_t>(
          std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
      for (std::size_t i = 0; i < n; ++i) {
        if (assign[i] == big) {
          assign[i] = c;
          --sizes[big];
          ++sizes[c];
          changed = true;
          break;
        }
      }
    }
    if (!changed && iter > 0) break;
  }

  Clustering out;
  out.clusters.assign(k, {});
  for (std::size_t i = 0; i < n; ++i) out.clusters[assign[i]].push_back(i);
  std::erase_if(out.clusters,
                [](const std::vector<std::size_t>& c) { return c.empty(); });
  return out;
}

Result<Clustering> KShapeGridSearch(const std::vector<ts::TimeSeries>& series,
                                    std::size_t max_k, const la::Matrix& corr,
                                    std::uint64_t seed) {
  if (series.size() < 2) return Status::InvalidArgument("too few series");
  max_k = std::min(max_k, series.size());
  Clustering best;
  double best_score = -1.0;
  for (std::size_t k = 2; k <= max_k; ++k) {
    KShapeOptions opts;
    opts.k = k;
    opts.seed = seed + k;
    ADARTS_ASSIGN_OR_RETURN(Clustering c, KShapeClustering(series, opts));
    // Quality trades correlation against fragmentation: prefer the smallest
    // k whose correlation is within 1% of the best seen.
    const double score = AverageIntraClusterCorrelation(c, corr) -
                         0.002 * static_cast<double>(c.NumClusters());
    if (score > best_score) {
      best_score = score;
      best = std::move(c);
    }
  }
  return best;
}

Result<Clustering> KShapeIterativeSplit(
    const std::vector<ts::TimeSeries>& series, double threshold,
    const la::Matrix& corr, std::uint64_t seed) {
  if (series.empty()) return Status::InvalidArgument("no series to cluster");
  std::deque<std::vector<std::size_t>> pending;
  std::vector<std::size_t> all(series.size());
  std::iota(all.begin(), all.end(), 0);
  pending.push_back(std::move(all));

  Clustering out;
  std::uint64_t split_seed = seed;
  while (!pending.empty()) {
    std::vector<std::size_t> cur = std::move(pending.front());
    pending.pop_front();
    if (cur.size() <= 1 || ClusterAvgCorrelation(cur, corr) >= threshold) {
      out.clusters.push_back(std::move(cur));
      continue;
    }
    // Split in two with 2-shape on the subset.
    std::vector<ts::TimeSeries> subset;
    subset.reserve(cur.size());
    for (std::size_t i : cur) subset.push_back(series[i]);
    KShapeOptions opts;
    opts.k = 2;
    opts.seed = ++split_seed;
    ADARTS_ASSIGN_OR_RETURN(Clustering split, KShapeClustering(subset, opts));
    if (split.NumClusters() < 2) {
      out.clusters.push_back(std::move(cur));  // unsplittable
      continue;
    }
    for (const auto& part : split.clusters) {
      std::vector<std::size_t> mapped;
      mapped.reserve(part.size());
      for (std::size_t local : part) mapped.push_back(cur[local]);
      pending.push_back(std::move(mapped));
    }
  }
  return out;
}

}  // namespace adarts::cluster
