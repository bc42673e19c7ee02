#ifndef ADARTS_TESTS_TEST_UTIL_H_
#define ADARTS_TESTS_TEST_UTIL_H_

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "adarts/adarts.h"
#include "common/rng.h"
#include "data/generators.h"
#include "la/vector_ops.h"
#include "ml/dataset.h"
#include "ts/time_series.h"

namespace adarts::testing {

/// Thread count used by the parallel determinism suites as the "many
/// threads" side of 1-vs-N comparisons. Overridable via the
/// ADARTS_TEST_THREADS environment variable (the TSan CI job sets 8 to
/// stress scheduling); defaults to `fallback`.
inline std::size_t TestThreadCount(std::size_t fallback = 4) {
  const char* env = std::getenv("ADARTS_TEST_THREADS");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(env, &end, 10);
  if (end == env || parsed == 0) return fallback;
  return static_cast<std::size_t>(parsed);
}

/// FNV-1a digest over the raw bytes of `v`: equal digests mean bit-identical
/// doubles, which is what the golden tests pin.
inline std::uint64_t BytesFnv(const std::vector<double>& v) {
  return Fnv1a64(std::string_view(reinterpret_cast<const char*>(v.data()),
                                  v.size() * sizeof(double)));
}

/// A well-separated Gaussian-blob classification dataset: class c is
/// centred at (4c, 4c, ..., 4c) with unit noise. Any sane classifier
/// reaches high accuracy here.
inline ml::Dataset MakeBlobs(int num_classes, std::size_t per_class,
                             std::size_t dim, std::uint64_t seed = 3) {
  Rng rng(seed);
  ml::Dataset data;
  data.num_classes = num_classes;
  for (int c = 0; c < num_classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      la::Vector f(dim);
      for (std::size_t j = 0; j < dim; ++j) {
        f[j] = 4.0 * static_cast<double>(c) + rng.Normal(0.0, 1.0);
      }
      data.features.push_back(std::move(f));
      data.labels.push_back(c);
    }
  }
  return data;
}

/// A sine series with optional noise.
inline ts::TimeSeries MakeSine(std::size_t length, double period,
                               double noise = 0.0, std::uint64_t seed = 5,
                               double amplitude = 1.0, double phase = 0.0) {
  Rng rng(seed);
  la::Vector v(length);
  for (std::size_t t = 0; t < length; ++t) {
    v[t] = amplitude *
               std::sin(2.0 * 3.14159265358979323846 *
                        (static_cast<double>(t) / period) + phase) +
           (noise > 0.0 ? rng.Normal(0.0, noise) : 0.0);
  }
  return ts::TimeSeries(std::move(v));
}

/// A set of correlated sine series (shared signal + per-series noise),
/// the friendly case for matrix-completion imputers.
inline std::vector<ts::TimeSeries> MakeCorrelatedSet(std::size_t count,
                                                     std::size_t length,
                                                     double noise = 0.05,
                                                     std::uint64_t seed = 7) {
  std::vector<ts::TimeSeries> out;
  for (std::size_t s = 0; s < count; ++s) {
    out.push_back(MakeSine(length, 24.0, noise, seed + s, 1.0 + 0.1 * s));
  }
  return out;
}

/// The quick training setup of the engine-level suites: a five-imputer
/// pool and a short race that still exercise every stage.
inline TrainOptions FastOptions() {
  TrainOptions opts;
  opts.labeling.algorithms = {
      impute::Algorithm::kCdRec, impute::Algorithm::kSvdImpute,
      impute::Algorithm::kTkcm, impute::Algorithm::kLinearInterp,
      impute::Algorithm::kMeanImpute};
  opts.race.num_seed_pipelines = 12;
  opts.race.num_partial_sets = 2;
  opts.race.num_folds = 2;
  opts.features.landmarks = 16;
  return opts;
}

/// Twelve generated series of length 160 from each of `categories`.
inline std::vector<ts::TimeSeries> SmallCorpus(
    const std::vector<data::Category>& categories) {
  data::GeneratorOptions gopts;
  gopts.num_series = 12;
  gopts.length = 160;
  std::vector<ts::TimeSeries> corpus;
  for (data::Category c : categories) {
    for (auto& s : data::GenerateCategory(c, gopts)) {
      corpus.push_back(std::move(s));
    }
  }
  return corpus;
}

/// A faulty series of length 160 (`data::MakeFaultySeries`, 10% missing):
/// the request series of the suites and tools that drive a live server.
inline ts::TimeSeries MakeFaulty(std::uint64_t seed = 9) {
  Rng rng(seed);
  return data::MakeFaultySeries(160, 0.1, &rng);
}

}  // namespace adarts::testing

#endif  // ADARTS_TESTS_TEST_UTIL_H_
