// Micro-benchmarks (google-benchmark) of the numeric kernels underlying the
// imputation algorithms and the feature extractor. `--json <path>` mirrors
// every per-iteration run into the repo-wide BenchJsonWriter JSONL format so
// tools/bench_compare can gate kernel regressions against
// bench/baselines/BENCH_kernels.json like any other bench.

#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/kshape.h"
#include "common/rng.h"
#include "data/generators.h"
#include "features/feature_extractor.h"
#include "impute/cdrec.h"
#include "impute/imputer.h"
#include "la/decompositions.h"
#include "la/matrix.h"
#include "tda/delay_embedding.h"
#include "tda/persistence.h"
#include "ts/correlation.h"
#include "ts/fft.h"
#include "ts/missing.h"

namespace adarts {
namespace {

la::Matrix RandomMatrix(std::size_t rows, std::size_t cols) {
  Rng rng(1);
  la::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.Normal(0, 1);
  }
  return m;
}

la::Vector SineSignal(std::size_t n) {
  la::Vector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(2.0 * 3.14159265 * static_cast<double>(i) / 24.0);
  }
  return v;
}

void BM_JacobiSvd(benchmark::State& state) {
  const la::Matrix m =
      RandomMatrix(static_cast<std::size_t>(state.range(0)),
                   static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    auto svd = la::ComputeSvd(m);
    benchmark::DoNotOptimize(svd);
  }
}
BENCHMARK(BM_JacobiSvd)->Args({128, 16})->Args({256, 32})->Args({64, 64});

void BM_CentroidDecomposition(benchmark::State& state) {
  const la::Matrix m =
      RandomMatrix(static_cast<std::size_t>(state.range(0)), 16);
  for (auto _ : state) {
    auto cd = impute::ComputeCentroidDecomposition(m, 3);
    benchmark::DoNotOptimize(cd);
  }
}
BENCHMARK(BM_CentroidDecomposition)->Arg(128)->Arg(512);

void BM_Fft(benchmark::State& state) {
  const la::Vector signal = SineSignal(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto spec = ts::PowerSpectrum(signal);
    benchmark::DoNotOptimize(spec);
  }
}
BENCHMARK(BM_Fft)->Arg(256)->Arg(1024)->Arg(4096);

void BM_NccAllLags(benchmark::State& state) {
  const la::Vector a = SineSignal(static_cast<std::size_t>(state.range(0)));
  const la::Vector b = SineSignal(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto ncc = ts::NccAllLags(a, b);
    benchmark::DoNotOptimize(ncc);
  }
}
BENCHMARK(BM_NccAllLags)->Arg(128)->Arg(512);

// One k-shape alignment: both spectra are computed before the loop, so an
// iteration is one spectrum product and one inverse FFT.
void BM_BestAlignment(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  la::Vector noisy = SineSignal(n);
  for (double& x : noisy) x += rng.Normal(0, 0.3);
  const std::size_t fft_size = ts::NextPowerOfTwo(2 * n);
  const ts::NccSpectrum a = ts::ComputeNccSpectrum(SineSignal(n), fft_size);
  const ts::NccSpectrum b = ts::ComputeNccSpectrum(noisy, fft_size);
  for (auto _ : state) {
    auto alignment = ts::BestAlignment(a, b);
    benchmark::DoNotOptimize(alignment);
  }
}
BENCHMARK(BM_BestAlignment)->Arg(256);

// The top-level k-shape split IncrementalClustering makes on bench/e2e's
// first train_offline corpus: Climate, Power and Motion x 32 series x length
// 256 (generator seed 1), k = 96 * 0.2 = 19, 10 iterations, seed 2.
void BM_KShapeClustering(benchmark::State& state) {
  std::vector<ts::TimeSeries> corpus;
  for (const data::Category c :
       {data::Category::kClimate, data::Category::kPower,
        data::Category::kMotion}) {
    data::GeneratorOptions g;
    g.num_series = 32;
    g.length = 256;
    g.seed = 1;
    std::vector<ts::TimeSeries> part = data::GenerateCategory(c, g);
    corpus.insert(corpus.end(), part.begin(), part.end());
  }
  cluster::KShapeOptions options;
  options.k = 19;
  options.max_iters = 10;
  options.seed = 2;
  for (auto _ : state) {
    auto clustering = cluster::KShapeClustering(corpus, options);
    benchmark::DoNotOptimize(clustering);
  }
}
BENCHMARK(BM_KShapeClustering)->Unit(benchmark::kMillisecond);

void BM_RipsPersistence(benchmark::State& state) {
  const la::Vector signal = SineSignal(256);
  auto cloud = tda::DelayEmbed(signal, 3, 4);
  const tda::PointCloud landmarks = tda::MaxMinLandmarks(
      *cloud, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto diagram = tda::ComputeRipsPersistence(landmarks);
    benchmark::DoNotOptimize(diagram);
  }
}
BENCHMARK(BM_RipsPersistence)->Arg(16)->Arg(24)->Arg(32);

void BM_FeatureExtraction(benchmark::State& state) {
  const features::FeatureExtractor extractor{
      features::FeatureExtractorOptions{}};
  const ts::TimeSeries series(SineSignal(
      static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    auto f = extractor.Extract(series);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_FeatureExtraction)->Arg(128)->Arg(256)->Arg(512);

void BM_Imputer(benchmark::State& state) {
  const auto algo = static_cast<impute::Algorithm>(state.range(0));
  const auto imputer = impute::CreateImputer(algo);
  std::vector<ts::TimeSeries> set;
  Rng rng(3);
  for (int s = 0; s < 8; ++s) {
    la::Vector v = SineSignal(192);
    for (double& x : v) x += rng.Normal(0, 0.05);
    ts::TimeSeries series(std::move(v));
    (void)ts::InjectSingleBlock(19, &rng, &series);
    set.push_back(std::move(series));
  }
  for (auto _ : state) {
    auto repaired = imputer->ImputeSet(set);
    benchmark::DoNotOptimize(repaired);
  }
  state.SetLabel(std::string(impute::AlgorithmToString(algo)));
}
BENCHMARK(BM_Imputer)->DenseRange(0, impute::kNumAlgorithms - 1);

}  // namespace
}  // namespace adarts

namespace {

/// Console output as usual, plus one BenchJsonWriter record per completed
/// run. `seconds` is the per-iteration real time; the checksum slot is 0
/// (kernel benches measure time, not result quality).
class JsonBridgeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonBridgeReporter(adarts::bench::BenchJsonWriter writer)
      : writer_(std::move(writer)) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    if (!writer_.enabled()) return;
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double seconds =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations)
              : run.real_accumulated_time;
      writer_.Record("kernels." + run.benchmark_name(), {}, seconds, 0.0);
    }
  }

 private:
  adarts::bench::BenchJsonWriter writer_;
};

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark rejects flags it does not recognise, so --json is
  // peeled out of argv before Initialize sees it.
  const std::string json_path = adarts::bench::JsonPathFromArgs(argc, argv);
  std::vector<char*> filtered;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      ++i;  // skip the path operand too
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) continue;
    filtered.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(filtered.size());
  filtered.push_back(nullptr);
  benchmark::Initialize(&filtered_argc, filtered.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, filtered.data())) {
    return 1;
  }
  JsonBridgeReporter reporter{adarts::bench::BenchJsonWriter(json_path)};
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
