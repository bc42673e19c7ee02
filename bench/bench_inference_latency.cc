// Section VII-D claim check (google-benchmark): a trained A-DARTS engine's
// recommendation is "almost instantaneous" — feature extraction plus a
// committee vote per faulty series. BM_RecommendBatch adds the set-wise
// story: one RecommendBatch call amortises dispatch over many series and
// sweeps the inference pool size (batch x threads).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "adarts/adarts.h"
#include "bench/bench_util.h"
#include "common/exec_context.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "data/generators.h"
#include "tools/tool_args.h"
#include "ts/missing.h"

namespace adarts {
namespace {

/// --threads N: pool size used while training the shared engine (0 =
/// hardware concurrency). Inference itself is single-threaded by design —
/// the claim under test is per-series recommendation latency.
std::size_t g_train_threads = 0;

/// Wall-clock of the shared engine's one-time training, for the `--json`
/// record (the per-stage breakdown comes from the engine's TrainReport).
double g_train_seconds = 0.0;

/// A process-lifetime engine trained once and shared by all benchmarks
/// (training itself is benchmarked separately in the figure benches).
const Adarts& SharedEngine() {
  static const Adarts& engine = []() -> const Adarts& {
    data::GeneratorOptions gopts;
    gopts.num_series = 12;
    gopts.length = 160;
    std::vector<ts::TimeSeries> corpus;
    for (data::Category c : {data::Category::kClimate, data::Category::kPower,
                             data::Category::kMotion}) {
      for (auto& s : data::GenerateCategory(c, gopts)) {
        corpus.push_back(std::move(s));
      }
    }
    TrainOptions opts;
    opts.labeling.algorithms = {
        impute::Algorithm::kCdRec, impute::Algorithm::kSvdImpute,
        impute::Algorithm::kTkcm, impute::Algorithm::kLinearInterp};
    opts.race.num_seed_pipelines = 12;
    opts.race.num_partial_sets = 2;
    opts.race.num_folds = 2;
    ExecContext ctx(g_train_threads);
    Stopwatch watch;
    auto engine_result = Adarts::Train(corpus, opts, ctx);
    g_train_seconds = watch.ElapsedSeconds();
    ADARTS_CHECK(engine_result.ok());
    return *new Adarts(std::move(*engine_result));
  }();
  return engine;
}

ts::TimeSeries FaultySeries(std::size_t length) {
  data::GeneratorOptions gopts;
  gopts.num_series = 1;
  gopts.length = length;
  gopts.seed = 55;
  ts::TimeSeries s = data::GenerateCategory(data::Category::kClimate, gopts)[0];
  Rng rng(5);
  (void)ts::InjectSingleBlock(length / 10, &rng, &s);
  return s;
}

std::vector<ts::TimeSeries> FaultyBatch(std::size_t count, std::size_t length) {
  data::GeneratorOptions gopts;
  gopts.num_series = count;
  gopts.length = length;
  gopts.seed = 56;
  auto batch = data::GenerateCategory(data::Category::kClimate, gopts);
  Rng rng(6);
  for (auto& s : batch) {
    (void)ts::InjectSingleBlock(length / 10, &rng, &s);
  }
  return batch;
}

void BM_Recommend(benchmark::State& state) {
  const Adarts& engine = SharedEngine();
  const ts::TimeSeries faulty =
      FaultySeries(static_cast<std::size_t>(state.range(0)));
  ExecContext ctx;
  for (auto _ : state) {
    auto algo = engine.Recommend(faulty, ctx);
    benchmark::DoNotOptimize(algo);
  }
}
BENCHMARK(BM_Recommend)->Arg(160)->Arg(320)->Arg(640);

void BM_FeatureExtractionShare(benchmark::State& state) {
  const Adarts& engine = SharedEngine();
  const ts::TimeSeries faulty = FaultySeries(160);
  for (auto _ : state) {
    auto f = engine.ExtractFeatures(faulty);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_FeatureExtractionShare);

void BM_RecommendBatch(benchmark::State& state) {
  const Adarts& engine = SharedEngine();
  const std::vector<ts::TimeSeries> batch =
      FaultyBatch(static_cast<std::size_t>(state.range(0)), 160);
  // One context for the whole timing loop: the pool is built once, every
  // iteration reuses it (what a serving process would do).
  ExecContext ctx(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    auto recs = engine.RecommendBatch(batch, {}, ctx);
    benchmark::DoNotOptimize(recs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RecommendBatch)
    ->ArgNames({"batch", "threads"})
    ->Args({8, 1})
    ->Args({8, 4})
    ->Args({32, 1})
    ->Args({32, 4})
    ->Args({128, 1})
    ->Args({128, 4});

void BM_EndToEndRepair(benchmark::State& state) {
  const Adarts& engine = SharedEngine();
  const ts::TimeSeries faulty = FaultySeries(160);
  for (auto _ : state) {
    ExecContext ctx;
    auto repaired = engine.Repair(faulty, ctx);
    benchmark::DoNotOptimize(repaired);
  }
}
BENCHMARK(BM_EndToEndRepair);

}  // namespace
}  // namespace adarts

int main(int argc, char** argv) {
  // Strip our --threads/--json/--trace flags before google-benchmark sees
  // them.
  const std::string json_path = adarts::bench::JsonPathFromArgs(argc, argv);
  const adarts::TraceOptions trace_options =
      adarts::TraceOptions::FromFlagOrEnv(
          adarts::bench::TracePathFromArgs(argc, argv));
  const adarts::Result<std::size_t> threads =
      adarts::bench::ThreadsFromArgs(argc, argv);
  if (!threads.ok()) return adarts::tools::BadFlag(threads.status());
  adarts::g_train_threads = *threads;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      ++i;  // value consumed by ThreadsFromArgs above
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      // consumed by ThreadsFromArgs above
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      ++i;  // value consumed by JsonPathFromArgs above
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      // consumed by JsonPathFromArgs above
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      ++i;  // value consumed by TracePathFromArgs above
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      // consumed by TracePathFromArgs above
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  // Spans from the shared-engine training and every timed repair/recommend
  // land in one timeline, exported when `trace_session` dies at return.
  adarts::ScopedTrace trace_session(trace_options);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) {
    // Where the shared engine's one-time training cost went, from its
    // TrainReport — the committee size doubles as the result checksum.
    const adarts::Adarts& engine = adarts::SharedEngine();
    const adarts::bench::BenchJsonWriter json(json_path);
    json.Record("inference_latency.shared_engine_train",
                {{"threads", std::to_string(adarts::g_train_threads)}},
                adarts::g_train_seconds,
                static_cast<double>(engine.committee_size()),
                &engine.train_report().stages);
  }
  return 0;
}
