// Incremental-growth bench: append a delta of series to a trained engine
// via `Adarts::AppendSeries` (assignment + warm-started ModelRace) and
// compare against the control arm — a full `Adarts::Train` over the grown
// corpus. Reports the append-vs-retrain wall-clock speedup (the ratio of
// the two arms' medians over several paired runs) and the labeling agreement
// between the two engines' training datasets (row order matches: original
// corpus first, delta last). EXPERIMENTS.md records the
// headline numbers; the CI incremental-smoke job gates the --quick grid
// against bench/baselines/BENCH_incremental.json.
//
//   bench_incremental_update [--series N] [--length N] [--delta N]
//                            [--seed S] [--quick] [--cold] [--synthetic]
//                            [--json BENCH_incremental.json]
//                            [--trace trace.json]
//
// The delta is a *continuation* of the corpus: each block generates
// base+delta series and the tail becomes the appendix, modelling new series
// of the same kind arriving — the regime AppendSeries is designed for.
// --cold disables the warm start (the race explores from scratch over the
// grown dataset) to isolate how much of the speedup the elites contribute.
//
// Two corpus modes:
//  * default: three generator categories (Climate/Water/Power — the
//    high-intra-correlation ones, so the partition is stable under growth).
//    At the default 500-series scale the clustering is robust and the two
//    engines agree on effectively every label.
//  * --synthetic (implied by --quick): three hand-built blocks (two sine
//    families -> trmf, linear ramps -> linear_interp) with near-1
//    intra-block correlation and binary recursive splits, so the partition
//    and the per-cluster winners are decisive even on a tiny corpus. CI
//    gates on this mode's agreement; near-tie noise would make the
//    generator corpus flaky at CI scale.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "data/generators.h"
#include "tools/tool_args.h"

namespace adarts::bench {
namespace {

/// Timed runs per arm; each arm reports its median. The warm race scores
/// pipelines with a wall-clock term, so the work one append does varies from
/// run to run, and a single 10-40 ms append sample swings the speedup by 2x.
/// With the --quick retrain arm near 0.1 s, the median of 9 runs still put
/// the speedup anywhere in 6.2-12.4x on a 4-vCPU VM; 21 runs held it to
/// 10.6-11.9x.
constexpr int kRuns = 21;

struct Config {
  std::size_t series = 500;
  std::size_t length = 192;
  std::size_t delta = 1;
  std::uint64_t seed = 17;
  bool warm_start = true;
  bool synthetic = false;
};

/// One series of the synthetic three-block corpus: two sine families (the
/// matrix-factorization imputers win) and a linear-ramp family
/// (linear_interp reconstructs it exactly through any gap).
ts::TimeSeries MakeBlockSeries(int block, std::size_t idx, std::size_t length,
                               Rng* rng) {
  la::Vector v(length);
  for (std::size_t t = 0; t < length; ++t) {
    const double tt = static_cast<double>(t);
    double x = 0.0;
    if (block == 0) {
      x = std::sin(2.0 * M_PI * tt / 24.0 + 0.05 * static_cast<double>(idx));
    } else if (block == 1) {
      x = std::sin(2.0 * M_PI * tt / 8.0 + 0.05 * static_cast<double>(idx));
    } else {
      x = (1.0 + 0.1 * static_cast<double>(idx)) * tt /
          static_cast<double>(length) * 4.0;
    }
    v[t] = x + rng->Normal(0, 0.03);
  }
  return ts::TimeSeries(std::move(v));
}

double Median(std::vector<double> values) {
  const auto mid =
      values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

/// Builds corpus + delta as one draw: per block, the first `base_per`
/// series form the corpus and the next ones the delta (continuation).
void BuildCorpusAndDelta(const Config& config,
                         std::vector<ts::TimeSeries>* corpus,
                         std::vector<ts::TimeSeries>* delta) {
  const std::size_t base_per = (config.series + 2) / 3;
  const std::size_t extra_per = (config.delta + 2) / 3;
  if (config.synthetic) {
    Rng rng(config.seed);
    for (int b = 0; b < 3; ++b) {
      for (std::size_t i = 0; i < base_per + extra_per; ++i) {
        auto s = MakeBlockSeries(b, i, config.length, &rng);
        if (i < base_per) {
          if (corpus->size() < config.series) corpus->push_back(std::move(s));
        } else if (delta->size() < config.delta) {
          delta->push_back(std::move(s));
        }
      }
    }
    return;
  }
  const data::Category categories[] = {data::Category::kClimate,
                                       data::Category::kWater,
                                       data::Category::kPower};
  for (std::size_t c = 0; c < 3; ++c) {
    data::GeneratorOptions opts;
    opts.num_series = base_per + extra_per;
    opts.length = config.length;
    opts.seed = config.seed + c;
    auto block = data::GenerateCategory(categories[c], opts);
    for (std::size_t i = 0; i < block.size(); ++i) {
      if (i < base_per) {
        if (corpus->size() < config.series) {
          corpus->push_back(std::move(block[i]));
        }
      } else if (delta->size() < config.delta) {
        delta->push_back(std::move(block[i]));
      }
    }
  }
}

/// Training arms share this configuration so the speedup isolates the
/// pipeline difference (assignment + warm race vs clustering + labeling +
/// cold race), not a knob change. The race is small enough that the
/// 500-series control arm finishes in minutes on one core.
TrainOptions BenchTrainOptions(const Config& config) {
  TrainOptions options;
  options.seed = config.seed;
  options.race.num_seed_pipelines = 12;
  options.race.num_partial_sets = 2;
  options.race.num_folds = 2;
  options.race.seed = 11;
  // Extra representatives per cluster make near-tie winners decisive, so
  // the agreement metric measures the pipeline difference, not mask noise.
  options.labeling.representatives_per_cluster = 4;
  // Binary recursive splits: the clustering converges to the corpus's
  // natural blocks instead of slicing it into a size-dependent number of
  // sub-clusters, keeping the partition comparable across the two arms.
  options.clustering.split_fraction = 0.01;
  if (config.synthetic) {
    // A pool with one decisive winner per block family.
    options.labeling.algorithms = {
        impute::Algorithm::kTrmf, impute::Algorithm::kTkcm,
        impute::Algorithm::kLinearInterp, impute::Algorithm::kMeanImpute};
  } else {
    options.labeling.algorithms = BenchPool();
  }
  return options;
}

int Run(const Config& config, const BenchJsonWriter& writer) {
  std::vector<ts::TimeSeries> corpus;
  std::vector<ts::TimeSeries> delta;
  BuildCorpusAndDelta(config, &corpus, &delta);
  std::vector<ts::TimeSeries> grown = corpus;
  grown.insert(grown.end(), delta.begin(), delta.end());

  const TrainOptions train_options = BenchTrainOptions(config);

  UpdateOptions update_options;
  update_options.seed = config.seed + 1;
  update_options.warm_start = config.warm_start;

  // Each run replays the whole comparison: train a base engine (untimed; an
  // engine is move-only), time one append on it, then time the control arm,
  // a full retrain on the grown corpus. Pairing the arms in time keeps load
  // drift out of the ratio. The last run's engines feed the agreement check
  // and the stage counters.
  std::printf("%d runs: base train on %zu series (length %zu, %s), append "
              "%zu series (%s race), full retrain on %zu series...\n",
              kRuns, corpus.size(), config.length,
              config.synthetic ? "synthetic blocks" : "generator categories",
              delta.size(), config.warm_start ? "warm-started" : "cold",
              grown.size());
  Result<Adarts> engine = Status::Internal("no run");
  Result<Adarts> control = Status::Internal("no run");
  std::vector<double> append_runs;
  std::vector<double> retrain_runs;
  for (int run = 0; run < kRuns; ++run) {
    Stopwatch base_watch;
    ExecContext train_ctx;
    engine = Adarts::Train(corpus, train_options, train_ctx);
    if (!engine.ok()) {
      std::fprintf(stderr, "base train failed: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    const double base_seconds = base_watch.ElapsedSeconds();

    Stopwatch append_watch;
    ExecContext append_ctx;
    if (auto st = engine->AppendSeries(delta, update_options, append_ctx);
        !st.ok()) {
      std::fprintf(stderr, "append failed: %s\n", st.ToString().c_str());
      return 1;
    }
    append_runs.push_back(append_watch.ElapsedSeconds());

    Stopwatch retrain_watch;
    ExecContext control_ctx;
    control = Adarts::Train(grown, train_options, control_ctx);
    if (!control.ok()) {
      std::fprintf(stderr, "control retrain failed: %s\n",
                   control.status().ToString().c_str());
      return 1;
    }
    retrain_runs.push_back(retrain_watch.ElapsedSeconds());
    std::printf("  run %d: base train %.2fs (%zu clusters), append %.3fs, "
                "retrain %.3fs\n",
                run + 1, base_seconds, engine->growth_state().clusters.size(),
                append_runs.back(), retrain_runs.back());
  }
  const double append_seconds = Median(append_runs);
  const double retrain_seconds = Median(retrain_runs);

  // Both engines' training rows follow corpus order (original first, delta
  // last), so labels compare position-wise.
  const std::vector<int>& incremental = engine->training_data().labels;
  const std::vector<int>& retrained = control->training_data().labels;
  std::size_t matches = 0;
  const std::size_t rows = incremental.size();
  if (rows != retrained.size()) {
    std::fprintf(stderr, "row count mismatch: append %zu vs retrain %zu\n",
                 rows, retrained.size());
    return 1;
  }
  for (std::size_t i = 0; i < rows; ++i) {
    if (incremental[i] == retrained[i]) ++matches;
  }
  const double agreement =
      rows > 0 ? static_cast<double>(matches) / static_cast<double>(rows)
               : 0.0;
  const double speedup =
      append_seconds > 0.0 ? retrain_seconds / append_seconds : 0.0;

  const auto& counters = engine->train_report().stages.counters;
  const auto counter = [&](const char* name) -> double {
    const auto it = counters.find(name);
    return it != counters.end() ? static_cast<double>(it->second) : 0.0;
  };

  std::printf("\n  append:    %8.3fs  median (last run: %g assigned, %g "
              "splits, %g warm elites survived)\n",
              append_seconds, counter("update.assigned"),
              counter("update.splits"), counter("update.race_warm_hits"));
  std::printf("  retrain:   %8.3fs  median\n", retrain_seconds);
  std::printf("  speedup:   %8.2fx\n", speedup);
  std::printf("  agreement: %8.1f%% (%zu/%zu labels)\n", 100.0 * agreement,
              matches, rows);

  const std::vector<std::pair<std::string, std::string>> params = {
      {"series", std::to_string(config.series)},
      {"delta", std::to_string(config.delta)},
      {"warm", config.warm_start ? "1" : "0"},
      {"synthetic", config.synthetic ? "1" : "0"}};
  writer.Record("incremental.append", params, append_seconds, agreement,
                &engine->train_report().stages,
                {{"speedup", speedup},
                 {"agreement", agreement},
                 {"assigned", counter("update.assigned")},
                 {"splits", counter("update.splits")},
                 {"race_warm_hits", counter("update.race_warm_hits")}});
  writer.Record("incremental.retrain", params, retrain_seconds, agreement);
  return 0;
}

int Main(int argc, char** argv) {
  Config config;
  bool quick = false;
  // A malformed number exits 2 naming its flag; it never quietly becomes 0.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--cold") == 0) {
      config.warm_start = false;
    } else if (std::strcmp(argv[i], "--synthetic") == 0) {
      config.synthetic = true;
    } else if (const char* v = next("--series")) {
      const Result<std::uint64_t> n = tools::ParseUint("series", v, kMax);
      if (!n.ok()) return tools::BadFlag(n.status());
      config.series = *n;
    } else if (const char* v = next("--length")) {
      const Result<std::uint64_t> n = tools::ParseUint("length", v, kMax);
      if (!n.ok()) return tools::BadFlag(n.status());
      config.length = *n;
    } else if (const char* v = next("--delta")) {
      const Result<std::uint64_t> n = tools::ParseUint("delta", v, kMax);
      if (!n.ok()) return tools::BadFlag(n.status());
      config.delta = *n;
    } else if (const char* v = next("--seed")) {
      const Result<std::uint64_t> n = tools::ParseUint("seed", v, kMax);
      if (!n.ok()) return tools::BadFlag(n.status());
      config.seed = *n;
    }
  }
  if (quick) {
    // The CI grid: the synthetic stable-block corpus, small enough for
    // every push, decisive enough that agreement sits at 1.0 with margin.
    config.series = 60;
    config.delta = 8;
    config.length = 160;
    config.synthetic = true;
  }
  const BenchJsonWriter writer(JsonPathFromArgs(argc, argv));
  return Run(config, writer);
}

}  // namespace
}  // namespace adarts::bench

int main(int argc, char** argv) {
  adarts::ScopedTrace trace_session(adarts::TraceOptions::FromFlagOrEnv(
      adarts::bench::TracePathFromArgs(argc, argv)));
  return adarts::bench::Main(argc, argv);
}
