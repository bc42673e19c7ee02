// Fig. 12 reproduction, grown into a downstream suite: impact of
// imputation-algorithm selection on (a) forecasting and (b) anomaly
// detection after repair. Each forecasting dataset gets a 20% missing block
// at the tip of half its series; the series are repaired either with the
// algorithm A-DARTS recommends for that dataset or with the static
// one-size-fits-all recommendation (simulating the binary-decision-vector
// rule of the ImputeBench paper). Task (a) forecasts 12 steps ahead with an
// AR(24) model and scores sMAPE; task (b) plants known spike anomalies
// before masking and scores point-anomaly detection F1 on the repaired
// series — a sloppy repair leaves artifacts in the tip that a robust
// z-score detector flags as false positives. Expected shape: A-DARTS
// repairs yield clearly lower sMAPE and an anomaly F1 at least as high as
// the static repair, with the biggest gains on complex seasonal structure.
//
//   bench_fig12_downstream_forecasting [--smoke] [--json PATH] [--trace PATH]
//
// --smoke runs two datasets on a tiny corpus — the ctest case proving the
// whole downstream loop end to end on every push.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "common/trace.h"
#include "data/forecast_data.h"
#include "forecast/forecaster.h"
#include "labeling/labeler.h"
#include "ts/metrics.h"
#include "ts/missing.h"

namespace adarts::bench {
namespace {

struct Fig12Config {
  std::size_t history = 240;
  std::size_t horizon = 12;
  std::size_t series = 10;
  double tip_fraction = 0.2;
  std::size_t max_datasets = static_cast<std::size_t>(-1);
  bool smoke = false;
};

/// Static recommendation: the single algorithm with the best average rank
/// over a generic reference corpus — the "recommendation axis dot product"
/// of the ImputeBench heuristic collapses to one global winner.
Result<impute::Algorithm> StaticRecommendation(
    const std::vector<impute::Algorithm>& pool, const Fig12Config& config) {
  data::GeneratorOptions gopts;
  gopts.num_series = config.series;
  gopts.length = config.history;
  const auto reference = data::GenerateMixedCorpus(1, gopts);

  labeling::LabelingOptions lopts;
  lopts.algorithms = pool;
  lopts.pattern = ts::MissingPattern::kTipOfSeries;
  lopts.missing_fraction = config.tip_fraction;
  ExecContext ctx;
  ADARTS_ASSIGN_OR_RETURN(labeling::LabelingResult labels,
                          labeling::LabelSeriesFull(reference, lopts, ctx));
  // Average rank per algorithm across the reference series.
  la::Vector avg_rank(pool.size(), 0.0);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    for (std::size_t a = 0; a < pool.size(); ++a) {
      double rank = 1.0;
      for (std::size_t b = 0; b < pool.size(); ++b) {
        if (labels.rmse(i, b) < labels.rmse(i, a)) rank += 1.0;
      }
      avg_rank[a] += rank;
    }
  }
  std::size_t best = 0;
  for (std::size_t a = 1; a < pool.size(); ++a) {
    if (avg_rank[a] < avg_rank[best]) best = a;
  }
  return pool[best];
}

/// Average sMAPE of AR(24) forecasts from the repaired histories. The AR
/// lag window reaches directly into the repaired tip, so forecast quality
/// tracks repair quality closely — the downstream mechanism under study.
double ForecastSmape(const std::vector<ts::TimeSeries>& repaired,
                     const std::vector<ts::TimeSeries>& full,
                     const Fig12Config& config) {
  const auto forecaster = forecast::CreateAutoRegressive(24);
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < repaired.size(); ++i) {
    auto pred = forecaster->Forecast(repaired[i].values(), config.horizon);
    if (!pred.ok()) continue;
    la::Vector actual(config.horizon);
    for (std::size_t h = 0; h < config.horizon; ++h) {
      actual[h] = full[i].value(config.history + h);
    }
    auto smape = ts::Smape(actual, *pred);
    if (smape.ok()) {
      total += *smape;
      ++count;
    }
  }
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

// --- Task (b): anomaly detection after repair -------------------------------

/// Point-anomaly detector: robust z-score against the series median with a
/// MAD scale estimate (outlier-proof on both moments). Positions whose
/// score exceeds `threshold` are flagged.
std::vector<std::size_t> DetectSpikes(const ts::TimeSeries& series,
                                      double threshold) {
  la::Vector sorted = series.values();
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  la::Vector deviations(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    deviations[i] = std::abs(series.value(i) - median);
  }
  la::Vector dev_sorted = deviations;
  std::sort(dev_sorted.begin(), dev_sorted.end());
  const double sigma = 1.4826 * dev_sorted[dev_sorted.size() / 2];
  std::vector<std::size_t> detected;
  if (sigma < 1e-12) return detected;
  for (std::size_t i = 0; i < deviations.size(); ++i) {
    if (deviations[i] / sigma > threshold) detected.push_back(i);
  }
  return detected;
}

struct DetectionTally {
  std::size_t tp = 0;
  std::size_t fp = 0;
  std::size_t fn = 0;

  void Add(const std::vector<std::size_t>& truth,
           const std::vector<std::size_t>& detected) {
    for (std::size_t p : detected) {
      if (std::binary_search(truth.begin(), truth.end(), p)) {
        ++tp;
      } else {
        ++fp;
      }
    }
    for (std::size_t p : truth) {
      if (!std::binary_search(detected.begin(), detected.end(), p)) ++fn;
    }
  }

  double F1() const {
    const double denom = static_cast<double>(2 * tp + fp + fn);
    return denom > 0.0 ? 2.0 * static_cast<double>(tp) / denom : 0.0;
  }
};

struct AnomalyScores {
  double f1_adarts = 0.0;
  double f1_static = 0.0;
};

/// Plants spikes in the complete histories (outside the tip that will go
/// missing), masks the tips of the odd half of the fleet, repairs with both
/// systems, and scores spike detection on the repaired series only — the
/// even half is identical under both repairs and would just dilute the
/// delta.
Result<AnomalyScores> AnomalyAfterRepair(
    const Adarts& engine, impute::Algorithm static_algo,
    const std::vector<ts::TimeSeries>& histories, const Fig12Config& config,
    std::uint64_t seed) {
  Rng rng(seed);
  const auto tip_len = static_cast<std::size_t>(
      std::round(config.tip_fraction * static_cast<double>(config.history)));
  std::vector<ts::TimeSeries> spiked = histories;
  std::vector<std::vector<std::size_t>> truth(histories.size());
  for (std::size_t i = 0; i < spiked.size(); ++i) {
    truth[i] = data::InjectSpikeAnomalies(/*count=*/3, /*magnitude=*/6.0,
                                          /*margin=*/tip_len + 4, &rng,
                                          &spiked[i]);
  }

  std::vector<ts::TimeSeries> working = spiked;
  for (std::size_t i = 1; i < working.size(); i += 2) {
    ADARTS_RETURN_NOT_OK(ts::InjectTipBlock(config.tip_fraction, &working[i]));
  }
  ExecContext ctx;
  ADARTS_ASSIGN_OR_RETURN(std::vector<ts::TimeSeries> fixed_adarts,
                          engine.RepairSet(working, {}, ctx));
  ADARTS_ASSIGN_OR_RETURN(
      std::vector<ts::TimeSeries> fixed_static,
      impute::CreateImputer(static_algo)->ImputeSet(working));

  constexpr double kThreshold = 4.0;
  DetectionTally adarts_tally;
  DetectionTally static_tally;
  for (std::size_t i = 1; i < histories.size(); i += 2) {
    adarts_tally.Add(truth[i], DetectSpikes(fixed_adarts[i], kThreshold));
    static_tally.Add(truth[i], DetectSpikes(fixed_static[i], kThreshold));
  }
  return AnomalyScores{adarts_tally.F1(), static_tally.F1()};
}

int Run(const Fig12Config& config, const BenchJsonWriter& writer) {
  std::printf("=== Fig. 12 downstream suite: forecasting sMAPE (lower is "
              "better) and anomaly-detection F1 after repair (higher is "
              "better) ===\n\n");

  const std::vector<impute::Algorithm> pool = BenchPool();
  auto static_algo = StaticRecommendation(pool, config);
  if (!static_algo.ok()) {
    std::printf("static recommendation failed: %s\n",
                static_algo.status().ToString().c_str());
    return 1;
  }
  std::printf("static one-size-fits-all recommendation: %s\n\n",
              std::string(impute::AlgorithmToString(*static_algo)).c_str());

  std::printf("%-14s %9s %9s %8s %8s %8s  %s\n", "Dataset", "A-DARTS",
              "static", "gain", "F1 A-D", "F1 stat", "recommended");
  PrintRule(78);

  double total_gain = 0.0;
  double total_f1_delta = 0.0;
  int datasets = 0;
  std::vector<std::string> names = data::ForecastDatasetNames();
  if (names.size() > config.max_datasets) names.resize(config.max_datasets);
  for (const std::string& name : names) {
    Stopwatch watch;
    const auto full = data::GenerateForecastDataset(
        name, config.series, config.history + config.horizon, 41);
    std::vector<ts::TimeSeries> histories;
    for (const auto& s : full) {
      la::Vector h(s.values().begin(),
                   s.values().begin() +
                       static_cast<std::ptrdiff_t>(config.history));
      histories.emplace_back(std::move(h));
    }

    // Train A-DARTS on this dataset's (complete) histories with the tip
    // pattern it will face at repair time.
    TrainOptions topts;
    topts.labeling.algorithms = pool;
    topts.labeling.pattern = ts::MissingPattern::kTipOfSeries;
    topts.labeling.missing_fraction = config.tip_fraction;
    // Half the fleet is masked at repair time; label under the same regime.
    topts.labeling.representatives_per_cluster = 5;
    topts.race.num_seed_pipelines = config.smoke ? 8 : 14;
    topts.race.num_partial_sets = 2;
    topts.race.num_folds = 2;
    ExecContext ctx;
    auto engine = Adarts::Train(histories, topts, ctx);
    if (!engine.ok()) {
      std::printf("%-14s training failed: %s\n", name.c_str(),
                  engine.status().ToString().c_str());
      continue;
    }

    // Task (a): repair in two passes — mask the tips of one half of the
    // fleet while the other half stays observed (sensor outages hit
    // subsets, not the whole fleet — total blackout would leave nothing to
    // repair from).
    std::vector<ts::TimeSeries> adarts_repaired = histories;
    std::vector<ts::TimeSeries> static_repaired = histories;
    impute::Algorithm last_recommendation = pool[0];
    bool failed = false;
    for (int parity = 0; parity < 2 && !failed; ++parity) {
      std::vector<ts::TimeSeries> working_a = adarts_repaired;
      std::vector<ts::TimeSeries> working_s = static_repaired;
      for (std::size_t i = static_cast<std::size_t>(parity);
           i < histories.size(); i += 2) {
        failed = failed ||
                 !ts::InjectTipBlock(config.tip_fraction, &working_a[i]).ok();
        failed = failed ||
                 !ts::InjectTipBlock(config.tip_fraction, &working_s[i]).ok();
      }
      if (failed) break;
      ExecContext repair_ctx;
      auto rec = engine->Recommend(working_a[static_cast<std::size_t>(parity)],
                                   repair_ctx);
      auto fixed_a = engine->RepairSet(working_a, {}, repair_ctx);
      auto fixed_s = impute::CreateImputer(*static_algo)->ImputeSet(working_s);
      if (!fixed_a.ok() || !fixed_s.ok() || !rec.ok()) {
        failed = true;
        break;
      }
      last_recommendation = *rec;
      for (std::size_t i = static_cast<std::size_t>(parity);
           i < histories.size(); i += 2) {
        adarts_repaired[i] = (*fixed_a)[i];
        static_repaired[i] = (*fixed_s)[i];
      }
    }
    if (failed) {
      std::printf("%-14s repair failed\n", name.c_str());
      continue;
    }

    const double adarts_smape = ForecastSmape(adarts_repaired, full, config);
    const double static_smape = ForecastSmape(static_repaired, full, config);
    const double gain =
        static_smape > 0.0
            ? 100.0 * (static_smape - adarts_smape) / static_smape
            : 0.0;

    // Task (b): anomaly detection after repair on the same dataset.
    const auto anomaly = AnomalyAfterRepair(*engine, *static_algo, histories,
                                            config, 97 + datasets);
    if (!anomaly.ok()) {
      std::printf("%-14s anomaly task failed: %s\n", name.c_str(),
                  anomaly.status().ToString().c_str());
      continue;
    }

    total_gain += gain;
    total_f1_delta += anomaly->f1_adarts - anomaly->f1_static;
    ++datasets;
    std::printf("%-14s %9s %9s %7s%% %8s %8s  %s\n", name.c_str(),
                Fmt(adarts_smape, 3).c_str(), Fmt(static_smape, 3).c_str(),
                Fmt(gain, 1).c_str(), Fmt(anomaly->f1_adarts, 2).c_str(),
                Fmt(anomaly->f1_static, 2).c_str(),
                std::string(impute::AlgorithmToString(last_recommendation))
                    .c_str());
    writer.Record(
        "fig12.downstream", {{"dataset", name}}, watch.ElapsedSeconds(),
        adarts_smape, nullptr,
        {{"smape_adarts", adarts_smape},
         {"smape_static", static_smape},
         {"gain_pct", gain},
         {"anomaly_f1_adarts", anomaly->f1_adarts},
         {"anomaly_f1_static", anomaly->f1_static}});
  }
  PrintRule(78);
  if (datasets > 0) {
    std::printf("\nAverage sMAPE improvement with A-DARTS: %.1f%% "
                "(paper: ~55%%, ranging 28-80%%)\n",
                total_gain / datasets);
    std::printf("Average anomaly-detection F1 delta (A-DARTS - static): "
                "%+.3f\n",
                total_f1_delta / datasets);
    return 0;
  }
  return 1;
}

}  // namespace
}  // namespace adarts::bench

int main(int argc, char** argv) {
  adarts::bench::Fig12Config config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      // The tiny-corpus ctest/CI configuration: two datasets, short
      // histories, smaller race — proves the loop, not the numbers.
      config.smoke = true;
      config.history = 120;
      config.horizon = 8;
      config.series = 8;
      config.max_datasets = 2;
    }
  }
  adarts::ScopedTrace trace_session(adarts::TraceOptions::FromFlagOrEnv(
      adarts::bench::TracePathFromArgs(argc, argv)));
  const adarts::bench::BenchJsonWriter writer(
      adarts::bench::JsonPathFromArgs(argc, argv));
  return adarts::bench::Run(config, writer);
}
