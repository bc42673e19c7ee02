// Forecasting pipeline: the downstream scenario of the paper's Section
// VII-F. A fleet of series loses its most recent 20% of observations; the
// history is repaired (with the algorithm A-DARTS recommends vs a naive
// mean fill) and a forecaster predicts the next 12 steps. Repair quality
// translates directly into forecast quality.
//
//   $ ./build/examples/forecasting_pipeline

#include <cstdio>

#include "adarts/adarts.h"
#include "data/forecast_data.h"
#include "forecast/forecaster.h"
#include "impute/imputer.h"
#include "ts/metrics.h"
#include "ts/missing.h"

namespace {

constexpr std::size_t kHistory = 240;
constexpr std::size_t kHorizon = 12;

double AvgSmape(const std::vector<adarts::ts::TimeSeries>& histories,
                const std::vector<adarts::ts::TimeSeries>& full,
                const adarts::forecast::Forecaster& forecaster) {
  double total = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < histories.size(); ++i) {
    auto pred = forecaster.Forecast(histories[i].values(), kHorizon);
    if (!pred.ok()) continue;
    adarts::la::Vector actual(kHorizon);
    for (std::size_t h = 0; h < kHorizon; ++h) {
      actual[h] = full[i].value(kHistory + h);
    }
    auto smape = adarts::ts::Smape(actual, *pred);
    if (smape.ok()) {
      total += *smape;
      ++n;
    }
  }
  return n > 0 ? total / static_cast<double>(n) : -1.0;
}

}  // namespace

int main() {
  using namespace adarts;

  std::printf("Dataset: 'Tourism' (independently shifted seasonal series)\n");
  const auto full =
      data::GenerateForecastDataset("Tourism", 10, kHistory + kHorizon, 4);
  std::vector<ts::TimeSeries> histories;
  for (const auto& s : full) {
    histories.emplace_back(la::Vector(
        s.values().begin(),
        s.values().begin() + static_cast<std::ptrdiff_t>(kHistory)));
  }

  // --- Train A-DARTS for the tip-of-series repair scenario.
  TrainOptions options;
  options.labeling.pattern = ts::MissingPattern::kTipOfSeries;
  options.labeling.missing_fraction = 0.2;
  options.labeling.representatives_per_cluster = 5;
  options.race.num_seed_pipelines = 14;
  options.race.num_partial_sets = 2;
  options.race.num_folds = 2;
  ExecContext ctx;
  auto engine = Adarts::Train(histories, options, ctx);
  if (!engine.ok()) {
    std::printf("training failed: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  // --- An outage hits half of the fleet's tails.
  std::vector<ts::TimeSeries> faulty = histories;
  for (std::size_t i = 0; i < faulty.size(); i += 2) {
    if (auto st = ts::InjectTipBlock(0.2, &faulty[i]); !st.ok()) {
      std::printf("mask failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::printf("Masked the final 20%% of %zu of %zu series\n",
              (faulty.size() + 1) / 2, faulty.size());

  // --- Repair with the recommendation vs a naive mean fill.
  auto recommended = engine->Recommend(faulty[0], ctx);
  auto smart = engine->RepairSet(faulty, {}, ctx);
  auto naive =
      impute::CreateImputer(impute::Algorithm::kMeanImpute)->ImputeSet(faulty);
  if (!smart.ok() || !naive.ok() || !recommended.ok()) {
    std::printf("repair failed\n");
    return 1;
  }
  std::printf("A-DARTS recommends: %s\n",
              std::string(impute::AlgorithmToString(*recommended)).c_str());

  // --- Forecast the horizon from both repaired fleets.
  const auto forecaster = forecast::CreateAutoRegressive(24);
  const double smart_smape = AvgSmape(*smart, full, *forecaster);
  const double naive_smape = AvgSmape(*naive, full, *forecaster);
  const double clean_smape = AvgSmape(histories, full, *forecaster);

  std::printf("\nForecast sMAPE over a %zu-step horizon (lower is better):\n",
              kHorizon);
  std::printf("  pristine history (upper bound): %.4f\n", clean_smape);
  std::printf("  A-DARTS repair:                 %.4f\n", smart_smape);
  std::printf("  naive mean-fill repair:         %.4f\n", naive_smape);
  if (naive_smape > 0.0) {
    std::printf("  improvement over naive:         %.1f%%\n",
                100.0 * (naive_smape - smart_smape) / naive_smape);
  }
  return 0;
}
