// Sensor-fleet scenario: an IoT operator maintains heterogeneous fleets
// (power meters, weather stations, medical monitors). A-DARTS is trained
// once on historical data from every fleet; afterwards, outages anywhere in
// any fleet are repaired with the per-fleet best algorithm.
//
// The example also demonstrates the cost story of Section VI: cluster-level
// labeling needs far fewer imputation-benchmark runs than per-series
// labeling while producing a comparable training signal.
//
//   $ ./build/examples/sensor_fleet

#include <cstdio>
#include <map>

#include "adarts/adarts.h"
#include "cluster/incremental.h"
#include "common/rng.h"
#include "data/generators.h"
#include "labeling/labeler.h"
#include "ts/metrics.h"
#include "ts/missing.h"

int main() {
  using namespace adarts;

  // --- Historical (complete) data from three fleets.
  std::printf("== Fleet inventory ==\n");
  data::GeneratorOptions gen;
  gen.num_series = 18;
  gen.length = 192;
  std::map<std::string, std::vector<ts::TimeSeries>> fleets;
  fleets["power-meters"] = data::GenerateCategory(data::Category::kPower, gen);
  fleets["weather-stations"] =
      data::GenerateCategory(data::Category::kClimate, gen);
  fleets["icu-monitors"] = data::GenerateCategory(data::Category::kMedical, gen);

  std::vector<ts::TimeSeries> corpus;
  for (const auto& [name, series] : fleets) {
    std::printf("  %-18s %zu series\n", name.c_str(), series.size());
    corpus.insert(corpus.end(), series.begin(), series.end());
  }

  // --- Show the labeling economics before training.
  {
    cluster::IncrementalOptions copts;
    ExecContext ctx;
    auto clustering = cluster::IncrementalClustering(corpus, copts, ctx);
    if (clustering.ok()) {
      labeling::LabelingOptions lopts;
      lopts.algorithms = {impute::Algorithm::kCdRec, impute::Algorithm::kTkcm,
                          impute::Algorithm::kIim,
                          impute::Algorithm::kLinearInterp};
      auto fast = labeling::LabelByClusters(corpus, *clustering, lopts, ctx);
      auto full = labeling::LabelSeriesFull(corpus, lopts, ctx);
      if (fast.ok() && full.ok()) {
        std::printf("\n== Labeling cost (Section VI) ==\n");
        std::printf("  %zu series -> %zu clusters\n", corpus.size(),
                    clustering->NumClusters());
        std::printf("  cluster labeling: %zu imputation runs\n",
                    fast->imputation_runs);
        std::printf("  naive per-series bench would need ~%zu runs\n",
                    corpus.size() * lopts.algorithms.size());
      }
    }
  }

  // --- Train the engine on the combined corpus.
  std::printf("\n== Training ==\n");
  TrainOptions options;
  options.labeling.algorithms = {
      impute::Algorithm::kCdRec, impute::Algorithm::kDynaMmo,
      impute::Algorithm::kStMvl, impute::Algorithm::kTkcm,
      impute::Algorithm::kIim, impute::Algorithm::kLinearInterp};
  options.race.num_seed_pipelines = 18;
  options.race.num_partial_sets = 3;
  ExecContext ctx;
  auto engine = Adarts::Train(corpus, options, ctx);
  if (!engine.ok()) {
    std::printf("training failed: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::printf("  committee: %zu pipelines\n", engine->committee_size());
  for (const auto& elite : engine->race_report().elites) {
    std::printf("    %s (mean score %.3f)\n", elite.spec.ToString().c_str(),
                elite.mean_score);
  }

  // --- Simulate outages: a block of each fleet's series loses data.
  std::printf("\n== Outage repair ==\n");
  Rng rng(99);
  for (auto& [name, series] : fleets) {
    // Mask one third of the fleet.
    std::vector<ts::TimeSeries> faulty = series;
    for (std::size_t i = 0; i < faulty.size(); i += 3) {
      if (auto st = ts::InjectSingleBlock(18, &rng, &faulty[i]); !st.ok()) {
        std::printf("mask failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    auto repaired = engine->RepairSet(faulty, {}, ctx);
    if (!repaired.ok()) {
      std::printf("  %-18s repair failed: %s\n", name.c_str(),
                  repaired.status().ToString().c_str());
      continue;
    }
    // Score the repair on the masked series.
    double rmse_total = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < faulty.size(); i += 3) {
      auto rmse = ts::ImputationRmse(faulty[i], (*repaired)[i]);
      if (rmse.ok()) {
        rmse_total += *rmse;
        ++count;
      }
    }
    auto recommendation = engine->Recommend(faulty[0], ctx);
    std::printf("  %-18s repaired %zu series, avg RMSE %.4f, algorithm: %s\n",
                name.c_str(), count, rmse_total / count,
                recommendation.ok()
                    ? std::string(impute::AlgorithmToString(*recommendation)).c_str()
                    : "?");
  }
  return 0;
}
