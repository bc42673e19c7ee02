// Scenario & contamination matrix sweep: every registered missingness
// scenario (ts/scenario.h) crossed with every dataset category and missing
// rate. Per cell the bench reports each algorithm's RMSE, the cell's true
// best algorithm, and the recommender win-rate — did `Adarts::Recommend`
// pick that true best for the cell's masked series? This is the substrate
// experiment behind the whole selection problem (different damage, different
// winner) *and* the stability check on top of it (does the recommendation
// survive a scenario shift it was not trained on).
//
//   bench_impute_scenarios [--quick] [--scenario NAME]... [--category NAME]...
//                          [--rate R]... [--series N] [--length N] [--seed S]
//                          [--json BENCH_scenarios.json] [--trace trace.json]
//
// --json emits one record per (scenario, category, rate) cell with the
// per-algorithm RMSEs and the win-rate in `metrics`; tools/bench_compare
// diffs two such files and turns drift into a red exit code (DESIGN.md §11).
// --quick is the reduced grid the CI scenario-sweep job and the ctest smoke
// case run: a subset of scenarios/categories at one rate on a small corpus.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "tools/tool_args.h"
#include "ts/metrics.h"
#include "ts/scenario.h"

namespace adarts::bench {
namespace {

struct SweepConfig {
  std::vector<ts::Scenario> scenarios;
  std::vector<data::Category> categories;
  /// Overrides every scenario's default rate grid when non-empty.
  std::vector<double> rates;
  std::size_t series = 10;
  std::size_t length = 192;
  std::uint64_t seed = 97;
};

/// Stable 64-bit name hash (FNV-1a) so per-cell RNG streams do not depend
/// on std::hash's implementation — records must reproduce across toolchains.
std::uint64_t StableHash(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Mean imputation RMSE of one algorithm on an already-masked set; any
/// failure (fit, malformed output, metric) surfaces as a Status instead of
/// the old silent -1.0 sentinel.
Result<double> AlgorithmRmse(impute::Algorithm algorithm,
                             const std::vector<ts::TimeSeries>& masked) {
  ADARTS_ASSIGN_OR_RETURN(std::vector<ts::TimeSeries> repaired,
                          impute::CreateImputer(algorithm)->ImputeSet(masked));
  double total = 0.0;
  for (std::size_t i = 0; i < masked.size(); ++i) {
    ADARTS_ASSIGN_OR_RETURN(const double rmse,
                            ts::ImputationRmse(masked[i], repaired[i]));
    total += rmse;
  }
  return total / static_cast<double>(masked.size());
}

struct CellResult {
  std::string best_algorithm;
  double best_rmse = 0.0;
  /// Per-algorithm mean RMSE; only algorithms whose run succeeded appear.
  std::vector<std::pair<std::string, double>> rmse;
  std::size_t algorithm_failures = 0;
  /// Recommender agreement with the cell's true best.
  double win_rate = 0.0;
  std::size_t recommend_wins = 0;
  std::size_t recommend_calls = 0;
  std::size_t recommend_failures = 0;
};

/// Evaluates one (scenario, category, rate) cell: masks a copy of `truth`,
/// races every pool algorithm on it, and measures how often the trained
/// engine recommends the cell's winner. Fails only when *no* algorithm
/// produced a score (individual failures are printed and excluded).
Result<CellResult> EvaluateCell(const ts::Scenario& scenario, double rate,
                                const char* cell_tag,
                                const std::vector<ts::TimeSeries>& truth,
                                const std::vector<impute::Algorithm>& pool,
                                const Adarts* engine, std::uint64_t seed) {
  std::vector<ts::TimeSeries> masked = truth;
  Rng rng(seed);
  ADARTS_RETURN_NOT_OK(ts::ApplyScenario(scenario, rate, &rng, &masked));

  CellResult cell;
  std::optional<std::size_t> best;
  for (std::size_t a = 0; a < pool.size(); ++a) {
    const std::string name(impute::AlgorithmToString(pool[a]));
    const Result<double> rmse = AlgorithmRmse(pool[a], masked);
    if (!rmse.ok()) {
      ++cell.algorithm_failures;
      std::printf("  ! %s %s: %s\n", cell_tag, name.c_str(),
                  rmse.status().ToString().c_str());
      continue;
    }
    cell.rmse.emplace_back(name, *rmse);
    if (!best.has_value() || *rmse < cell.best_rmse) {
      best = a;
      cell.best_rmse = *rmse;
      cell.best_algorithm = name;
    }
  }
  if (!best.has_value()) {
    return Status::Internal("every algorithm failed on this cell");
  }

  if (engine != nullptr) {
    ExecContext ctx;
    for (const auto& series : masked) {
      const Result<impute::Algorithm> rec = engine->Recommend(series, ctx);
      if (!rec.ok()) {
        ++cell.recommend_failures;
        continue;
      }
      ++cell.recommend_calls;
      if (*rec == pool[*best]) ++cell.recommend_wins;
    }
    if (cell.recommend_calls > 0) {
      cell.win_rate = static_cast<double>(cell.recommend_wins) /
                      static_cast<double>(cell.recommend_calls);
    }
  }
  return cell;
}

/// Trains the recommendation engine on the category's complete corpus with
/// the default (single-block) labeling regime — the sweep then measures how
/// that recommendation holds up across scenarios it never saw in training.
Result<Adarts> TrainCategoryEngine(const std::vector<ts::TimeSeries>& corpus,
                                   const std::vector<impute::Algorithm>& pool,
                                   std::uint64_t seed) {
  TrainOptions topts;
  topts.labeling.algorithms = pool;
  topts.labeling.missing_fraction = 0.1;
  topts.labeling.representatives_per_cluster = 4;
  topts.race.num_seed_pipelines = 12;
  topts.race.num_partial_sets = 2;
  topts.race.num_folds = 2;
  topts.seed = seed;
  ExecContext ctx;
  return Adarts::Train(corpus, topts, ctx);
}

int RunSweep(const SweepConfig& config, const BenchJsonWriter& writer) {
  std::printf("=== Scenario & contamination matrix (mean RMSE on "
              "z-normalised sets; win rate = recommender picked the cell's "
              "best) ===\n");

  const std::vector<impute::Algorithm> pool = BenchPool();
  std::map<std::string, int> scenario_wins;
  std::map<std::string, std::pair<double, std::size_t>> scenario_win_rate;
  std::size_t cells_ok = 0;
  std::size_t cells_failed = 0;

  for (const data::Category category : config.categories) {
    const std::string category_name(data::CategoryToString(category));
    data::GeneratorOptions gopts;
    gopts.num_series = config.series;
    gopts.length = config.length;
    gopts.seed = config.seed;
    std::vector<ts::TimeSeries> truth = data::GenerateCategory(category, gopts);
    // Z-normalise so RMSE is comparable across categories.
    for (auto& s : truth) s = s.ZNormalized();

    const Result<Adarts> engine =
        TrainCategoryEngine(truth, pool, config.seed + StableHash(category_name));
    if (!engine.ok()) {
      std::printf("! %s: engine training failed, win rates unavailable: %s\n",
                  category_name.c_str(), engine.status().ToString().c_str());
    }

    std::printf("\n%s\n", category_name.c_str());
    std::printf("%-20s %6s %-14s %10s %9s %6s\n", "scenario", "rate",
                "best", "best_rmse", "win_rate", "fail");
    PrintRule(72);

    for (const ts::Scenario& scenario : config.scenarios) {
      const std::vector<double>& rates =
          config.rates.empty() ? scenario.rates : config.rates;
      for (const double rate : rates) {
        char cell_tag[128];
        std::snprintf(cell_tag, sizeof(cell_tag), "[%s/%s/%s]",
                      std::string(scenario.name).c_str(),
                      category_name.c_str(), Fmt(rate, 2).c_str());
        const std::uint64_t cell_seed =
            config.seed ^ StableHash(scenario.name) ^
            StableHash(category_name) ^
            static_cast<std::uint64_t>(rate * 1000.0);
        Stopwatch watch;
        const Result<CellResult> cell = EvaluateCell(
            scenario, rate, cell_tag, truth, pool,
            engine.ok() ? &*engine : nullptr, cell_seed);
        const double cell_seconds = watch.ElapsedSeconds();
        if (!cell.ok()) {
          ++cells_failed;
          std::printf("  ! %s: %s\n", cell_tag,
                      cell.status().ToString().c_str());
          continue;
        }
        ++cells_ok;
        ++scenario_wins[cell->best_algorithm];
        auto& [rate_sum, rate_count] =
            scenario_win_rate[std::string(scenario.name)];
        if (cell->recommend_calls > 0) {
          rate_sum += cell->win_rate;
          ++rate_count;
        }

        std::printf("%-20s %6s %-14s %10s %9s %6zu\n",
                    std::string(scenario.name).c_str(), Fmt(rate, 2).c_str(),
                    cell->best_algorithm.c_str(),
                    Fmt(cell->best_rmse, 3).c_str(),
                    cell->recommend_calls > 0 ? Fmt(cell->win_rate, 2).c_str()
                                              : "n/a",
                    cell->algorithm_failures + cell->recommend_failures);

        std::vector<std::pair<std::string, double>> metrics;
        metrics.emplace_back("rmse_best", cell->best_rmse);
        if (cell->recommend_calls > 0) {
          metrics.emplace_back("win_rate", cell->win_rate);
        }
        for (const auto& [name, rmse] : cell->rmse) {
          metrics.emplace_back("rmse." + name, rmse);
        }
        metrics.emplace_back(
            "algo_failures", static_cast<double>(cell->algorithm_failures));
        metrics.emplace_back(
            "recommend_failures",
            static_cast<double>(cell->recommend_failures));
        writer.Record("scenarios.cell",
                      {{"scenario", std::string(scenario.name)},
                       {"category", category_name},
                       {"rate", Fmt(rate, 2)}},
                      cell_seconds, cell->best_rmse, nullptr, metrics);
      }
    }
  }

  std::printf("\nScenario wins per algorithm:");
  for (const auto& [name, count] : scenario_wins) {
    std::printf(" %s=%d", name.c_str(), count);
  }
  std::printf("\nMean recommender win rate per scenario:");
  double overall_sum = 0.0;
  std::size_t overall_count = 0;
  for (const auto& [name, acc] : scenario_win_rate) {
    const auto& [sum, count] = acc;
    if (count == 0) continue;
    std::printf(" %s=%s", name.c_str(),
                Fmt(sum / static_cast<double>(count), 2).c_str());
    overall_sum += sum;
    overall_count += count;
  }
  std::printf("\nDistinct winning algorithms: %zu over %zu cells "
              "(%zu cells failed entirely)\n",
              scenario_wins.size(), cells_ok, cells_failed);

  writer.Record(
      "scenarios.summary", {}, 0.0,
      overall_count > 0 ? overall_sum / static_cast<double>(overall_count)
                        : 0.0,
      nullptr,
      {{"cells", static_cast<double>(cells_ok)},
       {"cells_failed", static_cast<double>(cells_failed)},
       {"distinct_winners", static_cast<double>(scenario_wins.size())},
       {"win_rate",
        overall_count > 0 ? overall_sum / static_cast<double>(overall_count)
                          : 0.0}});
  // Failed cells are visible above and excluded from every aggregate; they
  // only fail the bench when nothing at all could be scored.
  return cells_ok > 0 ? 0 : 1;
}

Result<data::Category> CategoryFromName(std::string_view name) {
  for (const data::Category c : data::AllCategories()) {
    if (data::CategoryToString(c) == name) return c;
  }
  return Status::NotFound("unknown category '" + std::string(name) + "'");
}

int Run(int argc, char** argv) {
  SweepConfig config;
  bool quick = false;
  std::vector<std::string> scenario_names;
  std::vector<std::string> category_names;
  // A malformed number exits 2 naming its flag; it never quietly becomes 0.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (const char* v = next("--scenario")) {
      scenario_names.emplace_back(v);
    } else if (const char* v = next("--category")) {
      category_names.emplace_back(v);
    } else if (const char* v = next("--rate")) {
      const Result<double> rate = tools::ParseNonNegativeDouble("rate", v);
      if (!rate.ok()) return tools::BadFlag(rate.status());
      config.rates.push_back(*rate);
    } else if (const char* v = next("--series")) {
      const Result<std::uint64_t> n = tools::ParseUint("series", v, kMax);
      if (!n.ok()) return tools::BadFlag(n.status());
      config.series = *n;
    } else if (const char* v = next("--length")) {
      const Result<std::uint64_t> n = tools::ParseUint("length", v, kMax);
      if (!n.ok()) return tools::BadFlag(n.status());
      config.length = *n;
    } else if (const char* v = next("--seed")) {
      const Result<std::uint64_t> n = tools::ParseUint("seed", v, kMax);
      if (!n.ok()) return tools::BadFlag(n.status());
      config.seed = *n;
    }
  }

  if (quick) {
    // The reduced CI grid: one rate, two categories, a scenario subset that
    // still spans the taxonomy (point-wise, aligned blocks, multi-series
    // overlap, seasonal), on a corpus small enough for every push.
    if (scenario_names.empty()) {
      scenario_names = {"mcar", "blackout", "overlapping_blocks",
                        "seasonal_gaps"};
    }
    if (category_names.empty()) category_names = {"Power", "Climate"};
    if (config.rates.empty()) config.rates = {0.1};
    config.series = 8;
    config.length = 128;
  }

  if (scenario_names.empty()) {
    config.scenarios = ts::AllScenarios();
  } else {
    for (const std::string& name : scenario_names) {
      auto scenario = ts::FindScenario(name);
      if (!scenario.ok()) {
        std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
        return 2;
      }
      config.scenarios.push_back(std::move(*scenario));
    }
  }
  if (category_names.empty()) {
    config.categories = data::AllCategories();
  } else {
    for (const std::string& name : category_names) {
      auto category = CategoryFromName(name);
      if (!category.ok()) {
        std::fprintf(stderr, "%s\n", category.status().ToString().c_str());
        return 2;
      }
      config.categories.push_back(*category);
    }
  }

  const BenchJsonWriter writer(JsonPathFromArgs(argc, argv));
  return RunSweep(config, writer);
}

}  // namespace
}  // namespace adarts::bench

int main(int argc, char** argv) {
  adarts::ScopedTrace trace_session(adarts::TraceOptions::FromFlagOrEnv(
      adarts::bench::TracePathFromArgs(argc, argv)));
  return adarts::bench::Run(argc, argv);
}
