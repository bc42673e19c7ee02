// Ablation bench for the design choices DESIGN.md calls out beyond the
// paper's own figures:
//   (a) soft-voting committee vs the single best pipeline (top-1),
//   (b) ModelRace's two pruning phases vs no pruning (runtime + F1),
//   (c) cluster labeling vs exhaustive per-series labeling (label quality
//       proxy + imputation-run cost).

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "cluster/incremental.h"
#include "common/stopwatch.h"
#include "labeling/labeler.h"
#include "ml/metrics.h"

namespace adarts::bench {
namespace {

double CommitteeF1(const std::vector<automl::TrainedPipeline*>& committee,
                   const ml::Dataset& test) {
  std::vector<int> preds;
  preds.reserve(test.size());
  for (const auto& f : test.features) {
    la::Vector acc(static_cast<std::size_t>(test.num_classes), 0.0);
    for (const auto* member : committee) {
      const la::Vector p = member->PredictProba(f);
      for (std::size_t c = 0; c < acc.size(); ++c) acc[c] += p[c];
    }
    preds.push_back(static_cast<int>(
        std::max_element(acc.begin(), acc.end()) - acc.begin()));
  }
  auto report =
      ml::ComputeClassificationReport(test.labels, preds, test.num_classes);
  return report.ok() ? report->f1 : 0.0;
}

int Run() {
  std::printf("=== Ablations: voting, pruning, cluster labeling ===\n\n");

  // ---------- (a) committee voting vs top-1 pipeline.
  std::printf("--- (a) soft voting vs single best pipeline (F1) ---\n");
  std::printf("%-10s %10s %10s %12s\n", "Category", "top-1", "committee",
              "#members");
  PrintRule(46);
  double vote_total = 0.0, top1_total = 0.0;
  int categories = 0;
  for (data::Category c : data::AllCategories()) {
    ExperimentOptions opts;
    opts.variants = 3;
    opts.series_per_variant = 30;
    auto exp = BuildCategoryExperiment(c, opts);
    if (!exp.ok()) continue;
    double vote_f1 = 0.0, top1_f1 = 0.0;
    std::size_t members = 0;
    int runs = 0;
    for (std::uint64_t seed : {7ULL, 21ULL, 77ULL}) {
      automl::ModelRaceOptions race;
      race.num_seed_pipelines = 36;
      race.seed = seed;
      ExecContext ctx;
      auto engine = Adarts::TrainFromLabeled(exp->train, exp->pool, {}, race,
                                             seed, ctx);
      if (!engine.ok()) continue;
      // The engine's committee is already fitted; evaluate it directly and
      // against its first (best mean score) member alone.
      std::vector<automl::TrainedPipeline*> committee;
      for (const auto& member : engine->committee()) {
        committee.push_back(const_cast<automl::TrainedPipeline*>(&member));
      }
      if (committee.empty()) continue;
      vote_f1 += CommitteeF1(committee, exp->test);
      top1_f1 += CommitteeF1({committee[0]}, exp->test);
      members = std::max(members, committee.size());
      ++runs;
    }
    if (runs == 0) continue;
    vote_f1 /= runs;
    top1_f1 /= runs;
    vote_total += vote_f1;
    top1_total += top1_f1;
    ++categories;
    std::printf("%-10s %10s %10s %12zu\n",
                std::string(data::CategoryToString(c)).c_str(),
                Fmt(top1_f1, 3).c_str(), Fmt(vote_f1, 3).c_str(), members);
  }
  PrintRule(46);
  if (categories > 0) {
    std::printf("mean: top-1 %s vs committee %s\n\n",
                Fmt(top1_total / categories, 3).c_str(),
                Fmt(vote_total / categories, 3).c_str());
  }

  // ---------- (b) pruning on/off: evaluations and wall time.
  std::printf("--- (b) pruning phases: race cost ---\n");
  {
    ExperimentOptions opts;
    opts.variants = 3;
    opts.series_per_variant = 30;
    auto exp = BuildCategoryExperiment(data::Category::kPower, opts);
    if (exp.ok()) {
      struct Mode {
        const char* name;
        double margin;
        double worse_p;
        double similar_p;
      };
      const Mode modes[] = {
          {"both prunes (default)", 0.15, 0.05, 0.4},
          {"t-test only", 1e9, 0.05, 0.4},
          {"early-term only", 0.15, 0.0, 1.1},
          {"no pruning", 1e9, 0.0, 1.1},
      };
      std::printf("%-24s %8s %10s %12s %8s\n", "Mode", "F1", "evals",
                  "pruned", "time(s)");
      PrintRule(68);
      for (const Mode& mode : modes) {
        automl::ModelRaceOptions race;
        race.num_seed_pipelines = 36;
        race.early_termination_margin = mode.margin;
        race.ttest_worse_pvalue = mode.worse_p;
        race.ttest_similarity_pvalue = mode.similar_p;
        Stopwatch watch;
        auto scores = EvaluateAdarts(*exp, race);
        const double seconds = watch.ElapsedSeconds();
        ExecContext ctx;
        auto engine = Adarts::TrainFromLabeled(exp->train, exp->pool, {}, race,
                                               race.seed, ctx);
        std::size_t evals = 0, pruned = 0;
        if (engine.ok()) {
          evals = engine->race_report().pipelines_evaluated;
          pruned = engine->race_report().pipelines_pruned_early +
                   engine->race_report().pipelines_pruned_ttest;
        }
        std::printf("%-24s %8s %10zu %12zu %8s\n", mode.name,
                    scores.ok() ? Fmt(scores->f1, 3).c_str() : "fail", evals,
                    pruned, Fmt(seconds, 2).c_str());
      }
      std::printf("(pruning should cut evaluations substantially at equal or "
                  "better F1)\n\n");
    }
  }

  // ---------- (c) cluster labeling vs exhaustive labeling.
  std::printf("--- (c) cluster labeling vs per-series labeling ---\n");
  std::printf("(regret = how much worse the cluster-assigned algorithm's "
              "RMSE is than the per-series best; median over series)\n");
  std::printf("%-10s %16s %16s %14s\n", "Category", "cluster runs",
              "naive runs", "median regret");
  PrintRule(60);
  for (data::Category c : data::AllCategories()) {
    data::GeneratorOptions gopts;
    gopts.num_series = 30;
    gopts.length = 192;
    const auto corpus = data::GenerateCategory(c, gopts);
    labeling::LabelingOptions lopts;
    lopts.algorithms = BenchPool();
    lopts.representatives_per_cluster = 4;
    ExecContext ctx;
    auto clustering = cluster::IncrementalClustering(corpus, {}, ctx);
    if (!clustering.ok()) continue;
    auto fast = labeling::LabelByClusters(corpus, *clustering, lopts, ctx);
    auto full = labeling::LabelSeriesFull(corpus, lopts, ctx);
    if (!fast.ok() || !full.ok()) continue;
    // Near-tie algorithms make raw label agreement meaningless; the honest
    // quality measure is the RMSE regret of the propagated label relative
    // to each series' true best (from the exhaustive pass's RMSE matrix).
    std::vector<double> regrets;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const auto chosen = static_cast<std::size_t>(fast->labels[i]);
      const auto best = static_cast<std::size_t>(full->labels[i]);
      const double best_rmse = full->rmse(i, best);
      const double chosen_rmse = full->rmse(i, chosen);
      if (best_rmse > 0.0 && std::isfinite(chosen_rmse)) {
        regrets.push_back((chosen_rmse - best_rmse) / best_rmse);
      }
    }
    // Median regret: a single series with a near-zero best RMSE would blow
    // up a mean of ratios.
    double median_regret = 0.0;
    if (!regrets.empty()) {
      std::nth_element(regrets.begin(),
                       regrets.begin() +
                           static_cast<std::ptrdiff_t>(regrets.size() / 2),
                       regrets.end());
      median_regret = regrets[regrets.size() / 2];
    }
    // The naive alternative the paper argues against benchmarks every
    // series individually: |series| * |pool| runs.
    std::printf("%-10s %16zu %16zu %13.0f%%\n",
                std::string(data::CategoryToString(c)).c_str(),
                fast->imputation_runs, corpus.size() * lopts.algorithms.size(),
                100.0 * median_regret);
  }
  std::printf("(cluster labeling should stay within a small regret of the "
              "per-series best at a fraction of the bench runs)\n");
  return 0;
}

}  // namespace
}  // namespace adarts::bench

int main() { return adarts::bench::Run(); }
