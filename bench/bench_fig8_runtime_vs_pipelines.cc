// Fig. 8 reproduction. Part (a): wall-clock model-selection time of A-DARTS
// vs FLAML / AutoFolio / Tune as the number of seed pipelines /
// configurations grows. Part (b): A-DARTS F1 (mean +- std over seeds) vs the
// number of seed pipelines — more pipelines means better AND more stable
// recommendations, and duplicate classifier families among the winners.

#include <cstdio>
#include <map>
#include <set>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "tools/tool_args.h"

namespace adarts::bench {
namespace {

int Run(std::size_t num_threads, const std::string& json_path) {
  const BenchJsonWriter json(json_path);
  std::printf("=== Fig. 8: Recommendation Running Time vs Efficacy ===\n");
  std::printf("(ModelRace threads: %zu)\n\n",
              ThreadPool::ResolveThreadCount(num_threads));

  // One moderately hard category keeps the sweep affordable.
  ExperimentOptions opts;
  opts.variants = 3;
  opts.series_per_variant = 36;
  auto exp = BuildCategoryExperiment(data::Category::kMedical, opts);
  if (!exp.ok()) {
    std::printf("experiment failed: %s\n", exp.status().ToString().c_str());
    return 1;
  }

  const std::vector<std::size_t> sweep = {6, 12, 18, 24, 30, 36};

  std::printf("--- (a) selection + training time (seconds) ---\n");
  std::printf("%-10s %10s %10s %10s %10s\n", "#pipes", "A-DARTS", "FLAML",
              "AutoFolio", "Tune");
  PrintRule(56);
  for (std::size_t n : sweep) {
    automl::ModelRaceOptions race;
    race.num_seed_pipelines = n;
    race.num_partial_sets = 3;
    auto adarts_scores = EvaluateAdarts(*exp, race, num_threads);
    if (adarts_scores.ok()) {
      json.Record("fig8.selection_time",
                  {{"pipelines", std::to_string(n)},
                   {"threads", std::to_string(num_threads)}},
                  adarts_scores->train_seconds, adarts_scores->f1,
                  &adarts_scores->train_stages);
    }
    baselines::BaselineOptions bopts;
    bopts.num_configurations = n;
    auto flaml = baselines::CreateFlamlLite(bopts);
    auto autofolio = baselines::CreateAutoFolioLite(bopts);
    auto tune = baselines::CreateTuneLite(bopts);
    auto f = EvaluateBaseline(flaml.get(), *exp);
    auto a = EvaluateBaseline(autofolio.get(), *exp);
    auto t = EvaluateBaseline(tune.get(), *exp);
    std::printf("%-10zu %10s %10s %10s %10s\n", n,
                adarts_scores.ok() ? Fmt(adarts_scores->train_seconds, 3).c_str()
                                   : "fail",
                f.ok() ? Fmt(f->train_seconds, 3).c_str() : "fail",
                a.ok() ? Fmt(a->train_seconds, 3).c_str() : "fail",
                t.ok() ? Fmt(t->train_seconds, 3).c_str() : "fail");
  }
  std::printf("(paper shape: Tune an order of magnitude faster; A-DARTS "
              "competitive up to ~30 pipelines, then FLAML ~1.3x faster)\n\n");

  std::printf("--- (b) A-DARTS F1 vs number of seed pipelines ---\n");
  std::printf("%-10s %10s %10s %12s %14s\n", "#pipes", "mean F1", "std",
              "#winners", "dup families");
  PrintRule(60);
  for (std::size_t n : sweep) {
    std::vector<double> f1s;
    std::vector<double> secs;
    std::size_t winners = 0;
    bool duplicate_family = false;
    for (std::uint64_t seed : {11ULL, 22ULL, 33ULL, 44ULL, 55ULL}) {
      automl::ModelRaceOptions race;
      race.num_seed_pipelines = n;
      race.num_partial_sets = 3;
      race.seed = seed;
      auto scores = EvaluateAdarts(*exp, race, num_threads);
      if (scores.ok()) {
        f1s.push_back(scores->f1);
        secs.push_back(scores->train_seconds);
      }
      // Inspect the committee composition via a direct race.
      ExecContext ctx;
      auto engine = Adarts::TrainFromLabeled(exp->train, exp->pool, {}, race,
                                             seed, ctx);
      if (engine.ok()) {
        winners = std::max(winners, engine->race_report().elites.size());
        std::map<ml::ClassifierKind, int> family_count;
        for (const auto& e : engine->race_report().elites) {
          if (++family_count[e.spec.classifier] > 1) duplicate_family = true;
        }
      }
    }
    std::printf("%-10zu %10s %10s %12zu %14s\n", n, Fmt(MeanOf(f1s), 3).c_str(),
                Fmt(StdDevOf(f1s), 3).c_str(), winners,
                duplicate_family ? "yes" : "no");
    json.Record("fig8.f1_vs_pipelines", {{"pipelines", std::to_string(n)}},
                MeanOf(secs), MeanOf(f1s));
  }
  std::printf("(paper shape: F1 rises and std shrinks with more pipelines; "
              "duplicate classifier families appear among the winners)\n\n");

  std::printf("--- (c) thread scaling of one race (24 pipelines) ---\n");
  std::printf("%-10s %12s %10s\n", "threads", "seconds", "speedup");
  PrintRule(34);
  double serial_seconds = 0.0;
  for (std::size_t threads : {1, 2, 4}) {
    automl::ModelRaceOptions race;
    race.num_seed_pipelines = 24;
    race.num_partial_sets = 3;
    auto scores = EvaluateAdarts(*exp, race, threads);
    if (!scores.ok()) {
      std::printf("%-10zu %12s %10s\n", threads, "fail", "-");
      continue;
    }
    if (threads == 1) serial_seconds = scores->train_seconds;
    json.Record("fig8.thread_scaling", {{"threads", std::to_string(threads)}},
                scores->train_seconds, scores->f1, &scores->train_stages);
    std::printf("%-10zu %12s %9sx\n", threads,
                Fmt(scores->train_seconds, 3).c_str(),
                serial_seconds > 0.0
                    ? Fmt(serial_seconds / scores->train_seconds, 2).c_str()
                    : "-");
  }
  std::printf("(per-candidate fold evaluations run on the shared pool; the "
              "selected elites are identical at every thread count)\n");
  return 0;
}

}  // namespace
}  // namespace adarts::bench

int main(int argc, char** argv) {
  // --threads N (default 0 = hardware concurrency) sizes the ModelRace
  // evaluation pool for parts (a) and (b); part (c) sweeps 1/2/4 regardless.
  // --json <path> appends machine-readable records per measurement.
  // --trace <path> exports a Chrome trace-event timeline of the whole run.
  const adarts::Result<std::size_t> num_threads =
      adarts::bench::ThreadsFromArgs(argc, argv);
  if (!num_threads.ok()) return adarts::tools::BadFlag(num_threads.status());
  adarts::ScopedTrace trace_session(adarts::TraceOptions::FromFlagOrEnv(
      adarts::bench::TracePathFromArgs(argc, argv)));
  return adarts::bench::Run(*num_threads,
                            adarts::bench::JsonPathFromArgs(argc, argv));
}
