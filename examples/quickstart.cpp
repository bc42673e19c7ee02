// Quickstart: train an A-DARTS engine on a small corpus, then repair a new
// faulty series with the recommended imputation algorithm.
//
//   $ ./build/examples/quickstart
//   $ ./build/examples/quickstart --trace trace.json   # + profiling timeline
//
// The optional --trace flag records every engine stage (clustering, labeling,
// ModelRace fold evaluations, committee refits, per-series recommendations)
// into a Chrome trace-event JSON you can open in chrome://tracing or
// ui.perfetto.dev, or summarize with tools/trace_stats.

#include <cstdio>
#include <cstring>
#include <string>

#include "adarts/adarts.h"
#include "common/exec_context.h"
#include "common/rng.h"
#include "common/trace.h"
#include "data/generators.h"
#include "ts/metrics.h"
#include "ts/missing.h"

int main(int argc, char** argv) {
  using namespace adarts;

  std::string trace_path;  // --trace FILE, or ADARTS_TRACE when absent
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) trace_path = argv[i + 1];
  }
  const TraceOptions trace_options = TraceOptions::FromFlagOrEnv(trace_path);
  ScopedTrace trace_session(trace_options);

  // --- 1. A training corpus: complete series from a few domains. In a real
  // deployment this is your historical, gap-free sensor data.
  std::printf("Generating training corpus...\n");
  data::GeneratorOptions gen;
  gen.num_series = 16;
  gen.length = 192;
  std::vector<ts::TimeSeries> corpus;
  for (data::Category c : {data::Category::kClimate, data::Category::kPower,
                           data::Category::kMedical}) {
    for (auto& s : data::GenerateCategory(c, gen)) {
      corpus.push_back(std::move(s));
    }
  }
  std::printf("  %zu series of length %zu\n", corpus.size(), gen.length);

  // --- 2. Train: clustering -> cluster-level labeling -> feature
  // extraction -> ModelRace -> soft-voting committee. One call, one
  // ExecContext: the context owns the shared worker pool (0 = hardware
  // concurrency), carries an optional cancellation deadline, and collects
  // per-stage metrics as the run goes.
  std::printf("Training the recommendation engine (one-time step)...\n");
  TrainOptions options;
  options.race.num_seed_pipelines = 16;
  options.race.num_partial_sets = 2;
  ExecContext ctx;
  auto engine = Adarts::Train(corpus, options, ctx);
  if (!engine.ok()) {
    std::printf("training failed: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::printf("  committee of %zu winning pipelines over a pool of %zu "
              "imputation algorithms\n",
              engine->committee_size(), engine->algorithm_pool().size());

  // Where the training time went, from the run's StageMetrics snapshot.
  const StageMetrics& stages = engine->train_report().stages;
  std::printf("  stages: labeling %.2fs, features %.2fs, race %.2fs "
              "(%llu pipelines evaluated), committee %.2fs\n",
              stages.SpanSeconds("train.labeling_seconds"),
              stages.SpanSeconds("train.features_seconds"),
              stages.SpanSeconds("train.race_seconds"),
              static_cast<unsigned long long>(
                  stages.Counter("race.pipelines_evaluated")),
              stages.SpanSeconds("train.committee_seconds"));

  // --- 3. A new faulty series arrives (here: a fresh climate series with a
  // sensor outage we injected ourselves so we can score the repair).
  gen.num_series = 1;
  gen.seed = 2024;
  ts::TimeSeries faulty =
      data::GenerateCategory(data::Category::kClimate, gen)[0];
  Rng rng(7);
  if (auto st = ts::InjectSingleBlock(20, &rng, &faulty); !st.ok()) {
    std::printf("mask injection failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("\nNew faulty series: %zu values, %zu missing\n",
              faulty.length(), faulty.MissingCount());

  // --- 4. Ask for a recommendation, then repair.
  auto rec = engine->RecommendEx(faulty);
  if (!rec.ok()) {
    std::printf("recommendation failed: %s\n",
                rec.status().ToString().c_str());
    return 1;
  }
  std::printf("Recommended algorithms (best first):");
  for (std::size_t i = 0; i < 3 && i < rec->ranking.size(); ++i) {
    std::printf(" %s",
                std::string(impute::AlgorithmToString(rec->ranking[i])).c_str());
  }
  std::printf(" ...\n");

  auto repaired = engine->Repair(faulty, ctx);
  if (!repaired.ok()) {
    std::printf("repair failed: %s\n", repaired.status().ToString().c_str());
    return 1;
  }
  auto rmse = ts::ImputationRmse(faulty, *repaired);
  std::printf("Repaired: all gaps filled, RMSE vs hidden truth = %.4f\n",
              rmse.ok() ? *rmse : -1.0);

  // Latency distributions the run accumulated (p50/p99 per span family).
  const StageMetrics run_metrics = ctx.metrics().Snapshot();
  for (const auto& [name, h] : run_metrics.histograms) {
    std::printf("  %-18s count=%llu p50=%.3fms p99=%.3fms max=%.3fms\n",
                name.c_str(), static_cast<unsigned long long>(h.count),
                static_cast<double>(h.p50_ns) / 1e6,
                static_cast<double>(h.p99_ns) / 1e6,
                static_cast<double>(h.max_ns) / 1e6);
  }
  if (trace_session.active()) {
    std::printf("Trace timeline written to %s (open in ui.perfetto.dev or "
                "summarize with trace_stats)\n",
                trace_options.path.c_str());
  }
  return 0;
}
