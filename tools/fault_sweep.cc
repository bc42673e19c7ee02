// Fault-sweep driver for the CI fault-injection job (DESIGN.md §7).
//
// Runs the full engine surface — train, recommend, batch-recommend, repair,
// save/load, CSV I/O, every imputer — with whatever failpoints the
// ADARTS_FAILPOINTS environment variable armed (none is fine too), and
// exits 0 as long as every operation either succeeds with a valid result or
// fails with a clean Status. The process crashing, hanging, or tripping a
// sanitizer is the only failure mode; CI loops this binary over
// seeded-random failpoint combinations.
//
//   ADARTS_FAILPOINTS="impute.svd.fit;la.svd=numerical@2" ./fault_sweep
//
// Prints one line per operation so a failing CI iteration is diagnosable
// from the log alone.

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "adarts/adarts.h"
#include "common/exec_context.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/trace.h"
#include "data/generators.h"
#include "impute/imputer.h"
#include "io/csv.h"
#include "ts/missing.h"

namespace {

using adarts::Status;

void Report(const char* op, const Status& status) {
  std::printf("%-24s %s\n", op,
              status.ok() ? "ok" : status.ToString().c_str());
}

// A result is "valid" when the repaired series have no remaining gaps; a
// degraded-but-valid outcome still satisfies the sweep.
bool FullyRepaired(const std::vector<adarts::ts::TimeSeries>& set) {
  for (const auto& s : set) {
    if (s.HasMissing()) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--list-sites") {
    // One site per line, for the CI job to sample from (no hardcoded list
    // to drift out of date).
    for (std::string_view site : adarts::AllFailpointSites()) {
      std::printf("%.*s\n", static_cast<int>(site.size()), site.data());
    }
    return 0;
  }
  // --trace FILE (or ADARTS_TRACE) exports a Chrome trace-event timeline of
  // the sweep; the fault-injection spans land next to the warnings they
  // trigger.
  std::string trace_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--trace") trace_path = argv[i + 1];
  }
  adarts::ScopedTrace trace_session(
      adarts::TraceOptions::FromFlagOrEnv(trace_path));

  const auto armed = adarts::FailpointRegistry::Instance().ArmedSites();
  std::printf("armed failpoints: %zu\n", armed.size());
  for (const auto& site : armed) std::printf("  %s\n", site.c_str());

  adarts::data::GeneratorOptions gopts;
  gopts.num_series = 12;
  gopts.length = 160;
  std::vector<adarts::ts::TimeSeries> corpus;
  for (adarts::data::Category c :
       {adarts::data::Category::kClimate, adarts::data::Category::kMotion,
        adarts::data::Category::kMedical}) {
    for (auto& s : adarts::data::GenerateCategory(c, gopts)) {
      corpus.push_back(std::move(s));
    }
  }

  gopts.num_series = 3;
  gopts.seed = 33;
  auto faulty =
      adarts::data::GenerateCategory(adarts::data::Category::kClimate, gopts);
  adarts::Rng rng(34);
  for (auto& s : faulty) {
    Status injected = adarts::ts::InjectSingleBlock(12, &rng, &s);
    if (!injected.ok()) Report("inject", injected);
  }

  adarts::TrainOptions options;
  options.labeling.algorithms = {
      adarts::impute::Algorithm::kCdRec, adarts::impute::Algorithm::kSvdImpute,
      adarts::impute::Algorithm::kTkcm,
      adarts::impute::Algorithm::kLinearInterp,
      adarts::impute::Algorithm::kMeanImpute};
  options.race.num_seed_pipelines = 12;
  options.race.num_partial_sets = 2;
  options.race.num_folds = 2;
  options.features.landmarks = 16;

  // One ExecContext for the whole sweep: every operation records its stage
  // spans and vote/fit counters here, and the dump at the end shows what the
  // armed failpoints actually did to the run (degraded votes, fallbacks,
  // non-converged fits) beyond the per-operation ok/error lines.
  adarts::ExecContext ctx;

  auto engine = adarts::Adarts::Train(corpus, options, ctx);
  Report("train", engine.status());

  if (engine.ok()) {
    auto rec = engine->Recommend(faulty[0], ctx);
    Report("recommend", rec.status());

    auto batch = engine->RecommendBatch(faulty, {}, ctx);
    Report("recommend_batch", batch.status());

    adarts::RecommendBatchOptions degraded;
    degraded.fail_fast = false;
    auto soft = engine->RecommendBatch(faulty, degraded, ctx);
    Report("recommend_degraded", soft.status());
    if (soft.ok() && soft->size() != faulty.size()) {
      std::fprintf(stderr, "degraded batch lost series\n");
      return 1;
    }

    auto repaired = engine->Repair(faulty[0], ctx);
    Report("repair", repaired.status());
    if (repaired.ok() && repaired->HasMissing()) {
      std::fprintf(stderr, "repair left gaps behind\n");
      return 1;
    }

    auto repaired_set = engine->RepairSet(faulty, degraded, ctx);
    Report("repair_set", repaired_set.status());
    if (repaired_set.ok() && !FullyRepaired(*repaired_set)) {
      std::fprintf(stderr, "repair_set left gaps behind\n");
      return 1;
    }

    const std::string bundle = "/tmp/adarts_fault_sweep_bundle.txt";
    Status saved = engine->Save(bundle);
    Report("save", saved);
    if (saved.ok()) {
      auto loaded = adarts::Adarts::Load(bundle);
      Report("load", loaded.status());
    }
  }

  const std::string csv = "/tmp/adarts_fault_sweep_series.csv";
  Status wrote = adarts::io::WriteSeriesCsv(csv, faulty);
  Report("csv_write", wrote);
  if (wrote.ok()) {
    auto read = adarts::io::ReadSeriesCsv(csv);
    Report("csv_read", read.status());
  }

  for (adarts::impute::Algorithm a : adarts::impute::AllAlgorithms()) {
    adarts::impute::FitDiagnostics diag;
    auto out = adarts::impute::CreateImputer(a)->ImputeSetWithDiagnostics(
        faulty, &diag);
    // The direct-fit battery feeds the same registry: per-family iteration
    // counts and convergence failures show up in the dump below.
    ctx.metrics().Increment("sweep.impute_runs");
    if (!out.ok()) ctx.metrics().Increment("sweep.impute_errors");
    if (diag.iterations > 0) {
      ctx.metrics().Increment("sweep.impute_iterations",
                              static_cast<std::uint64_t>(diag.iterations));
    }
    if (out.ok() && !diag.converged) {
      ctx.metrics().Increment("sweep.impute_not_converged");
    }
    std::printf("impute %-12s %s%s\n",
                std::string(adarts::impute::AlgorithmToString(a)).c_str(),
                out.ok() ? "ok" : out.status().ToString().c_str(),
                out.ok() && !diag.converged ? " (not converged)" : "");
    if (out.ok() && !FullyRepaired(*out)) {
      std::fprintf(stderr, "imputer left gaps behind\n");
      return 1;
    }
  }

  // Everything the context saw, one name=value line per metric: stage spans
  // (train.*_seconds), vote health (vote.members_failed,
  // recommend.degraded), repair fallbacks and fit convergence.
  std::printf("--- metrics ---\n%s",
              ctx.metrics().Snapshot().ToString().c_str());

  std::printf("sweep done\n");
  return 0;
}
