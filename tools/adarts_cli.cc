// adarts_cli — command-line front end to the A-DARTS library.
//
//   adarts_cli generate  --category Power --series 20 --length 192
//                        --seed 1 --out corpus.csv
//   adarts_cli inject    --input corpus.csv --fraction 0.1
//                        --pattern single_block --seed 2 --out faulty.csv
//   adarts_cli label     --corpus corpus.csv
//   adarts_cli recommend --corpus corpus.csv --faulty faulty.csv
//   adarts_cli repair    --corpus corpus.csv --faulty faulty.csv
//                        --out repaired.csv
//
// `--corpus` supplies complete historical series to train the engine on;
// `--faulty` contains the series to diagnose/repair (empty cells = missing).

#include <cstdio>
#include <string>
#include <vector>

#include "adarts/adarts.h"
#include "cluster/incremental.h"
#include "common/rng.h"
#include "common/trace.h"
#include "data/generators.h"
#include "io/csv.h"
#include "labeling/labeler.h"
#include "tools/tool_args.h"
#include "ts/missing.h"

namespace adarts::cli {
namespace {

using tools::Args;
using tools::Fail;

int Usage() {
  std::fprintf(stderr,
               "usage: adarts_cli <generate|inject|label|train|append|info|"
               "recommend|repair> [--key value]...\n"
               "  generate  --category <Power|Water|Motion|Climate|Lightning|"
               "Medical>\n"
               "            [--series N] [--length N] [--variant N] "
               "[--seed N] --out FILE\n"
               "  inject    --input FILE [--fraction F] [--pattern "
               "single_block|multi_block|blackout|tip_of_series]\n"
               "            [--seed N] --out FILE\n"
               "  label     --corpus FILE\n"
               "  train     --corpus FILE --model FILE [--engine-version N]\n"
               "  append    --model FILE --delta FILE [--seed N] [--cold 1]\n"
               "            (incrementally grows the snapshot in place and\n"
               "             bumps engine_version — follow with kill -HUP on\n"
               "             adarts_serve for a zero-downtime rollout)\n"
               "  info      --model FILE\n"
               "  recommend (--corpus FILE | --model FILE) --faulty FILE\n"
               "  repair    (--corpus FILE | --model FILE) --faulty FILE --out FILE\n"
               "  any subcommand also accepts --trace FILE to export a Chrome\n"
               "  trace-event JSON timeline of the run (see tools/trace_stats)\n");
  return 2;
}

Result<data::Category> ParseCategory(const std::string& name) {
  for (data::Category c : data::AllCategories()) {
    if (data::CategoryToString(c) == name) return c;
  }
  return Status::NotFound("unknown category: " + name);
}

/// The numeric flags. Main parses and range-checks every one of them before
/// the subcommand runs, so a malformed value is a usage error (exit 2) that
/// never reaches a model load or a training run.
struct Numbers {
  std::size_t series = 20;
  std::size_t length = 192;
  int variant = 0;
  double fraction = 0.1;
  std::uint64_t seed = 17;
  std::uint64_t engine_version = 0;
};

Result<Numbers> ParseNumbers(const Args& args, const std::string& command) {
  Numbers n;
  // generate and inject keep their own default seeds.
  if (command == "generate") n.seed = 1;
  if (command == "inject") n.seed = 2;
  ADARTS_RETURN_NOT_OK(tools::FirstError({
      args.GetUint("series", &n.series),
      args.GetUint("length", &n.length),
      args.GetUint("variant", &n.variant),
      args.GetDouble("fraction", &n.fraction),
      args.GetUint("seed", &n.seed),
      args.GetUint("engine-version", &n.engine_version),
  }));
  return n;
}

Result<ts::MissingPattern> ParsePattern(const std::string& name) {
  for (ts::MissingPattern p :
       {ts::MissingPattern::kSingleBlock, ts::MissingPattern::kMultiBlock,
        ts::MissingPattern::kBlackout, ts::MissingPattern::kTipOfSeries}) {
    if (ts::MissingPatternToString(p) == name) return p;
  }
  return Status::NotFound("unknown pattern: " + name);
}

int CmdGenerate(const Args& args, const Numbers& n) {
  auto category = ParseCategory(args.Get("category", "Power"));
  if (!category.ok()) return Fail(category.status());
  data::GeneratorOptions opts;
  opts.num_series = n.series;
  opts.length = n.length;
  opts.variant = n.variant;
  opts.seed = n.seed;
  const std::string out = args.Get("out");
  if (out.empty()) return Usage();
  const auto series = data::GenerateCategory(*category, opts);
  if (auto st = io::WriteSeriesCsv(out, series); !st.ok()) return Fail(st);
  std::printf("wrote %zu series of length %zu to %s\n", series.size(),
              opts.length, out.c_str());
  return 0;
}

int CmdInject(const Args& args, const Numbers& n) {
  auto set = io::ReadSeriesCsv(args.Get("input"));
  if (!set.ok()) return Fail(set.status());
  auto pattern = ParsePattern(args.Get("pattern", "single_block"));
  if (!pattern.ok()) return Fail(pattern.status());
  Rng rng(n.seed);
  for (auto& s : *set) {
    if (auto st = ts::InjectPattern(*pattern, n.fraction, &rng, &s);
        !st.ok()) {
      return Fail(st);
    }
  }
  const std::string out = args.Get("out");
  if (out.empty()) return Usage();
  if (auto st = io::WriteSeriesCsv(out, *set); !st.ok()) return Fail(st);
  std::size_t missing = 0, total = 0;
  for (const auto& s : *set) {
    missing += s.MissingCount();
    total += s.length();
  }
  std::printf("masked %zu of %zu values (%.1f%%) -> %s\n", missing, total,
              100.0 * missing / total, out.c_str());
  return 0;
}

int CmdLabel(const Args& args) {
  auto corpus = io::ReadSeriesCsv(args.Get("corpus"));
  if (!corpus.ok()) return Fail(corpus.status());
  ExecContext ctx;
  auto clustering = cluster::IncrementalClustering(*corpus, {}, ctx);
  if (!clustering.ok()) return Fail(clustering.status());
  auto labels = labeling::LabelByClusters(*corpus, *clustering, {}, ctx);
  if (!labels.ok()) return Fail(labels.status());
  std::printf("%zu series -> %zu clusters, %zu imputation runs\n",
              corpus->size(), clustering->NumClusters(),
              labels->imputation_runs);
  for (std::size_t c = 0; c < clustering->clusters.size(); ++c) {
    const auto& members = clustering->clusters[c];
    if (members.empty()) continue;
    const int label = labels->labels[members[0]];
    std::printf("  cluster %zu (%zu series): %s\n", c, members.size(),
                std::string(impute::AlgorithmToString(
                                labels->algorithms[static_cast<std::size_t>(
                                    label)]))
                    .c_str());
  }
  return 0;
}

/// Obtains an engine: from a saved bundle when --model FILE exists, else by
/// training on --corpus FILE (and saving to --model if given).
Result<Adarts> ObtainEngine(const Args& args, const Numbers& n) {
  const std::string model = args.Get("model");
  if (!model.empty()) {
    auto loaded = Adarts::Load(model);
    if (loaded.ok()) return loaded;
    if (args.Get("corpus").empty()) return loaded;  // nothing to train on
  }
  ADARTS_ASSIGN_OR_RETURN(std::vector<ts::TimeSeries> corpus,
                          io::ReadSeriesCsv(args.Get("corpus")));
  TrainOptions options;
  options.seed = n.seed;
  ExecContext ctx;
  ADARTS_ASSIGN_OR_RETURN(Adarts engine, Adarts::Train(corpus, options, ctx));
  // --engine-version stamps the snapshot for hot-swap publishing: a serving
  // daemon's registry only accepts monotonically non-decreasing versions.
  if (args.Has("engine-version")) engine.set_engine_version(n.engine_version);
  if (!model.empty()) {
    ADARTS_RETURN_NOT_OK(engine.Save(model));
  }
  return engine;
}

int CmdTrain(const Args& args, const Numbers& n) {
  const std::string model = args.Get("model");
  if (model.empty() || args.Get("corpus").empty()) return Usage();
  // train always retrains: discard any stale bundle at the target path so
  // ObtainEngine cannot short-circuit by loading it.
  std::remove(model.c_str());
  auto engine = ObtainEngine(args, n);
  if (!engine.ok()) return Fail(engine.status());
  std::printf("trained committee of %zu pipelines over %zu algorithms; "
              "saved to %s\n",
              engine->committee_size(), engine->algorithm_pool().size(),
              model.c_str());
  for (const auto& member : engine->committee()) {
    std::printf("  %s\n", member.spec.ToString().c_str());
  }
  return 0;
}

int CmdAppend(const Args& args, const Numbers& n) {
  const std::string model = args.Get("model");
  const std::string delta_path = args.Get("delta");
  if (model.empty() || delta_path.empty()) return Usage();
  auto engine = Adarts::Load(model);
  if (!engine.ok()) return Fail(engine.status());
  auto delta = io::ReadSeriesCsv(delta_path);
  if (!delta.ok()) return Fail(delta.status());
  UpdateOptions options;
  options.seed = n.seed;
  options.warm_start = args.Get("cold", "0") == "0";
  ExecContext ctx;
  if (auto st = engine->AppendSeries(*delta, options, ctx); !st.ok()) {
    return Fail(st);
  }
  // AppendSeries bumped engine_version, so the save below publishes a
  // strictly newer snapshot: a SIGHUP'd adarts_serve accepts the swap.
  const std::string out = args.Get("out", model);
  if (auto st = engine->Save(out); !st.ok()) return Fail(st);
  const auto& counters = engine->train_report().stages.counters;
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = counters.find(name);
    return it != counters.end() ? it->second : 0;
  };
  std::printf("appended %zu series (%llu assigned, %llu split into new "
              "clusters, %llu warm elites survived); corpus now %zu series "
              "in %zu clusters\n",
              delta->size(),
              static_cast<unsigned long long>(counter("update.assigned")),
              static_cast<unsigned long long>(counter("update.splits")),
              static_cast<unsigned long long>(
                  counter("update.race_warm_hits")),
              engine->training_data().size(),
              engine->growth_state().clusters.size());
  std::printf("saved engine v%llu to %s\n",
              static_cast<unsigned long long>(engine->engine_version()),
              out.c_str());
  return 0;
}

int CmdInfo(const Args& args) {
  const std::string model = args.Get("model");
  if (model.empty()) return Usage();
  // The header answers the cheap questions (version, creation time) without
  // refitting the committee; the full Load supplies the corpus/cluster view.
  auto header = ReadSnapshotHeader(model);
  if (!header.ok()) return Fail(header.status());
  auto engine = Adarts::Load(model);
  if (!engine.ok()) return Fail(engine.status());
  std::printf("snapshot:              %s\n", model.c_str());
  std::printf("format_version:        %u\n", header->format_version);
  std::printf("engine_version:        %llu\n",
              static_cast<unsigned long long>(header->engine_version));
  std::printf("snapshot_created_unix: %llu\n",
              static_cast<unsigned long long>(header->created_unix));
  std::printf("payload_bytes:         %llu\n",
              static_cast<unsigned long long>(header->payload_bytes));
  std::printf("corpus_series:         %zu\n", engine->training_data().size());
  if (engine->has_growth_state()) {
    std::printf("clusters:              %zu\n",
                engine->growth_state().clusters.size());
    std::printf("warm_start_elites:     %zu\n",
                engine->growth_state().warm_start.elites.size());
  } else {
    std::printf("clusters:              n/a (no growth state; append "
                "unsupported)\n");
  }
  std::printf("committee_size:        %zu\n", engine->committee_size());
  std::printf("algorithm_pool:       ");
  for (const auto algo : engine->algorithm_pool()) {
    std::printf(" %s", std::string(impute::AlgorithmToString(algo)).c_str());
  }
  std::printf("\n");
  return 0;
}

int CmdRecommend(const Args& args, const Numbers& n) {
  auto engine = ObtainEngine(args, n);
  if (!engine.ok()) return Fail(engine.status());
  auto faulty = io::ReadSeriesCsv(args.Get("faulty"));
  if (!faulty.ok()) return Fail(faulty.status());
  for (const auto& s : *faulty) {
    auto rec = engine->RecommendEx(s);
    if (!rec.ok()) return Fail(rec.status());
    std::printf("%s (%zu missing):", s.name().c_str(), s.MissingCount());
    for (std::size_t i = 0; i < 3 && i < rec->ranking.size(); ++i) {
      std::printf(
          " %s",
          std::string(impute::AlgorithmToString(rec->ranking[i])).c_str());
    }
    std::printf("\n");
  }
  return 0;
}

int CmdRepair(const Args& args, const Numbers& n) {
  auto engine = ObtainEngine(args, n);
  if (!engine.ok()) return Fail(engine.status());
  auto faulty = io::ReadSeriesCsv(args.Get("faulty"));
  if (!faulty.ok()) return Fail(faulty.status());
  ExecContext ctx;
  auto repaired = engine->RepairSet(*faulty, {}, ctx);
  if (!repaired.ok()) return Fail(repaired.status());
  const std::string out = args.Get("out");
  if (out.empty()) return Usage();
  if (auto st = io::WriteSeriesCsv(out, *repaired); !st.ok()) return Fail(st);
  std::printf("repaired %zu series -> %s\n", repaired->size(), out.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Result<Args> parsed = Args::Parse(argc, argv, 2);
  if (!parsed.ok()) return tools::BadFlag(parsed.status());
  const Args& args = *parsed;
  const Result<Numbers> numbers = ParseNumbers(args, command);
  if (!numbers.ok()) return tools::BadFlag(numbers.status());
  const Numbers& n = *numbers;
  // --trace FILE (or ADARTS_TRACE) arms the global tracer for the whole
  // command; the JSON is exported when `session` leaves scope, after the
  // subcommand returns.
  ScopedTrace session(TraceOptions::FromFlagOrEnv(args.Get("trace")));
  if (command == "generate") return CmdGenerate(args, n);
  if (command == "inject") return CmdInject(args, n);
  if (command == "label") return CmdLabel(args);
  if (command == "train") return CmdTrain(args, n);
  if (command == "append") return CmdAppend(args, n);
  if (command == "info") return CmdInfo(args);
  if (command == "recommend") return CmdRecommend(args, n);
  if (command == "repair") return CmdRepair(args, n);
  return Usage();
}

}  // namespace
}  // namespace adarts::cli

int main(int argc, char** argv) { return adarts::cli::Main(argc, argv); }
