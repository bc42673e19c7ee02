#include "bench/bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "cluster/incremental.h"
#include "common/exec_context.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "labeling/labeler.h"
#include "ml/metrics.h"
#include "tools/tool_args.h"
#include "ts/missing.h"

namespace adarts::bench {

namespace {

/// Share of each category experiment's rows that trains: the paper's 65/35
/// holdout.
constexpr double kTrainFraction = 0.65;

}  // namespace

std::vector<impute::Algorithm> BenchPool() {
  // One representative per behavioural family (matrix completion, linear
  // dynamics, temporal factorization, multi-view blending, pattern
  // matching, cross-series regression, local interpolation): distinct
  // enough that each category has decisive winners.
  return {impute::Algorithm::kCdRec, impute::Algorithm::kDynaMmo,
          impute::Algorithm::kTrmf,  impute::Algorithm::kStMvl,
          impute::Algorithm::kTkcm,  impute::Algorithm::kIim,
          impute::Algorithm::kLinearInterp};
}

Result<CategoryExperiment> BuildCategoryExperiment(
    data::Category category, const ExperimentOptions& options,
    const features::FeatureExtractorOptions& feature_options) {
  CategoryExperiment experiment;
  experiment.pool = BenchPool();

  labeling::LabelingOptions lopts;
  lopts.algorithms = experiment.pool;
  lopts.missing_fraction = options.missing_fraction;
  lopts.seed = options.seed;
  // Averaging over more representatives makes near-tie cluster winners
  // decisive, which is what keeps the labels learnable.
  lopts.representatives_per_cluster = 4;

  const features::FeatureExtractor extractor(feature_options);
  ml::Dataset labeled;
  labeled.num_classes = static_cast<int>(experiment.pool.size());

  Rng rng(options.seed);
  for (std::size_t v = 0; v < options.variants; ++v) {
    data::GeneratorOptions gopts;
    gopts.num_series = options.series_per_variant;
    gopts.length = options.length;
    gopts.variant = static_cast<int>(v);
    gopts.seed = options.seed;
    const std::vector<ts::TimeSeries> corpus =
        data::GenerateCategory(category, gopts);

    lopts.seed = options.seed + v * 131;
    // Labels are produced the way the paper produces its training data:
    // cluster the variant's series and label whole clusters at once via
    // their representatives (Section VI). Cluster-level labels are the
    // ground truth of the efficacy experiments.
    cluster::IncrementalOptions copts;
    copts.correlation_threshold = 0.8;
    copts.seed = options.seed + v;
    ExecContext ctx;
    ADARTS_ASSIGN_OR_RETURN(cluster::Clustering clustering,
                            cluster::IncrementalClustering(corpus, copts, ctx));
    ADARTS_ASSIGN_OR_RETURN(
        labeling::LabelingResult labels,
        labeling::LabelByClusters(corpus, clustering, lopts, ctx));
    // Features come from masked copies: inference-time series are faulty.
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      ts::TimeSeries masked = corpus[i];
      ADARTS_RETURN_NOT_OK(ts::InjectPattern(ts::MissingPattern::kSingleBlock,
                                             options.missing_fraction, &rng,
                                             &masked));
      ADARTS_ASSIGN_OR_RETURN(la::Vector f, extractor.Extract(masked));
      labeled.features.push_back(std::move(f));
      labeled.labels.push_back(labels.labels[i]);
    }
  }

  ADARTS_ASSIGN_OR_RETURN(
      ml::TrainTestSplit split,
      ml::StratifiedSplit(labeled, kTrainFraction, &rng));
  experiment.train = std::move(split.train);
  experiment.test = std::move(split.test);
  return experiment;
}

namespace {

Result<SystemScores> ScoreProbas(const ml::Dataset& test,
                                 const std::vector<la::Vector>& probas,
                                 bool has_mrr, double train_seconds) {
  std::vector<int> preds(test.size());
  for (std::size_t i = 0; i < test.size(); ++i) {
    preds[i] = static_cast<int>(
        std::max_element(probas[i].begin(), probas[i].end()) -
        probas[i].begin());
  }
  ADARTS_ASSIGN_OR_RETURN(
      ml::ClassificationReport report,
      ml::ComputeClassificationReport(test.labels, preds, test.num_classes));
  SystemScores scores;
  scores.accuracy = report.accuracy;
  scores.precision = report.precision;
  scores.recall = report.recall;
  scores.f1 = report.f1;
  scores.train_seconds = train_seconds;
  scores.has_mrr = has_mrr;
  if (has_mrr) {
    ADARTS_ASSIGN_OR_RETURN(scores.mrr,
                            ml::MeanReciprocalRank(test.labels, probas));
  }
  return scores;
}

}  // namespace

Result<SystemScores> EvaluateAdarts(const CategoryExperiment& experiment,
                                    const automl::ModelRaceOptions& race,
                                    std::size_t num_threads) {
  Stopwatch watch;
  ExecContext ctx(num_threads);
  ADARTS_ASSIGN_OR_RETURN(
      Adarts engine,
      Adarts::TrainFromLabeled(experiment.train, experiment.pool, {}, race,
                               race.seed, ctx));
  const double train_seconds = watch.ElapsedSeconds();
  std::vector<la::Vector> probas;
  probas.reserve(experiment.test.size());
  for (const auto& f : experiment.test.features) {
    probas.push_back(engine.PredictProba(f));
  }
  ADARTS_ASSIGN_OR_RETURN(
      SystemScores scores,
      ScoreProbas(experiment.test, probas, /*has_mrr=*/true, train_seconds));
  scores.train_stages = engine.train_report().stages;
  return scores;
}

Result<SystemScores> EvaluateAdartsAveraged(
    const CategoryExperiment& experiment, const automl::ModelRaceOptions& race,
    int repeats, std::size_t num_threads) {
  SystemScores mean;
  int runs = 0;
  for (int r = 0; r < repeats; ++r) {
    automl::ModelRaceOptions seeded = race;
    seeded.seed = race.seed + static_cast<std::uint64_t>(r) * 1013;
    auto scores = EvaluateAdarts(experiment, seeded, num_threads);
    if (!scores.ok()) continue;
    mean.accuracy += scores->accuracy;
    mean.precision += scores->precision;
    mean.recall += scores->recall;
    mean.f1 += scores->f1;
    mean.mrr += scores->mrr;
    mean.train_seconds += scores->train_seconds;
    mean.train_stages = std::move(scores->train_stages);
    ++runs;
  }
  if (runs == 0) return Status::Internal("every A-DARTS run failed");
  const double n = static_cast<double>(runs);
  mean.accuracy /= n;
  mean.precision /= n;
  mean.recall /= n;
  mean.f1 /= n;
  mean.mrr /= n;
  mean.train_seconds /= n;
  mean.has_mrr = true;
  return mean;
}

Result<SystemScores> EvaluateBaseline(baselines::ModelSelector* selector,
                                      const CategoryExperiment& experiment) {
  Stopwatch watch;
  ADARTS_RETURN_NOT_OK(selector->Train(experiment.train));
  const double train_seconds = watch.ElapsedSeconds();
  std::vector<la::Vector> probas;
  probas.reserve(experiment.test.size());
  for (const auto& f : experiment.test.features) {
    probas.push_back(selector->PredictProba(f));
  }
  return ScoreProbas(experiment.test, probas, selector->SupportsRanking(),
                     train_seconds);
}

double MeanOf(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double StdDevOf(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = MeanOf(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(v.size() - 1));
}

void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

std::string Fmt(double v, int precision) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void BenchJsonWriter::Record(
    const std::string& bench,
    const std::vector<std::pair<std::string, std::string>>& params,
    double seconds, double checksum, const StageMetrics* stages,
    const std::vector<std::pair<std::string, double>>& metrics) const {
  if (path_.empty()) return;
  std::string line = "{\"bench\":\"" + json::Escape(bench) + "\",\"params\":{";
  bool first = true;
  for (const auto& [key, value] : params) {
    if (!first) line += ',';
    first = false;
    line += '"';
    line += json::Escape(key);
    line += "\":\"";
    line += json::Escape(value);
    line += '"';
  }
  line += "},\"seconds\":" + Fmt(seconds, 6) +
          ",\"checksum\":" + Fmt(checksum, 6);
  if (!metrics.empty()) {
    line += ",\"metrics\":{";
    first = true;
    for (const auto& [key, value] : metrics) {
      if (!first) line += ',';
      first = false;
      line += '"';
      line += json::Escape(key);
      line += "\":";
      line += Fmt(value, 6);
    }
    line += "}";
  }
  if (stages != nullptr && !stages->empty()) {
    line += ",\"stages\":" + stages->ToJson();
  }
  line += "}\n";
  std::FILE* f = std::fopen(path_.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "bench json: cannot open %s for append\n",
                 path_.c_str());
    return;
  }
  std::fputs(line.c_str(), f);
  std::fclose(f);
}

std::string JsonPathFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      return argv[i + 1];
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      return argv[i] + 7;
    }
  }
  return "";
}

Result<std::size_t> ThreadsFromArgs(int argc, char** argv) {
  constexpr std::uint64_t kMaxThreads = 1024;
  std::size_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      value = argv[++i];
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      value = argv[i] + 10;
    }
    if (value == nullptr) continue;
    ADARTS_ASSIGN_OR_RETURN(threads,
                            tools::ParseUint("threads", value, kMaxThreads));
  }
  return threads;
}

std::string TracePathFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      return argv[i + 1];
    }
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      return argv[i] + 8;
    }
  }
  return "";
}

}  // namespace adarts::bench
