#ifndef ADARTS_BENCH_BENCH_UTIL_H_
#define ADARTS_BENCH_BENCH_UTIL_H_

#include <string>
#include <utility>
#include <vector>

#include "adarts/adarts.h"
#include "baselines/baselines.h"
#include "common/metrics.h"
#include "data/generators.h"
#include "ml/dataset.h"

namespace adarts::bench {

/// The default algorithm pool used by the paper-reproduction benches: a
/// diverse subset of the registry (matrix-completion, pattern, regression
/// and smoothing families all represented) so that different categories
/// genuinely have different winners.
std::vector<impute::Algorithm> BenchPool();

/// Knobs for building one category's labeled experiment.
struct ExperimentOptions {
  std::size_t variants = 4;            ///< datasets per category
  std::size_t series_per_variant = 30;
  std::size_t length = 192;
  double missing_fraction = 0.1;
  std::uint64_t seed = 7;
};

/// A labeled train/test experiment for one dataset category: ground-truth
/// labels from the exhaustive imputation bench, features extracted from
/// masked copies.
struct CategoryExperiment {
  ml::Dataset train;
  ml::Dataset test;
  std::vector<impute::Algorithm> pool;
};

/// Builds the experiment for `category` (generation + labeling + feature
/// extraction + the paper's stratified 65/35 holdout).
Result<CategoryExperiment> BuildCategoryExperiment(
    data::Category category, const ExperimentOptions& options,
    const features::FeatureExtractorOptions& feature_options = {});

/// One system's evaluation on a category experiment.
struct SystemScores {
  double accuracy = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double mrr = 0.0;
  bool has_mrr = false;
  double train_seconds = 0.0;
  /// For A-DARTS runs: the training `ExecContext`'s StageMetrics snapshot
  /// (where the train_seconds went, race counters); empty for baselines.
  StageMetrics train_stages;
};

/// Trains A-DARTS (ModelRace + soft voting) on the experiment's train side
/// and scores it on the test side. Training runs on an `ExecContext` with
/// `num_threads` workers (0 = hardware concurrency); the context's stage
/// metrics land in `SystemScores::train_stages`.
Result<SystemScores> EvaluateAdarts(const CategoryExperiment& experiment,
                                    const automl::ModelRaceOptions& race,
                                    std::size_t num_threads = 0);

/// EvaluateAdarts averaged over `repeats` race seeds (race selection is
/// stochastic; reported numbers are means over repeated runs).
/// `train_stages` carries the last successful run's snapshot.
Result<SystemScores> EvaluateAdartsAveraged(
    const CategoryExperiment& experiment, const automl::ModelRaceOptions& race,
    int repeats, std::size_t num_threads = 0);

/// Trains one baseline selector and scores it.
Result<SystemScores> EvaluateBaseline(baselines::ModelSelector* selector,
                                      const CategoryExperiment& experiment);

/// Mean / sample standard deviation of a vector.
double MeanOf(const std::vector<double>& v);
double StdDevOf(const std::vector<double>& v);

/// Fixed-width cell printing helpers for the table output.
void PrintRule(int width);
std::string Fmt(double v, int precision = 2);

/// Machine-readable bench output: one JSON object per measurement, appended
/// as a line to the `--json <path>` file so repeated runs and several
/// benches can share one log. Record format:
///
///   {"bench":"fig8.selection_time","params":{"pipelines":"24"},
///    "seconds":1.234567,"checksum":0.873000,
///    "metrics":{"win_rate":0.80,"rmse_best":0.41},
///    "stages":{"counters":{...},"spans_seconds":{...}}}
///
/// `checksum` is a bench-chosen result digest (an F1, a correlation, a
/// cluster count...) that makes regressions in *results* — not just in
/// runtime — diffable across commits. `metrics` carries any named result
/// numbers beyond the single digest (tools/bench_compare gates on them
/// direction-aware); `stages` is present when the bench passes the run's
/// StageMetrics snapshot.
class BenchJsonWriter {
 public:
  /// An empty path disables the writer; `Record` becomes a no-op.
  explicit BenchJsonWriter(std::string path) : path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }

  void Record(const std::string& bench,
              const std::vector<std::pair<std::string, std::string>>& params,
              double seconds, double checksum,
              const StageMetrics* stages = nullptr,
              const std::vector<std::pair<std::string, double>>& metrics = {})
      const;

 private:
  std::string path_;
};

/// Scans argv for `--json <path>` / `--json=<path>`; empty when absent.
std::string JsonPathFromArgs(int argc, char** argv);

/// Scans argv for `--threads N` / `--threads=N`: 0 (hardware concurrency)
/// when absent, an InvalidArgument naming the flag when N is not an integer
/// in [0, 1024].
Result<std::size_t> ThreadsFromArgs(int argc, char** argv);

/// Scans argv for `--trace <path>` / `--trace=<path>`; empty when absent.
/// Benches wrap their run in a `ScopedTrace` built from this path so the
/// whole measurement exports one Chrome trace-event timeline.
std::string TracePathFromArgs(int argc, char** argv);

}  // namespace adarts::bench

#endif  // ADARTS_BENCH_BENCH_UTIL_H_
