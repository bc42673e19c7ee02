#ifndef ADARTS_ADARTS_STAGES_H_
#define ADARTS_ADARTS_STAGES_H_

#include <vector>

#include "adarts/adarts.h"
#include "automl/model_race.h"
#include "cluster/clustering.h"
#include "common/exec_context.h"
#include "common/rng.h"
#include "common/status.h"
#include "features/feature_extractor.h"
#include "labeling/labeler.h"
#include "ml/dataset.h"
#include "ts/time_series.h"

namespace adarts {

/// The four training phases of Fig. 2, decomposed into individually
/// callable stages. `Adarts::Train` is a thin composition of these — the
/// decomposition changes no behaviour: each stage consumes the shared
/// training `Rng` exactly as the monolithic implementation did, so a Train
/// rebuilt on stages is bit-identical to earlier builds. The stages exist
/// so partial pipelines can run on their own: `Adarts::AppendSeries` reuses
/// `RaceStage`/`CommitteeStage` and `ExtractMaskedFeatures` behind a
/// cheaper assignment front-end, and labels the clusters it opens with the
/// `labeling::LabelByClusters` call `LabelStage` makes, instead of
/// re-running the full pipeline; tests can exercise one phase without
/// paying for the rest.
///
/// Every stage runs on `ctx`'s shared pool, polls its cancellation token,
/// and owns its span in `ctx`'s metrics (`train.clustering_seconds`,
/// `train.labeling_seconds` + `train.features_seconds`,
/// `train.race_seconds`; the committee span is recorded by `FromRace`).

/// Output of the clustering phase (Algorithm 2).
struct ClusterStageState {
  cluster::Clustering clustering;
};

/// Groups the corpus by correlation via incremental clustering, under the
/// `train.clustering_seconds` span.
Result<ClusterStageState> ClusterStage(
    const std::vector<ts::TimeSeries>& corpus, const TrainOptions& options,
    ExecContext& ctx);

/// Output of the labeling + feature-extraction phase: per-series labels,
/// the masked-feature dataset ModelRace trains on, and the extractor the
/// engine will serve with.
struct LabelStageState {
  labeling::LabelingResult labels;
  ml::Dataset labeled;
  features::FeatureExtractor extractor;
};

/// Labels the corpus via the representatives of `clustering` (which must be
/// non-null: InvalidArgument otherwise), then extracts features from
/// faulty copies of every series (inference sees incomplete series, so
/// training features must too) through `ExtractMaskedFeatures`. Spans:
/// `train.labeling_seconds` and `train.features_seconds`.
Result<LabelStageState> LabelStage(const std::vector<ts::TimeSeries>& corpus,
                                   const cluster::Clustering* clustering,
                                   const TrainOptions& options, Rng* rng,
                                   ExecContext& ctx);

/// Features of a masked copy of every series: each series is masked with
/// `labeling`'s pattern and fraction under its own Rng, forked from `rng`
/// up front in index order, then extracted by `extractor` on `ctx`'s pool.
/// The rows are bit-identical for every thread count. Runs under the
/// `span_name` span (`train.features_seconds` from LabelStage,
/// `update.features_seconds` from AppendSeries) and returns the first
/// masking or extraction error in index order, or the cancellation status.
Result<std::vector<la::Vector>> ExtractMaskedFeatures(
    const std::vector<ts::TimeSeries>& series,
    const labeling::LabelingOptions& labeling,
    const features::FeatureExtractor& extractor, Rng* rng, ExecContext& ctx,
    const char* span_name);

/// Output of the ModelRace phase.
struct RaceStageState {
  automl::ModelRaceReport report;
};

/// Runs ModelRace on a stratified `race_train_fraction` subsample of
/// `labeled` (consuming `rng` for the race seed then the subsample, in that
/// order) under the `span_name` span (`train.race_seconds` from Train,
/// `update.race_seconds` from AppendSeries). The rows left out of the
/// subsample are not read. A non-null `warm_start` seeds the race with
/// surviving elites from a previous run instead of a cold random
/// population.
Result<RaceStageState> RaceStage(const ml::Dataset& labeled,
                                 const automl::ModelRaceOptions& race_options,
                                 double race_train_fraction,
                                 const automl::RaceWarmStart* warm_start,
                                 Rng* rng, ExecContext& ctx,
                                 const char* span_name = "train.race_seconds");

/// Output of the committee phase: the gated soft-voting recommender.
struct CommitteeStageState {
  automl::VotingRecommender recommender;
};

/// Refits the race's gated elites on the full labeled dataset into the
/// soft-voting committee (`train.committee_seconds` span).
Result<CommitteeStageState> CommitteeStage(
    const automl::ModelRaceReport& report, const ml::Dataset& labeled,
    ExecContext& ctx);

}  // namespace adarts

#endif  // ADARTS_ADARTS_STAGES_H_
