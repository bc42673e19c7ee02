#include "adarts/stages.h"

#include <utility>

#include "cluster/incremental.h"
#include "common/exec_context.h"
#include "common/thread_pool.h"
#include "ts/missing.h"

namespace adarts {

Result<ClusterStageState> ClusterStage(
    const std::vector<ts::TimeSeries>& corpus, const TrainOptions& options,
    ExecContext& ctx) {
  ClusterStageState state;
  StageTimer timer(&ctx.metrics(), "train.clustering_seconds");
  ADARTS_ASSIGN_OR_RETURN(
      state.clustering,
      cluster::IncrementalClustering(corpus, options.clustering, ctx));
  return state;
}

Result<LabelStageState> LabelStage(const std::vector<ts::TimeSeries>& corpus,
                                   const cluster::Clustering* clustering,
                                   const TrainOptions& options, Rng* rng,
                                   ExecContext& ctx) {
  if (clustering == nullptr) {
    return Status::InvalidArgument("LabelStage needs the corpus clustering");
  }
  LabelStageState state;
  {
    StageTimer labeling_timer(&ctx.metrics(), "train.labeling_seconds");
    ADARTS_ASSIGN_OR_RETURN(
        state.labels,
        labeling::LabelByClusters(corpus, *clustering, options.labeling, ctx));
  }
  ADARTS_RETURN_NOT_OK(ctx.CheckCancelled("LabelStage after labeling"));

  state.extractor = features::FeatureExtractor(options.features);
  state.labeled.num_classes = static_cast<int>(state.labels.algorithms.size());
  state.labeled.labels = state.labels.labels;
  ADARTS_ASSIGN_OR_RETURN(
      state.labeled.features,
      ExtractMaskedFeatures(corpus, options.labeling, state.extractor, rng,
                            ctx, "train.features_seconds"));
  return state;
}

Result<std::vector<la::Vector>> ExtractMaskedFeatures(
    const std::vector<ts::TimeSeries>& series,
    const labeling::LabelingOptions& labeling,
    const features::FeatureExtractor& extractor, Rng* rng, ExecContext& ctx,
    const char* span_name) {
  // Each series masks with its own Rng, forked up front in index order on
  // this thread, so the extracted features are bit-identical regardless of
  // thread count.
  std::vector<Rng> series_rngs = ExecContext::ForkRngs(rng, series.size());
  std::vector<la::Vector> rows(series.size());
  std::vector<Status> extract_status(series.size());
  {
    StageTimer features_timer(&ctx.metrics(), span_name);
    ParallelFor(ctx, series.size(), [&](std::size_t i) {
      ts::TimeSeries masked = series[i];
      Status injected =
          ts::InjectPattern(labeling.pattern, labeling.missing_fraction,
                            &series_rngs[i], &masked);
      if (!injected.ok()) {
        extract_status[i] = std::move(injected);
        return;
      }
      Result<la::Vector> f = extractor.Extract(masked);
      if (!f.ok()) {
        extract_status[i] = f.status();
        return;
      }
      rows[i] = std::move(*f);
    });
  }
  // Cancellation skips iterations, leaving empty rows: bail out before the
  // rows are read.
  ADARTS_RETURN_NOT_OK(ctx.CheckCancelled("masked feature extraction"));
  for (const Status& s : extract_status) {
    ADARTS_RETURN_NOT_OK(s);
  }
  return rows;
}

Result<RaceStageState> RaceStage(const ml::Dataset& labeled,
                                 const automl::ModelRaceOptions& race_options,
                                 double race_train_fraction,
                                 const automl::RaceWarmStart* warm_start,
                                 Rng* rng, ExecContext& ctx,
                                 const char* span_name) {
  automl::ModelRaceOptions seeded = race_options;
  seeded.seed = rng->NextU64();
  ADARTS_ASSIGN_OR_RETURN(
      ml::TrainTestSplit split,
      ml::StratifiedSplit(labeled, race_train_fraction, rng));
  RaceStageState state;
  StageTimer race_timer(&ctx.metrics(), span_name);
  ADARTS_ASSIGN_OR_RETURN(
      state.report,
      warm_start != nullptr
          ? automl::RunModelRace(split.train, seeded, ctx, *warm_start)
          : automl::RunModelRace(split.train, seeded, ctx));
  return state;
}

Result<CommitteeStageState> CommitteeStage(
    const automl::ModelRaceReport& report, const ml::Dataset& labeled,
    ExecContext& ctx) {
  CommitteeStageState state;
  ADARTS_ASSIGN_OR_RETURN(
      state.recommender,
      automl::VotingRecommender::FromRace(report, labeled, ctx));
  return state;
}

}  // namespace adarts
