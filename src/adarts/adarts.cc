#include "adarts/adarts.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>

#include "adarts/stages.h"
#include "common/exec_context.h"
#include "common/failpoint.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace adarts {

namespace {

/// Growth bookkeeping of each non-empty cluster of a labeled clustering of
/// `series`: its label, member count and representative series, appended
/// to `out` in cluster order.
void AppendClusterGrowth(const cluster::Clustering& clustering,
                         const labeling::LabelingResult& labeled,
                         const std::vector<ts::TimeSeries>& series,
                         std::vector<ClusterGrowthState>* out) {
  for (std::size_t k = 0; k < clustering.clusters.size(); ++k) {
    const std::vector<std::size_t>& members = clustering.clusters[k];
    if (members.empty()) continue;
    ClusterGrowthState c;
    c.label = labeled.labels[members[0]];
    c.member_count = members.size();
    for (std::size_t idx : labeled.cluster_representatives[k]) {
      c.representatives.push_back(series[idx]);
    }
    out->push_back(std::move(c));
  }
}

}  // namespace

Adarts::Adarts(features::FeatureExtractor extractor,
               automl::VotingRecommender recommender,
               automl::ModelRaceReport report,
               std::vector<impute::Algorithm> pool, ml::Dataset training_data)
    : extractor_(std::move(extractor)),
      recommender_(std::move(recommender)),
      race_report_(std::move(report)),
      pool_(std::move(pool)),
      training_data_(std::move(training_data)) {
  RecomputeDefaultClass();
}

void Adarts::RecomputeDefaultClass() {
  // Majority training label = the last rung of the degradation ladder. The
  // scan keeps the first (smallest) label on ties, so the choice is
  // deterministic and independent of label order.
  default_class_ = 0;
  std::vector<std::size_t> counts(pool_.size(), 0);
  for (int label : training_data_.labels) {
    if (label >= 0 && static_cast<std::size_t>(label) < counts.size()) {
      ++counts[static_cast<std::size_t>(label)];
    }
  }
  for (std::size_t c = 1; c < counts.size(); ++c) {
    if (counts[c] > counts[static_cast<std::size_t>(default_class_)]) {
      default_class_ = static_cast<int>(c);
    }
  }
}

Result<Adarts> Adarts::Train(const std::vector<ts::TimeSeries>& corpus,
                             const TrainOptions& options, ExecContext& ctx) {
  ADARTS_FAILPOINT("adarts.train.start");
  if (corpus.size() < 8) {
    return Status::InvalidArgument("training corpus too small (< 8 series)");
  }
  // Reject poisoned inputs at the boundary: one NaN observation would
  // otherwise surface deep inside an imputer as an opaque numerical error.
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    Status finite = corpus[i].ValidateObservedFinite();
    if (!finite.ok()) {
      return Status::InvalidArgument("corpus series " + std::to_string(i) +
                                     ": " + finite.message());
    }
  }
  Rng rng(options.seed);

  // Train is a thin composition of the pipeline stages (stages.h); each
  // stage runs on the context's one shared pool and consumes `rng` exactly
  // as the pre-decomposition monolith did, so the trained engine is
  // bit-identical to earlier builds.

  // --- (1) Clustering, then labeling + feature extraction.
  ADARTS_ASSIGN_OR_RETURN(ClusterStageState clusters,
                          ClusterStage(corpus, options, ctx));
  ADARTS_ASSIGN_OR_RETURN(
      LabelStageState labeled,
      LabelStage(corpus, &clusters.clustering, options, &rng, ctx));

  // --- (2) ModelRace over the labeled data, then the voting committee.
  ADARTS_ASSIGN_OR_RETURN(
      RaceStageState race,
      RaceStage(labeled.labeled, options.race,
                TrainOptions::race_train_fraction, nullptr, &rng, ctx));
  ADARTS_ASSIGN_OR_RETURN(CommitteeStageState committee,
                          CommitteeStage(race.report, labeled.labeled, ctx));

  // --- (3) Growth bookkeeping for AppendSeries: each cluster's label and
  // representative series, plus the surviving elites that warm-start the
  // next race.
  GrowthState growth;
  growth.present = true;
  AppendClusterGrowth(clusters.clustering, labeled.labels, corpus,
                      &growth.clusters);
  growth.warm_start.elites = race.report.elites;

  Adarts engine(std::move(labeled.extractor), std::move(committee.recommender),
                std::move(race.report), labeled.labels.algorithms,
                std::move(labeled.labeled));
  engine.growth_ = std::move(growth);
  engine.train_report_.stages = ctx.metrics().Snapshot();
  return engine;
}

Status Adarts::AppendSeries(const std::vector<ts::TimeSeries>& delta,
                            const UpdateOptions& options, ExecContext& ctx) {
  ADARTS_FAILPOINT("adarts.update.start");
  if (delta.empty()) {
    return Status::InvalidArgument("AppendSeries: empty delta");
  }
  if (!growth_.present) {
    return Status::FailedPrecondition(
        "AppendSeries requires growth state: the engine must come from "
        "Train (or a snapshot that persisted it), not TrainFromLabeled or a "
        "pre-growth snapshot");
  }
  if (!options.labeling.algorithms.empty() &&
      options.labeling.algorithms != pool_) {
    return Status::InvalidArgument(
        "AppendSeries: labeling pool must be empty (engine pool is used) or "
        "equal to the engine's pool");
  }
  labeling::LabelingOptions label_options = options.labeling;
  label_options.algorithms = pool_;

  Rng rng(options.seed);
  // Transactional: every mutation below lands on copies; the engine commits
  // only after the last fallible step, so a failed append leaves it exactly
  // as it was.
  GrowthState new_growth = growth_;

  // --- (1) Assign each new series to an existing cluster or split it off.
  // Splits append the series as a fresh singleton representative group, so
  // later delta series can join the new cluster.
  std::vector<std::vector<ts::TimeSeries>> reps;
  reps.reserve(new_growth.clusters.size());
  for (const ClusterGrowthState& c : new_growth.clusters) {
    reps.push_back(c.representatives);
  }
  const std::size_t original_clusters = reps.size();
  std::vector<int> delta_labels(delta.size(), 0);
  // The clusters this append opens, as delta indices in creation order
  // (cluster index = original_clusters + position).
  cluster::Clustering fresh;
  std::uint64_t assigned_count = 0;
  {
    StageTimer assign_timer(&ctx.metrics(), "update.assign_seconds");
    for (std::size_t i = 0; i < delta.size(); ++i) {
      ADARTS_FAILPOINT("adarts.update.assign");
      Result<cluster::SeriesAssignment> assignment =
          cluster::AssignSeriesToClusters(delta[i], reps, options.clustering,
                                          ctx);
      if (!assignment.ok()) {
        return Status(assignment.status().code(),
                      "AppendSeries: delta series " + std::to_string(i) +
                          ": " + assignment.status().message());
      }
      if (assignment->split) {
        fresh.clusters.push_back({i});
        reps.push_back({delta[i]});
        continue;
      }
      ++assigned_count;
      const std::size_t j = assignment->cluster;
      if (j < original_clusters) {
        delta_labels[i] = new_growth.clusters[j].label;
        ++new_growth.clusters[j].member_count;
      } else {
        // Joined a cluster opened earlier in this append; it is labeled as
        // one unit in the next phase.
        fresh.clusters[j - original_clusters].push_back(i);
      }
    }
  }

  // --- (2) Label the freshly opened clusters the way Train labels its
  // clusters — the only imputation benchmarking an append pays for.
  // Assigned series inherited their cluster's label at zero cost above.
  ADARTS_FAILPOINT("adarts.update.label");
  {
    StageTimer label_timer(&ctx.metrics(), "update.label_seconds");
    ADARTS_ASSIGN_OR_RETURN(
        labeling::LabelingResult labeled,
        labeling::LabelByClusters(delta, fresh, label_options, ctx));
    for (const std::vector<std::size_t>& members : fresh.clusters) {
      for (std::size_t i : members) delta_labels[i] = labeled.labels[i];
    }
    AppendClusterGrowth(fresh, labeled, delta, &new_growth.clusters);
  }

  // --- (3) Features for the delta only, masked exactly like training.
  ADARTS_ASSIGN_OR_RETURN(
      std::vector<la::Vector> delta_rows,
      ExtractMaskedFeatures(delta, label_options, extractor_, &rng, ctx,
                            "update.features_seconds"));
  ml::Dataset grown = training_data_;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    grown.features.push_back(std::move(delta_rows[i]));
    grown.labels.push_back(delta_labels[i]);
  }

  // --- (4) Re-race over the grown dataset, warm-started from the engine's
  // surviving elites, then refit the committee.
  ADARTS_FAILPOINT("adarts.update.race");
  const automl::RaceWarmStart* warm =
      options.warm_start && !growth_.warm_start.empty() ? &growth_.warm_start
                                                        : nullptr;
  ADARTS_ASSIGN_OR_RETURN(
      RaceStageState race,
      RaceStage(grown, options.race, TrainOptions::race_train_fraction, warm,
                &rng, ctx, "update.race_seconds"));
  std::uint64_t warm_hits = 0;
  if (warm != nullptr) {
    for (const automl::RacedPipeline& elite : race.report.elites) {
      for (const automl::RacedPipeline& seeded : warm->elites) {
        if (elite.spec.ToString() == seeded.spec.ToString()) {
          ++warm_hits;
          break;
        }
      }
    }
  }
  ADARTS_ASSIGN_OR_RETURN(CommitteeStageState committee,
                          CommitteeStage(race.report, grown, ctx));

  // --- Commit. Nothing below can fail.
  new_growth.warm_start.elites = race.report.elites;
  training_data_ = std::move(grown);
  race_report_ = std::move(race.report);
  recommender_ = std::move(committee.recommender);
  growth_ = std::move(new_growth);
  RecomputeDefaultClass();
  ++engine_version_;
  Metrics& metrics = ctx.metrics();
  metrics.Increment("update.assigned", assigned_count);
  metrics.Increment("update.splits", fresh.NumClusters());
  metrics.Increment("update.race_warm_hits", warm_hits);
  train_report_.stages = metrics.Snapshot();
  return Status::OK();
}

Result<Adarts> Adarts::TrainFromLabeled(
    const ml::Dataset& labeled, const std::vector<impute::Algorithm>& pool,
    const features::FeatureExtractorOptions& feature_options,
    const automl::ModelRaceOptions& race_options, std::uint64_t seed,
    ExecContext& ctx) {
  ADARTS_RETURN_NOT_OK(labeled.Validate());
  if (static_cast<int>(pool.size()) != labeled.num_classes) {
    return Status::InvalidArgument("pool size != num_classes");
  }
  Rng rng(seed);
  ADARTS_ASSIGN_OR_RETURN(
      ml::TrainTestSplit split,
      ml::StratifiedSplit(labeled, TrainOptions::race_train_fraction, &rng));
  automl::ModelRaceReport report;
  {
    StageTimer race_timer(&ctx.metrics(), "train.race_seconds");
    ADARTS_ASSIGN_OR_RETURN(
        report, automl::RunModelRace(split.train, race_options, ctx));
  }
  ADARTS_ASSIGN_OR_RETURN(
      automl::VotingRecommender recommender,
      automl::VotingRecommender::FromRace(report, labeled, ctx));
  Adarts engine(features::FeatureExtractor(feature_options),
                std::move(recommender), std::move(report), pool, labeled);
  engine.train_report_.stages = ctx.metrics().Snapshot();
  return engine;
}

Result<Recommendation> Adarts::RecommendEx(const ts::TimeSeries& faulty) const {
  Recommendation rec;
  Stopwatch extract_watch;
  ADARTS_ASSIGN_OR_RETURN(la::Vector f, extractor_.Extract(faulty));
  rec.extract_seconds = extract_watch.ElapsedSeconds();
  // The committee indexes features by position, unchecked: a vector of
  // another width than its training data is refused before any member
  // reads it.
  if (f.size() != training_data_.dim()) {
    return Status::InvalidArgument(
        "recommend: extractor yields " + std::to_string(f.size()) +
        " features but the committee was trained on " +
        std::to_string(training_data_.dim()));
  }
  Stopwatch vote_watch;
  const la::Vector p = recommender_.PredictProba(f, &rec.vote);
  rec.vote_seconds = vote_watch.ElapsedSeconds();
  rec.degradation = rec.vote.level;
  std::vector<std::size_t> order(p.empty() ? pool_.size() : p.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (p.empty()) {
    // Every committee member failed: the last rung of the ladder is the
    // corpus-majority algorithm — degraded but valid, never a crash.
    std::stable_partition(order.begin(), order.end(), [&](std::size_t c) {
      return c == static_cast<std::size_t>(default_class_);
    });
  } else {
    // Stable, so equal probabilities keep pool order and the front is the
    // first maximum — the argmax the vote picks.
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return p[a] > p[b]; });
  }
  // The committee's class count and the pool are wired together at training
  // time, but a hand-assembled or corrupted bundle can break the invariant;
  // fail cleanly instead of indexing out of bounds.
  if (order.empty() || order.size() > pool_.size()) {
    return Status::Internal("recommended class outside the algorithm pool");
  }
  rec.ranking.reserve(order.size());
  for (std::size_t cls : order) rec.ranking.push_back(pool_[cls]);
  rec.algorithm = rec.ranking.front();
  return rec;
}

Result<Recommendation> Adarts::RecommendAndRecord(const ts::TimeSeries& faulty,
                                                  ExecContext& ctx) const {
  TraceSpan span("recommend.series");
  Stopwatch latency_watch;
  Result<Recommendation> rec = RecommendEx(faulty);
  // Fold the call into the context's long-lived registry, so a serving loop
  // sees request totals alongside the training spans.
  Metrics& metrics = ctx.metrics();
  metrics.histogram("recommend.latency")
      ->RecordSeconds(latency_watch.ElapsedSeconds());
  metrics.Increment("recommend.requests");
  if (!rec.ok()) return rec;
  if (rec->degradation != automl::DegradationLevel::kFullCommittee) {
    metrics.Increment("recommend.degraded");
  }
  metrics.Increment("vote.members_failed", rec->vote.members_failed);
  metrics.RecordSpanSeconds("recommend.extract_seconds", rec->extract_seconds);
  metrics.RecordSpanSeconds("recommend.vote_seconds", rec->vote_seconds);
  return rec;
}

Result<impute::Algorithm> Adarts::Recommend(const ts::TimeSeries& faulty,
                                            ExecContext& ctx) const {
  ADARTS_ASSIGN_OR_RETURN(Recommendation rec, RecommendAndRecord(faulty, ctx));
  return rec.algorithm;
}

std::vector<Result<impute::Algorithm>> Adarts::RecommendBatchPartial(
    const std::vector<ts::TimeSeries>& batch, ExecContext& ctx) const {
  // One slot per series: extraction and the committee vote are pure reads of
  // the engine, so tasks share nothing but const state. Errors land in the
  // series' own slot; the batch itself always comes back full-size.
  std::vector<Result<impute::Algorithm>> out(
      batch.size(), Result<impute::Algorithm>(
                        Status::Internal("series not evaluated")));
  std::vector<char> done(batch.size(), 0);
  ParallelFor(ctx, batch.size(), [&](std::size_t i) {
    Result<Recommendation> rec = RecommendAndRecord(batch[i], ctx);
    if (rec.ok()) {
      out[i] = rec->algorithm;
    } else {
      out[i] = rec.status();
    }
    done[i] = 1;
  });
  const Status cancelled = ctx.CheckCancelled("RecommendBatch");
  if (!cancelled.ok()) {
    // Slots the cancelled loop skipped report the cancellation itself, not
    // the "not evaluated" placeholder.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (done[i] == 0) out[i] = cancelled;
    }
  }
  return out;
}

Result<std::vector<impute::Algorithm>> Adarts::RecommendBatch(
    const std::vector<ts::TimeSeries>& batch,
    const RecommendBatchOptions& options, ExecContext& ctx) const {
  std::vector<Result<impute::Algorithm>> partial =
      RecommendBatchPartial(batch, ctx);
  std::vector<impute::Algorithm> out;
  out.reserve(batch.size());
  std::size_t failures = 0;
  StatusCode first_code = StatusCode::kInternal;
  std::ostringstream failed_detail;
  for (std::size_t i = 0; i < partial.size(); ++i) {
    if (partial[i].ok()) {
      out.push_back(*partial[i]);
      continue;
    }
    ++failures;
    if (failures == 1) first_code = partial[i].status().code();
    if (options.fail_fast) {
      // Aggregate every failed index — a partial report ("first error
      // wins") used to hide the batch's real damage.
      if (failures > 1) failed_detail << "; ";
      failed_detail << "series " << i << ": " << partial[i].status().message();
    } else {
      // Degraded mode: the failed series gets the corpus-majority default.
      out.push_back(pool_[static_cast<std::size_t>(default_class_)]);
    }
  }
  if (options.fail_fast && failures > 0) {
    return Status(first_code,
                  "RecommendBatch failed for " + std::to_string(failures) +
                      " of " + std::to_string(batch.size()) + " series [" +
                      failed_detail.str() + "]");
  }
  return out;
}

Result<ts::TimeSeries> Adarts::Repair(const ts::TimeSeries& faulty,
                                      ExecContext& ctx) const {
  if (!faulty.HasMissing()) return faulty;
  ADARTS_ASSIGN_OR_RETURN(impute::Algorithm algo, Recommend(faulty, ctx));
  Result<ts::TimeSeries> repaired = impute::CreateImputer(algo)->Impute(faulty);
  if (repaired.ok()) return repaired;
  // The recommended algorithm can still reject this particular input (rank
  // too high for the observation count, degenerate masks, an armed
  // failpoint). Degrade to linear interpolation — it accepts any series
  // with one observation — rather than failing the repair outright.
  LogWarn("repair with " + std::string(impute::AlgorithmToString(algo)) +
          " failed (" + repaired.status().message() +
          "); falling back to linear interpolation");
  ctx.metrics().Increment("repair.fallback_linear_interp");
  return impute::CreateImputer(impute::Algorithm::kLinearInterp)
      ->Impute(faulty);
}

Result<std::vector<ts::TimeSeries>> Adarts::RepairSet(
    const std::vector<ts::TimeSeries>& faulty_set,
    const RecommendBatchOptions& options, ExecContext& ctx) const {
  if (faulty_set.empty()) return Status::InvalidArgument("empty set");
  // Majority vote of per-series recommendations picks the set's algorithm;
  // the recommendations come from one batched pass over the pool.
  // std::map iterates in ascending algorithm id and max_element keeps the
  // first of equal counts, so ties break deterministically toward the
  // smallest algorithm id (documented in the header).
  ADARTS_ASSIGN_OR_RETURN(std::vector<impute::Algorithm> recommendations,
                          RecommendBatch(faulty_set, options, ctx));
  std::map<int, std::size_t> votes;
  for (impute::Algorithm algo : recommendations) {
    ++votes[static_cast<int>(algo)];
  }
  const auto winner = std::max_element(
      votes.begin(), votes.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  const auto algo = static_cast<impute::Algorithm>(winner->first);
  impute::FitDiagnostics diagnostics;
  Result<std::vector<ts::TimeSeries>> repaired =
      impute::CreateImputer(algo)->ImputeSetWithDiagnostics(faulty_set,
                                                            &diagnostics);
  // The imputer's fit health feeds the registry so sweeps can report
  // per-site metrics instead of only pass/fail (DESIGN.md §8).
  ctx.metrics().Increment("repair.impute_iterations", diagnostics.iterations);
  if (!diagnostics.converged && diagnostics.iterations > 0) {
    ctx.metrics().Increment("repair.impute_not_converged");
  }
  if (repaired.ok()) {
    if (!diagnostics.converged && diagnostics.iterations > 0) {
      LogWarn("repair with " +
              std::string(impute::AlgorithmToString(algo)) +
              " stopped after " + std::to_string(diagnostics.iterations) +
              " iterations without converging (last change " +
              std::to_string(diagnostics.final_change) +
              "); the repaired values may be rough");
    }
    return repaired;
  }
  // Same ladder as Repair: the set's winning algorithm can fail on this
  // particular set even though it fitted during training. Linear
  // interpolation handles anything with >= 1 observed value per series.
  LogWarn("set repair with " + std::string(impute::AlgorithmToString(algo)) +
          " failed (" + repaired.status().message() +
          "); falling back to linear interpolation");
  ctx.metrics().Increment("repair.fallback_linear_interp");
  return impute::CreateImputer(impute::Algorithm::kLinearInterp)
      ->ImputeSet(faulty_set);
}

Result<la::Vector> Adarts::ExtractFeatures(const ts::TimeSeries& series) const {
  return extractor_.Extract(series);
}

}  // namespace adarts
