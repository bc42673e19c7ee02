#ifndef ADARTS_ADARTS_ADARTS_H_
#define ADARTS_ADARTS_ADARTS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "automl/model_race.h"
#include "automl/recommender.h"
#include "cluster/incremental.h"
#include "common/exec_context.h"
#include "common/status.h"
#include "features/feature_extractor.h"
#include "impute/imputer.h"
#include "labeling/labeler.h"
#include "ml/dataset.h"
#include "ts/time_series.h"

namespace adarts {

/// End-to-end training configuration for the A-DARTS engine.
struct TrainOptions {
  cluster::IncrementalOptions clustering;
  labeling::LabelingOptions labeling;
  features::FeatureExtractorOptions features;
  automl::ModelRaceOptions race;
  /// Fraction of the labeled rows, drawn stratified, that ModelRace races
  /// on (Train, AppendSeries and TrainFromLabeled alike); the race scores
  /// on its own folds and reads no other row. The committee then refits on
  /// every labeled row.
  static constexpr double race_train_fraction = 0.9;
  std::uint64_t seed = 17;
};

/// Configuration for incremental corpus growth (`Adarts::AppendSeries`).
/// Defaults to a cheaper ModelRace than full training: the race starts from
/// the engine's surviving elites (warm start), so a small refresh population
/// suffices — that economy is where the append-vs-retrain speedup comes
/// from.
struct UpdateOptions {
  /// Assignment thresholds for placing new series against the stored
  /// cluster representatives (same admissibility floor as training's
  /// refinement phase).
  cluster::IncrementalOptions clustering;
  /// Masking pattern/fraction for labeling freshly split clusters and for
  /// the appended series' training features. `algorithms` must be empty
  /// (the engine's pool is used) or equal to the engine's pool.
  labeling::LabelingOptions labeling;
  /// Re-race configuration; the constructor shrinks the population relative
  /// to `ModelRaceOptions` defaults because the warm-started race refines
  /// known-good elites instead of exploring from scratch.
  automl::ModelRaceOptions race;
  std::uint64_t seed = 17;
  /// Seed the re-race from the engine's surviving elites. Disable to force
  /// a cold race over the grown dataset (the bench's control arm).
  bool warm_start = true;

  UpdateOptions() {
    race.num_seed_pipelines = 12;
    race.num_partial_sets = 2;
    race.num_folds = 2;
    race.synth_per_elite = 1;
  }
};

/// One cluster's growth bookkeeping: everything `AppendSeries` needs to
/// place and label new series without the original corpus.
struct ClusterGrowthState {
  /// The cluster's winning algorithm (index into the engine's pool).
  int label = 0;
  /// Series assigned to this cluster so far (training + appended).
  std::uint64_t member_count = 0;
  /// The correlation-medoid representative series benchmarked for this
  /// cluster; new series are assigned by mean |corr| against these.
  std::vector<ts::TimeSeries> representatives;
};

/// Incremental-growth state persisted in the snapshot (optional blocks, see
/// DESIGN.md §13): per-cluster representatives + labels, and the race
/// elites (with fold scores) that warm-start the next `AppendSeries`.
/// `present` is false for engines trained via `TrainFromLabeled` or loaded
/// from pre-growth snapshots — those engines reject `AppendSeries` with
/// FailedPrecondition.
struct GrowthState {
  std::vector<ClusterGrowthState> clusters;
  automl::RaceWarmStart warm_start;
  bool present = false;
};

/// Where training time went: a `StageMetrics` snapshot of the run's
/// `ExecContext` taken when `Train`/`TrainFromLabeled` returns —
/// `train.clustering_seconds`, `train.labeling_seconds`,
/// `train.features_seconds`, `train.race_seconds`,
/// `train.committee_seconds` spans plus the race/cluster/label counters
/// (DESIGN.md §8). Engines restored with `Load` carry an empty report: the
/// bundle stores the model, not the training run.
struct TrainReport {
  StageMetrics stages;
};

/// Options for the batched inference entry points (`RecommendBatch`,
/// `RepairSet`): many series extract features and vote concurrently on a
/// shared pool. Recommendations are bit-identical to per-series `Recommend`
/// calls for every thread count — the committee is read-only at inference
/// time and each series owns one result slot.
struct RecommendBatchOptions {
  /// true (the default): any per-series failure fails the whole batch with
  /// an aggregate error naming every failed series index. false: failed
  /// series degrade to the engine's corpus-majority default algorithm and
  /// the batch succeeds (`RecommendBatchPartial` exposes the per-series
  /// statuses when the caller needs them).
  bool fail_fast = true;
};

/// One recommendation with everything the inference path learned while
/// making it: the winner, the full ranking, the vote's health report, and
/// where the time went. Every recommend entry point builds exactly one of
/// these through `Adarts::RecommendEx`, so the top pick, the ranking and
/// the recorded metrics cannot disagree.
struct Recommendation {
  impute::Algorithm algorithm = impute::Algorithm{};
  /// Every pool algorithm, best first (the basis of Recall@k and MRR),
  /// ordered by the same degradation ladder as `algorithm`: descending
  /// soft-vote probability with ties kept in pool order, or — when every
  /// committee member failed — the corpus-majority default first and the
  /// rest in pool order. `ranking.front() == algorithm` always.
  std::vector<impute::Algorithm> ranking;
  automl::DegradationLevel degradation =
      automl::DegradationLevel::kFullCommittee;
  automl::VoteDiagnostics vote;
  /// Wall-clock of the two inference layers: feature extraction and the
  /// committee vote. Recorded as the `recommend.extract_seconds` /
  /// `recommend.vote_seconds` spans by the context-taking entry points
  /// (DESIGN.md §8).
  double extract_seconds = 0.0;
  double vote_seconds = 0.0;
};

/// The A-DARTS recommendation engine: train once on a corpus of series,
/// then recommend (and apply) the best imputation algorithm for new faulty
/// series. See Fig. 2 of the paper for the component flow this class wires
/// together: clustering -> labeling -> feature extraction -> ModelRace ->
/// soft-voting recommendation.
///
/// One signature per operation (DESIGN.md §8): a call takes an
/// `ExecContext&` exactly when it runs work on a thread pool, polls a
/// cancellation token or records metrics. The pure per-series reads —
/// `RecommendEx`, `ExtractFeatures`, `PredictProba` — take none.
class Adarts {
 public:
  /// Trains the engine on a corpus of complete series. The corpus series
  /// must share one length (the imputation bench runs set-wise). Every
  /// training phase shares `ctx`'s one lazily-built pool, polls its
  /// cancellation token, and records its stage spans/counters into `ctx`'s
  /// metrics; the final snapshot lands in the engine's `train_report()`.
  /// The trained engine is bit-identical for every thread count (see the
  /// determinism contract in common/thread_pool.h).
  static Result<Adarts> Train(const std::vector<ts::TimeSeries>& corpus,
                              const TrainOptions& options, ExecContext& ctx);

  /// Trains the recommendation engine from an already-labeled dataset
  /// (labels index `pool`). Used by the benches that control labeling,
  /// e.g. with ground-truth labels from `labeling::LabelSeriesFull`. Same
  /// context contract as `Train`.
  static Result<Adarts> TrainFromLabeled(
      const ml::Dataset& labeled, const std::vector<impute::Algorithm>& pool,
      const features::FeatureExtractorOptions& feature_options,
      const automl::ModelRaceOptions& race_options, std::uint64_t seed,
      ExecContext& ctx);

  /// Incrementally grows the training corpus: each series of `delta` is
  /// assigned to an existing cluster (inheriting its label at zero
  /// imputation cost) or split off into a fresh cluster; the clusters the
  /// append opens are labeled, over the delta only, by one
  /// `labeling::LabelByClusters` call, as Train labels its clusters;
  /// features are extracted for the delta only; and the
  /// committee is rebuilt by a ModelRace warm-started from the engine's
  /// surviving elites. Orders of magnitude cheaper than a full retrain —
  /// the bench records the speedup and labeling agreement in
  /// EXPERIMENTS.md. Assignment, labeling, feature extraction and the race
  /// share `ctx`'s pool and token. On success the engine's version bumps by
  /// one (so a subsequent Save + SIGHUP hot-swaps cleanly) and
  /// `train_report()` holds the update's `update.*` spans and counters
  /// (`update.assigned`, `update.splits`, `update.race_warm_hits`). On
  /// failure the engine is unchanged: every mutation happens on copies
  /// committed only after the last fallible step. Requires growth state
  /// (`has_growth_state()`) — engines from `TrainFromLabeled` or
  /// pre-growth snapshots are rejected with FailedPrecondition.
  Status AppendSeries(const std::vector<ts::TimeSeries>& delta,
                      const UpdateOptions& options, ExecContext& ctx);

  /// Incremental-growth bookkeeping (clusters + warm-start elites);
  /// `has_growth_state()` is false for engines that cannot AppendSeries.
  const GrowthState& growth_state() const { return growth_; }
  bool has_growth_state() const { return growth_.present; }

  /// The recommend core: extracts features, soft-votes the committee and
  /// walks the degradation ladder. Committee members that emit malformed
  /// probabilities are skipped (full committee → partial committee →
  /// single elite), and when every member fails the corpus-majority
  /// default algorithm is returned (default class). Only feature
  /// extraction failures surface as errors, plus InvalidArgument when the
  /// extracted vector's width differs from the training data's (checked
  /// before any member reads it). A pure read: it records
  /// nothing, so ranking and explanation callers use it directly.
  Result<Recommendation> RecommendEx(const ts::TimeSeries& faulty) const;

  /// `RecommendEx(faulty).algorithm`, with the request recorded in `ctx`'s
  /// metrics: the `recommend.requests` counter and `recommend.latency`
  /// histogram for every call, and for successful ones the
  /// `recommend.degraded` and `vote.members_failed` counters plus the
  /// `recommend.extract_seconds` / `recommend.vote_seconds` spans.
  Result<impute::Algorithm> Recommend(const ts::TimeSeries& faulty,
                                      ExecContext& ctx) const;

  /// Best imputation algorithm for every series of `batch`, in input order
  /// (`out[i]` is the recommendation for `batch[i]`; an empty batch yields
  /// an empty vector). Feature extraction and committee voting fan out over
  /// `ctx`'s shared pool and honour its cancellation token; element `i`
  /// equals `Recommend(batch[i], ctx)` bit-for-bit at every thread count,
  /// and each series is recorded in `ctx`'s metrics exactly as `Recommend`
  /// records it. With the default `options.fail_fast` any failed series
  /// fails the call with one aggregate error naming every failed index;
  /// with `fail_fast = false` failed series fall back to the
  /// corpus-majority default algorithm.
  Result<std::vector<impute::Algorithm>> RecommendBatch(
      const std::vector<ts::TimeSeries>& batch,
      const RecommendBatchOptions& options, ExecContext& ctx) const;

  /// Per-series recommendations that never fail the batch: `out[i]` holds
  /// either `batch[i]`'s recommendation or that series' own error status
  /// (cancelled slots report the cancellation status). Input order; same
  /// pool, token and metrics as `RecommendBatch`.
  std::vector<Result<impute::Algorithm>> RecommendBatchPartial(
      const std::vector<ts::TimeSeries>& batch, ExecContext& ctx) const;

  /// Recommends (through `Recommend`, so the request is recorded the same
  /// way) and applies the winning algorithm to one series. When the
  /// winner's fit fails on this input, logs a warning, counts
  /// `repair.fallback_linear_interp` and falls back to linear
  /// interpolation (which accepts any series with >= 1 observation).
  Result<ts::TimeSeries> Repair(const ts::TimeSeries& faulty,
                                ExecContext& ctx) const;

  /// Recommends on the set (majority of per-series recommendations, batched
  /// via `RecommendBatch` on `ctx`'s pool) and repairs every series with
  /// the winning algorithm. Vote ties are broken deterministically toward
  /// the algorithm with the smallest id in the engine's pool ordering. The
  /// set-level imputer's `FitDiagnostics` feed `ctx`'s metrics
  /// (`repair.impute_iterations`, `repair.impute_not_converged`,
  /// `repair.fallback_linear_interp`).
  Result<std::vector<ts::TimeSeries>> RepairSet(
      const std::vector<ts::TimeSeries>& faulty_set,
      const RecommendBatchOptions& options, ExecContext& ctx) const;

  /// Persists the engine as a deterministic model bundle: a versioned
  /// snapshot header (format version, monotonic engine version, creation
  /// time, payload length, FNV-1a content checksum) followed by the
  /// payload — extractor options, algorithm pool, committee pipeline
  /// specs, and the labeled training dataset. Because every classifier is
  /// deterministic given its stored seed, Load refits the committee
  /// exactly and the loaded engine reproduces this engine's
  /// recommendations bit-for-bit. The payload is byte-identical across
  /// saves of the same engine; only `created_unix` in the header moves.
  Status Save(const std::string& path) const;

  /// Restores an engine saved with Save. The header is verified BEFORE any
  /// payload parsing or allocation: a wrong magic, an unsupported format
  /// version, a payload shorter or longer than the header declares (a torn
  /// write), or an FNV-1a checksum mismatch (any flipped byte) each yield
  /// a precise InvalidArgument naming what disagreed.
  static Result<Adarts> Load(const std::string& path);

  /// Monotonic version of this engine, stamped into the snapshot header by
  /// `Save` and restored by `Load`. A freshly trained engine is version 1;
  /// publishers bump it before saving so the serving daemon's hot-swap can
  /// reject stale snapshots (DESIGN.md §12).
  std::uint64_t engine_version() const { return engine_version_; }
  void set_engine_version(std::uint64_t version) { engine_version_ = version; }

  /// Wall-clock seconds-since-epoch recorded in the snapshot header this
  /// engine was loaded from; 0 for engines that never round-tripped disk.
  std::uint64_t snapshot_created_unix() const { return created_unix_; }

  /// Feature vector of a (possibly incomplete) series under the engine's
  /// configured extractor.
  Result<la::Vector> ExtractFeatures(const ts::TimeSeries& series) const;

  /// Soft-vote class probabilities for a raw feature vector.
  la::Vector PredictProba(const la::Vector& features) const {
    return recommender_.PredictProba(features);
  }

  const automl::ModelRaceReport& race_report() const { return race_report_; }
  /// Stage breakdown of the training run that produced this engine; empty
  /// for engines restored with `Load`.
  const TrainReport& train_report() const { return train_report_; }
  const std::vector<impute::Algorithm>& algorithm_pool() const { return pool_; }
  const features::FeatureExtractor& feature_extractor() const {
    return extractor_;
  }
  std::size_t committee_size() const { return recommender_.committee_size(); }
  /// Corpus-majority class: the most frequent training label (smallest
  /// label on ties). The last rung of the degradation ladder.
  int default_class() const { return default_class_; }
  /// The fitted winning pipelines behind the soft vote.
  const std::vector<automl::TrainedPipeline>& committee() const {
    return recommender_.committee();
  }

  /// The labeled dataset the committee was fitted on (kept for Save and
  /// for incremental retraining).
  const ml::Dataset& training_data() const { return training_data_; }

 private:
  Adarts(features::FeatureExtractor extractor,
         automl::VotingRecommender recommender,
         automl::ModelRaceReport report, std::vector<impute::Algorithm> pool,
         ml::Dataset training_data);

  /// Majority training label over `training_data_` (first/smallest label on
  /// ties); called from the constructor and after AppendSeries commits.
  void RecomputeDefaultClass();

  /// The one accounting path of the recommend entry points: runs
  /// `RecommendEx` under the `recommend.series` trace span and records the
  /// outcome into `ctx`'s metrics (see `Recommend`). Thread-safe: the batch
  /// loop calls it from every pool worker.
  Result<Recommendation> RecommendAndRecord(const ts::TimeSeries& faulty,
                                            ExecContext& ctx) const;

  features::FeatureExtractor extractor_;
  automl::VotingRecommender recommender_;
  automl::ModelRaceReport race_report_;
  TrainReport train_report_;
  std::vector<impute::Algorithm> pool_;
  ml::Dataset training_data_;
  /// Incremental-growth bookkeeping; `present` only for Train engines and
  /// snapshots that persisted it.
  GrowthState growth_;
  /// Majority training label; computed in the constructor so Save/Load
  /// needs no bundle-format change. 0 when labels are absent.
  int default_class_ = 0;
  /// Snapshot-versioning metadata (see `engine_version()`).
  std::uint64_t engine_version_ = 1;
  std::uint64_t created_unix_ = 0;
};

/// The verified metadata block at the front of a model bundle (DESIGN.md
/// §12). `Adarts::Load` re-derives and checks every field; this struct and
/// `ReadSnapshotHeader` let tools inspect a snapshot without paying for the
/// full committee refit.
struct SnapshotHeader {
  std::uint32_t format_version = 0;
  std::uint64_t engine_version = 0;
  std::uint64_t created_unix = 0;
  std::uint64_t payload_bytes = 0;
  /// FNV-1a (64-bit) over the payload bytes.
  std::uint64_t checksum = 0;
};

/// Parses and bounds-checks the header of a snapshot at `path` without
/// reading or verifying the payload. Same rejection vocabulary as Load for
/// the header itself (bad magic, unsupported format version).
Result<SnapshotHeader> ReadSnapshotHeader(const std::string& path);

/// FNV-1a 64-bit over `data` — the snapshot content checksum. Exposed so
/// tests and the chaos harness can compute expected digests.
std::uint64_t Fnv1a64(std::string_view data);

}  // namespace adarts

#endif  // ADARTS_ADARTS_ADARTS_H_
