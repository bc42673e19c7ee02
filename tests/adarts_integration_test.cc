// End-to-end tests of the A-DARTS engine: cluster -> label -> extract ->
// race -> vote -> repair, on generated corpora.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "adarts/adarts.h"
#include "common/rng.h"
#include "data/generators.h"
#include "tests/test_util.h"
#include "ts/metrics.h"
#include "ts/missing.h"

namespace adarts {
namespace {

using testing::BytesFnv;
using testing::FastOptions;
using testing::SmallCorpus;

/// The three categories these engine tests train on.
const std::vector<data::Category> kCategories = {
    data::Category::kClimate, data::Category::kMotion,
    data::Category::kMedical};

TEST(AdartsIntegrationTest, TrainsAndRecommendsFromPool) {
  ExecContext ctx;
  auto engine = Adarts::Train(SmallCorpus(kCategories), FastOptions(), ctx);
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_GE(engine->committee_size(), 1u);
  EXPECT_EQ(engine->algorithm_pool().size(), 5u);

  // A new faulty series gets a recommendation from the pool.
  data::GeneratorOptions gopts;
  gopts.num_series = 1;
  gopts.length = 160;
  gopts.seed = 77;
  ts::TimeSeries faulty =
      data::GenerateCategory(data::Category::kClimate, gopts)[0];
  Rng rng(5);
  ASSERT_TRUE(ts::InjectSingleBlock(16, &rng, &faulty).ok());

  auto algo = engine->Recommend(faulty, ctx);
  ASSERT_TRUE(algo.ok());
  bool in_pool = false;
  for (impute::Algorithm a : engine->algorithm_pool()) {
    if (a == *algo) in_pool = true;
  }
  EXPECT_TRUE(in_pool);

  auto rec = engine->RecommendEx(faulty);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->ranking.size(), 5u);
  EXPECT_EQ(rec->ranking[0], *algo);
}

TEST(AdartsIntegrationTest, RepairFillsAllGapsAndIsAccurate) {
  ExecContext ctx;
  auto engine = Adarts::Train(SmallCorpus(kCategories), FastOptions(), ctx);
  ASSERT_TRUE(engine.ok()) << engine.status();

  data::GeneratorOptions gopts;
  gopts.num_series = 1;
  gopts.length = 160;
  gopts.seed = 91;
  ts::TimeSeries faulty =
      data::GenerateCategory(data::Category::kMedical, gopts)[0];
  Rng rng(6);
  ASSERT_TRUE(ts::InjectSingleBlock(16, &rng, &faulty).ok());

  auto repaired = engine->Repair(faulty, ctx);
  ASSERT_TRUE(repaired.ok());
  EXPECT_FALSE(repaired->HasMissing());

  // Sanity bound: the engine's pick is never the catastrophic one. (A lone
  // series offers no cross-series context, so beating every baseline is not
  // guaranteed; being no worse than the pool's worst algorithm is.)
  auto engine_rmse = ts::ImputationRmse(faulty, *repaired);
  ASSERT_TRUE(engine_rmse.ok());
  double worst = 0.0;
  for (impute::Algorithm a : engine->algorithm_pool()) {
    auto alt = impute::CreateImputer(a)->Impute(faulty);
    ASSERT_TRUE(alt.ok());
    worst = std::max(worst, ts::ImputationRmse(faulty, *alt).value());
  }
  EXPECT_LE(*engine_rmse, worst + 1e-9);
}

TEST(AdartsIntegrationTest, RepairSetUsesMajorityVote) {
  ExecContext ctx;
  auto engine = Adarts::Train(SmallCorpus(kCategories), FastOptions(), ctx);
  ASSERT_TRUE(engine.ok());

  data::GeneratorOptions gopts;
  gopts.num_series = 5;
  gopts.length = 160;
  gopts.seed = 101;
  auto set = data::GenerateCategory(data::Category::kClimate, gopts);
  Rng rng(7);
  for (auto& s : set) {
    ASSERT_TRUE(ts::InjectSingleBlock(12, &rng, &s).ok());
  }
  auto repaired = engine->RepairSet(set, {}, ctx);
  ASSERT_TRUE(repaired.ok());
  ASSERT_EQ(repaired->size(), set.size());
  for (const auto& s : *repaired) {
    EXPECT_FALSE(s.HasMissing());
  }
}

TEST(AdartsIntegrationTest, CompleteSeriesPassThrough) {
  ExecContext ctx;
  auto engine = Adarts::Train(SmallCorpus(kCategories), FastOptions(), ctx);
  ASSERT_TRUE(engine.ok());
  const ts::TimeSeries complete = testing::MakeSine(160, 20.0);
  auto repaired = engine->Repair(complete, ctx);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->values(), complete.values());
}

TEST(AdartsIntegrationTest, TrainRejectsTinyCorpus) {
  ExecContext ctx;
  EXPECT_FALSE(Adarts::Train({testing::MakeSine(64, 8.0)}, {}, ctx).ok());
}

TEST(AdartsIntegrationTest, TrainFromLabeledDataset) {
  // Build a labeled dataset directly (bench-style training path).
  const ml::Dataset labeled = testing::MakeBlobs(3, 30, 6, 41);
  const std::vector<impute::Algorithm> pool = {
      impute::Algorithm::kCdRec, impute::Algorithm::kTkcm,
      impute::Algorithm::kLinearInterp};
  automl::ModelRaceOptions race;
  race.num_seed_pipelines = 12;
  race.num_partial_sets = 2;
  ExecContext ctx;
  auto engine = Adarts::TrainFromLabeled(labeled, pool, {}, race, 17, ctx);
  ASSERT_TRUE(engine.ok()) << engine.status();
  const la::Vector probs = engine->PredictProba(labeled.features[0]);
  EXPECT_EQ(probs.size(), 3u);
}

TEST(AdartsIntegrationTest, RecommendRejectsFeatureWidthMismatch) {
  // Blobs one group wider than the default 56-feature schema: the committee
  // may split on a column the extractor never produces.
  const std::size_t width = features::FeatureExtractor().NumFeatures() + 8;
  const ml::Dataset labeled = testing::MakeBlobs(3, 30, width, 43);
  const std::vector<impute::Algorithm> pool = {
      impute::Algorithm::kCdRec, impute::Algorithm::kTkcm,
      impute::Algorithm::kLinearInterp};
  automl::ModelRaceOptions race;
  race.num_seed_pipelines = 12;
  race.num_partial_sets = 2;
  ExecContext ctx;
  auto engine = Adarts::TrainFromLabeled(labeled, pool, {}, race, 17, ctx);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto rec = engine->RecommendEx(testing::MakeSine(160, 20.0, 0.05));
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kInvalidArgument)
      << rec.status();
}

TEST(AdartsIntegrationTest, TrainFromLabeledRejectsPoolMismatch) {
  const ml::Dataset labeled = testing::MakeBlobs(3, 20, 4, 42);
  const std::vector<impute::Algorithm> pool = {impute::Algorithm::kCdRec};
  ExecContext ctx;
  EXPECT_FALSE(Adarts::TrainFromLabeled(labeled, pool, {}, {}, 17, ctx).ok());
}


/// What a training run produced, reduced to comparable values: the labels,
/// the race's elites, the committee, the rankings of fixed probes, and
/// FNV-1a digests over the raw bytes of the feature rows and elite scores.
struct TrainingDigest {
  std::vector<int> labels;
  std::uint64_t features_fnv = 0;
  std::vector<std::string> elites;
  std::vector<std::uint64_t> elite_scores_fnv;
  std::size_t committee_size = 0;
  /// One comma-joined `RecommendEx` ranking per probe.
  std::vector<std::string> rankings;
};

TrainingDigest DigestOf(const Adarts& engine,
                        const std::vector<ts::TimeSeries>& probes) {
  TrainingDigest d;
  d.labels = engine.training_data().labels;
  std::vector<double> rows;
  for (const la::Vector& f : engine.training_data().features) {
    rows.insert(rows.end(), f.begin(), f.end());
  }
  d.features_fnv = BytesFnv(rows);
  for (const automl::RacedPipeline& e : engine.race_report().elites) {
    d.elites.push_back(e.spec.ToString());
    d.elite_scores_fnv.push_back(BytesFnv(e.scores));
  }
  d.committee_size = engine.committee_size();
  for (const ts::TimeSeries& probe : probes) {
    Result<Recommendation> rec = engine.RecommendEx(probe);
    if (!rec.ok()) {
      d.rankings.push_back(rec.status().ToString());
      continue;
    }
    std::string joined;
    for (impute::Algorithm a : rec->ranking) {
      if (!joined.empty()) joined += ",";
      joined += impute::AlgorithmToString(a);
    }
    d.rankings.push_back(std::move(joined));
  }
  return d;
}

void ExpectDigest(const TrainingDigest& got, const TrainingDigest& want) {
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.features_fnv, want.features_fnv);
  EXPECT_EQ(got.elites, want.elites);
  EXPECT_EQ(got.elite_scores_fnv, want.elite_scores_fnv);
  EXPECT_EQ(got.committee_size, want.committee_size);
  EXPECT_EQ(got.rankings, want.rankings);
}

// The pinned digests of the three training entry points on the corpus of
// TrainingGoldenTest. They hold at every thread count and must not move
// under a refactor: a change that alters them changes what Train learns.

/// Train on the 39-series corpus.
const TrainingDigest kTrained{
    .labels = {
        7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
        5, 5, 6, 6, 7, 6, 11, 11, 11, 5, 6, 6, 6, 11, 7},
    .features_fnv = 0x476222c76e26e284ULL,
    .elites = {"ridge(alpha=1.19153)+minmax"},
    .elite_scores_fnv = {0x95de177e9c1ab28fULL},
    .committee_size = 1,
    .rankings = {
        "tenmf,dynammo,trmf,cdrec,svd_impute,soft_impute,svt,grouse,rosl,"
        "stmvl,tkcm,mean,linear_interp,knn_impute,iim",
        "tenmf,iim,dynammo,trmf,cdrec,svd_impute,soft_impute,svt,grouse,rosl,"
        "stmvl,tkcm,mean,linear_interp,knn_impute",
        "tenmf,iim,trmf,cdrec,svd_impute,soft_impute,svt,grouse,rosl,stmvl,"
        "tkcm,mean,linear_interp,knn_impute,dynammo",
        "dynammo,iim,tenmf,cdrec,svd_impute,soft_impute,svt,grouse,rosl,stmvl,"
        "tkcm,mean,linear_interp,knn_impute,trmf",
        "dynammo,iim,cdrec,svd_impute,soft_impute,svt,grouse,rosl,stmvl,tkcm,"
        "mean,linear_interp,knn_impute,trmf,tenmf",
        "dynammo,tenmf,trmf,cdrec,svd_impute,soft_impute,svt,grouse,rosl,"
        "stmvl,tkcm,mean,linear_interp,knn_impute,iim",
        "iim,trmf,dynammo,cdrec,svd_impute,soft_impute,svt,grouse,rosl,stmvl,"
        "tkcm,mean,linear_interp,knn_impute,tenmf",
        "trmf,tenmf,dynammo,iim,cdrec,svd_impute,soft_impute,svt,grouse,rosl,"
        "stmvl,tkcm,mean,linear_interp,knn_impute",
        "trmf,tenmf,dynammo,iim,cdrec,svd_impute,soft_impute,svt,grouse,rosl,"
        "stmvl,tkcm,mean,linear_interp,knn_impute"},
};

/// AppendSeries of the 9 delta series on that engine.
const TrainingDigest kAppended{
    .labels = {
        7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
        5, 5, 6, 6, 7, 6, 11, 11, 11, 5, 6, 6, 6, 11, 7, 7, 7, 7, 5, 5, 5, 6,
        11, 12},
    .features_fnv = 0x609ca3a35c521444ULL,
    .elites = {"ridge(alpha=0.693722)+minmax", "ridge(alpha=0.693722)+minmax"},
    .elite_scores_fnv = {0xe75b750c34c90e38ULL, 0xe42a3fa598f69d2cULL},
    .committee_size = 2,
    .rankings = {
        "tenmf,dynammo,trmf,mean,cdrec,svd_impute,soft_impute,svt,grouse,rosl,"
        "stmvl,tkcm,linear_interp,knn_impute,iim",
        "tenmf,trmf,dynammo,mean,cdrec,svd_impute,soft_impute,svt,grouse,rosl,"
        "stmvl,tkcm,linear_interp,knn_impute,iim",
        "tenmf,iim,mean,cdrec,svd_impute,soft_impute,svt,grouse,rosl,stmvl,"
        "tkcm,linear_interp,knn_impute,trmf,dynammo",
        "dynammo,iim,tenmf,cdrec,svd_impute,soft_impute,svt,grouse,rosl,stmvl,"
        "tkcm,linear_interp,knn_impute,trmf,mean",
        "dynammo,iim,trmf,cdrec,svd_impute,soft_impute,svt,grouse,rosl,stmvl,"
        "tkcm,linear_interp,knn_impute,mean,tenmf",
        "dynammo,tenmf,cdrec,svd_impute,soft_impute,svt,grouse,rosl,stmvl,"
        "tkcm,linear_interp,knn_impute,trmf,iim,mean",
        "trmf,iim,dynammo,mean,cdrec,svd_impute,soft_impute,svt,grouse,rosl,"
        "stmvl,tkcm,linear_interp,knn_impute,tenmf",
        "trmf,tenmf,iim,dynammo,mean,cdrec,svd_impute,soft_impute,svt,grouse,"
        "rosl,stmvl,tkcm,linear_interp,knn_impute",
        "tenmf,trmf,mean,dynammo,cdrec,svd_impute,soft_impute,svt,grouse,rosl,"
        "stmvl,tkcm,linear_interp,knn_impute,iim"},
};

/// TrainFromLabeled on the trained engine's rows, seed 99.
const TrainingDigest kFromLabeled{
    .labels = kTrained.labels,
    .features_fnv = kTrained.features_fnv,
    .elites = {
        "random_forest(feature_fraction=0.446616,max_depth=7,num_trees=38)"
        "+robust",
        "random_forest(feature_fraction=0.446616,max_depth=6,num_trees=38)"
        "+robust",
        "random_forest(feature_fraction=0.376702,max_depth=6,num_trees=36)"
        "+pca(0.323625)"},
    .elite_scores_fnv = {0xd3f744cbbf1fcfb7ULL, 0x12c8eac993f2574eULL,
                         0x3d8959b0717ca011ULL},
    .committee_size = 3,
    .rankings = {
        "tenmf,iim,dynammo,trmf,cdrec,svd_impute,soft_impute,svt,grouse,rosl,"
        "stmvl,tkcm,mean,linear_interp,knn_impute",
        "tenmf,trmf,iim,dynammo,cdrec,svd_impute,soft_impute,svt,grouse,rosl,"
        "stmvl,tkcm,mean,linear_interp,knn_impute",
        "tenmf,iim,dynammo,cdrec,svd_impute,soft_impute,svt,grouse,trmf,rosl,"
        "stmvl,tkcm,mean,linear_interp,knn_impute",
        "dynammo,trmf,tenmf,iim,cdrec,svd_impute,soft_impute,svt,grouse,rosl,"
        "stmvl,tkcm,mean,linear_interp,knn_impute",
        "dynammo,iim,trmf,cdrec,svd_impute,soft_impute,svt,grouse,tenmf,rosl,"
        "stmvl,tkcm,mean,linear_interp,knn_impute",
        "dynammo,tenmf,iim,trmf,cdrec,svd_impute,soft_impute,svt,grouse,rosl,"
        "stmvl,tkcm,mean,linear_interp,knn_impute",
        "trmf,iim,tenmf,dynammo,cdrec,svd_impute,soft_impute,svt,grouse,rosl,"
        "stmvl,tkcm,mean,linear_interp,knn_impute",
        "trmf,dynammo,iim,tenmf,cdrec,svd_impute,soft_impute,svt,grouse,rosl,"
        "stmvl,tkcm,mean,linear_interp,knn_impute",
        "trmf,tenmf,iim,dynammo,cdrec,svd_impute,soft_impute,svt,grouse,rosl,"
        "stmvl,tkcm,mean,linear_interp,knn_impute"},
};

/// Pins what the three training entry points learn on a fixed corpus, at 1
/// and at `TestThreadCount()` threads: 13 series each of Climate, Power and
/// Motion train the engine, the last 3 of each are the appended delta, and
/// the delta masked with one single block is the probe set. gamma = 0 keeps
/// wall-clock out of the race, so every pinned value is exact.
TEST(TrainingGoldenTest, TrainAppendAndTrainFromLabeledArePinned) {
  data::GeneratorOptions gopts;
  gopts.num_series = 16;
  gopts.length = 160;
  gopts.seed = 1;
  std::vector<ts::TimeSeries> corpus;
  std::vector<ts::TimeSeries> delta;
  for (data::Category c : {data::Category::kClimate, data::Category::kPower,
                           data::Category::kMotion}) {
    std::vector<ts::TimeSeries> series = data::GenerateCategory(c, gopts);
    for (std::size_t i = 0; i < series.size(); ++i) {
      (i < 13 ? corpus : delta).push_back(std::move(series[i]));
    }
  }
  std::vector<ts::TimeSeries> probes = delta;
  Rng mask_rng(5);
  for (ts::TimeSeries& p : probes) {
    ASSERT_TRUE(ts::InjectPattern(ts::MissingPattern::kSingleBlock, 0.1,
                                  &mask_rng, &p)
                    .ok());
  }

  TrainOptions options;
  options.race.gamma = 0.0;  // no wall-clock term enters the race
  UpdateOptions update;
  update.race.gamma = 0.0;

  for (std::size_t threads : {std::size_t{1}, testing::TestThreadCount()}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecContext train_ctx(threads);
    Result<Adarts> engine = Adarts::Train(corpus, options, train_ctx);
    ASSERT_TRUE(engine.ok()) << engine.status();
    ExpectDigest(DigestOf(*engine, probes), kTrained);
    const ml::Dataset rows = engine->training_data();

    ExecContext append_ctx(threads);
    ASSERT_TRUE(engine->AppendSeries(delta, update, append_ctx).ok());
    ExpectDigest(DigestOf(*engine, probes), kAppended);

    ExecContext labeled_ctx(threads);
    Result<Adarts> from_labeled = Adarts::TrainFromLabeled(
        rows, engine->algorithm_pool(), options.features, options.race, 99,
        labeled_ctx);
    ASSERT_TRUE(from_labeled.ok()) << from_labeled.status();
    ExpectDigest(DigestOf(*from_labeled, probes), kFromLabeled);
  }
}

}  // namespace
}  // namespace adarts
