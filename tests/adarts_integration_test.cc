// End-to-end tests of the A-DARTS engine: cluster -> label -> extract ->
// race -> vote -> repair, on generated corpora.

#include <gtest/gtest.h>

#include "adarts/adarts.h"
#include "common/rng.h"
#include "data/generators.h"
#include "tests/test_util.h"
#include "ts/metrics.h"
#include "ts/missing.h"

namespace adarts {
namespace {

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

}  // namespace
}  // namespace adarts
