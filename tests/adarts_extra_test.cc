// Additional coverage of the facade and race options: exhaustive-labeling
// training path, race option edge cases, committee quality gate, the
// feature extractor's configurable embedding, and the batched inference
// entry points (RecommendBatch / RepairSet).

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "adarts/adarts.h"
#include "automl/model_race.h"
#include "automl/synthesizer.h"
#include "common/exec_context.h"
#include "common/rng.h"
#include "data/generators.h"
#include "tests/test_util.h"
#include "ts/missing.h"

namespace adarts {
namespace {

using ::adarts::testing::MakeBlobs;

std::vector<ts::TimeSeries> TinyCorpus(std::size_t per_category = 10) {
  data::GeneratorOptions gopts;
  gopts.num_series = per_category;
  gopts.length = 144;
  std::vector<ts::TimeSeries> corpus;
  for (data::Category c : {data::Category::kClimate, data::Category::kMotion}) {
    for (auto& s : data::GenerateCategory(c, gopts)) {
      corpus.push_back(std::move(s));
    }
  }
  return corpus;
}

TrainOptions TinyTrainOptions() {
  TrainOptions opts;
  opts.labeling.algorithms = {impute::Algorithm::kCdRec,
                              impute::Algorithm::kTkcm,
                              impute::Algorithm::kLinearInterp};
  opts.race.num_seed_pipelines = 12;
  opts.race.num_partial_sets = 2;
  opts.race.num_folds = 2;
  opts.features.landmarks = 12;
  return opts;
}

TEST(AdartsTrainPathsTest, TrainingDataRetainedAndValid) {
  ExecContext ctx;
  auto engine = Adarts::Train(TinyCorpus(), TinyTrainOptions(), ctx);
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->training_data().Validate().ok());
  EXPECT_EQ(engine->training_data().dim(),
            engine->feature_extractor().NumFeatures());
}

TEST(AdartsTrainPathsTest, CustomFeatureOptionsPropagate) {
  TrainOptions opts = TinyTrainOptions();
  opts.features.topological = false;
  ExecContext ctx;
  auto engine = Adarts::Train(TinyCorpus(), opts, ctx);
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->feature_extractor().options().topological);
  // A recommendation still works with the reduced schema.
  data::GeneratorOptions gopts;
  gopts.num_series = 1;
  gopts.length = 144;
  gopts.seed = 5;
  ts::TimeSeries faulty =
      data::GenerateCategory(data::Category::kClimate, gopts)[0];
  Rng rng(3);
  ASSERT_TRUE(ts::InjectSingleBlock(12, &rng, &faulty).ok());
  EXPECT_TRUE(engine->Recommend(faulty, ctx).ok());
}

TEST(ModelRaceOptionsTest, MaxSurvivorsCapIsRespected) {
  const ml::Dataset train = MakeBlobs(3, 40, 4, 51);
  automl::ModelRaceOptions opts;
  opts.num_seed_pipelines = 24;
  opts.max_survivors = 3;
  // Keep everything alive except the cap: huge margin, no t-test prunes.
  opts.early_termination_margin = 1e9;
  opts.ttest_worse_pvalue = 0.0;
  opts.ttest_similarity_pvalue = 1.1;
  ExecContext ctx;
  auto report = automl::RunModelRace(train, opts, ctx);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->elites.size(), 3u);
}

TEST(ModelRaceOptionsTest, TinyEarlyTerminationMarginPrunesAggressively) {
  const ml::Dataset train = MakeBlobs(3, 40, 4, 53);
  automl::ModelRaceOptions loose;
  loose.num_seed_pipelines = 20;
  loose.early_termination_margin = 1e9;
  automl::ModelRaceOptions tight = loose;
  tight.early_termination_margin = 0.02;
  ExecContext ctx;
  auto loose_report = automl::RunModelRace(train, loose, ctx);
  auto tight_report = automl::RunModelRace(train, tight, ctx);
  ASSERT_TRUE(loose_report.ok());
  ASSERT_TRUE(tight_report.ok());
  EXPECT_GT(tight_report->pipelines_pruned_early,
            loose_report->pipelines_pruned_early);
  EXPECT_LT(tight_report->pipelines_evaluated,
            loose_report->pipelines_evaluated);
}

TEST(ModelRaceOptionsTest, ScoreCoefficientsAllZeroTimeStillRuns) {
  const ml::Dataset train = MakeBlobs(2, 30, 3, 55);
  automl::ModelRaceOptions opts;
  opts.num_seed_pipelines = 12;
  opts.num_partial_sets = 2;
  opts.gamma = 0.0;  // pure-effectiveness scoring
  ExecContext ctx;
  auto report = automl::RunModelRace(train, opts, ctx);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->elites.empty());
}

TEST(CommitteeGateTest, GateDropsTrailingElites) {
  // Construct a report whose second elite trails the first by more than the
  // 0.1 gate: the committee must contain only the leader.
  const ml::Dataset train = MakeBlobs(2, 25, 3, 56);
  automl::Synthesizer synth(57);
  automl::ModelRaceReport report;
  automl::RacedPipeline strong;
  strong.spec = synth.SeedPipelines(1)[0];
  strong.mean_score = 0.9;
  automl::RacedPipeline weak;
  weak.spec = synth.SeedPipelines(2)[1];
  weak.mean_score = 0.3;
  report.elites = {strong, weak};
  ExecContext ctx(1);
  auto rec = automl::VotingRecommender::FromRace(report, train, ctx);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->committee_size(), 1u);
}

TEST(CommitteeGateTest, CloseElitesAllVote) {
  const ml::Dataset train = MakeBlobs(2, 25, 3, 58);
  automl::Synthesizer synth(59);
  automl::ModelRaceReport report;
  const auto seeds = synth.SeedPipelines(3);
  for (std::size_t i = 0; i < 3; ++i) {
    automl::RacedPipeline rp;
    rp.spec = seeds[i];
    rp.mean_score = 0.8 - 0.03 * static_cast<double>(i);  // within the gate
    report.elites.push_back(std::move(rp));
  }
  ExecContext ctx(1);
  auto rec = automl::VotingRecommender::FromRace(report, train, ctx);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->committee_size(), 3u);
}

/// A batch of faulty probes spanning two categories, so the committee does
/// not trivially recommend one algorithm for every element.
std::vector<ts::TimeSeries> FaultyProbes(std::size_t per_category,
                                         std::uint64_t seed = 63) {
  data::GeneratorOptions gopts;
  gopts.num_series = per_category;
  gopts.length = 144;
  gopts.seed = seed;
  std::vector<ts::TimeSeries> probes;
  for (data::Category c : {data::Category::kClimate, data::Category::kMotion}) {
    for (auto& s : data::GenerateCategory(c, gopts)) {
      probes.push_back(std::move(s));
    }
  }
  Rng rng(9);
  for (auto& s : probes) {
    EXPECT_TRUE(ts::InjectSingleBlock(12, &rng, &s).ok());
  }
  return probes;
}

TEST(BatchInferenceTest, RecommendBatchAgreesWithPerSeriesRecommend) {
  ExecContext train_ctx;
  auto engine = Adarts::Train(TinyCorpus(), TinyTrainOptions(), train_ctx);
  ASSERT_TRUE(engine.ok()) << engine.status();
  const auto probes = FaultyProbes(4);
  ExecContext ctx(testing::TestThreadCount());
  auto batch = engine->RecommendBatch(probes, {}, ctx);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), probes.size());
  // Element i of the batch is series i's recommendation: order preserved,
  // values identical to the per-series calls.
  for (std::size_t i = 0; i < probes.size(); ++i) {
    auto single = engine->Recommend(probes[i], ctx);
    ASSERT_TRUE(single.ok()) << single.status();
    EXPECT_EQ((*batch)[i], *single) << "series " << i;
  }
}

TEST(BatchInferenceTest, RecommendBatchBitIdenticalAcrossThreadCounts) {
  ExecContext train_ctx;
  auto engine = Adarts::Train(TinyCorpus(), TinyTrainOptions(), train_ctx);
  ASSERT_TRUE(engine.ok()) << engine.status();
  const auto probes = FaultyProbes(3, 71);
  ExecContext serial_ctx(1);
  auto reference = engine->RecommendBatch(probes, {}, serial_ctx);
  ASSERT_TRUE(reference.ok()) << reference.status();
  for (std::size_t threads : {std::size_t{2}, testing::TestThreadCount()}) {
    ExecContext ctx(threads);
    auto batch = engine->RecommendBatch(probes, {}, ctx);
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_EQ(*batch, *reference) << "threads=" << threads;
  }
}

TEST(BatchInferenceTest, RecommendBatchEmptyBatchYieldsEmptyVector) {
  ExecContext ctx;
  auto engine = Adarts::Train(TinyCorpus(), TinyTrainOptions(), ctx);
  ASSERT_TRUE(engine.ok());
  auto batch = engine->RecommendBatch({}, {}, ctx);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_TRUE(batch->empty());
}

TEST(BatchInferenceTest, RepairSetMatchesSerialSeedBehavior) {
  // Golden check: the batched RepairSet must reproduce the seed's serial
  // semantics exactly — per-series recommendations, majority vote with ties
  // toward the smallest algorithm id, one ImputeSet with the winner.
  ExecContext train_ctx;
  auto engine = Adarts::Train(TinyCorpus(), TinyTrainOptions(), train_ctx);
  ASSERT_TRUE(engine.ok());
  const auto probes = FaultyProbes(3, 67);

  std::map<int, std::size_t> votes;
  for (const auto& s : probes) {
    auto algo = engine->Recommend(s, train_ctx);
    ASSERT_TRUE(algo.ok());
    ++votes[static_cast<int>(*algo)];
  }
  const auto winner = std::max_element(
      votes.begin(), votes.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  const auto golden_algo = static_cast<impute::Algorithm>(winner->first);
  auto golden = impute::CreateImputer(golden_algo)->ImputeSet(probes);
  ASSERT_TRUE(golden.ok());

  for (std::size_t threads : {std::size_t{1}, testing::TestThreadCount()}) {
    ExecContext ctx(threads);
    auto repaired = engine->RepairSet(probes, {}, ctx);
    ASSERT_TRUE(repaired.ok()) << repaired.status();
    ASSERT_EQ(repaired->size(), golden->size());
    for (std::size_t i = 0; i < golden->size(); ++i) {
      EXPECT_EQ((*repaired)[i].values(), (*golden)[i].values())
          << "series " << i << " threads " << threads;
    }
  }
}

TEST(BatchInferenceTest, RepairSetStillRejectsEmptySet) {
  ExecContext ctx;
  auto engine = Adarts::Train(TinyCorpus(), TinyTrainOptions(), ctx);
  ASSERT_TRUE(engine.ok());
  auto repaired = engine->RepairSet({}, {}, ctx);
  ASSERT_FALSE(repaired.ok());
  EXPECT_EQ(repaired.status().code(), StatusCode::kInvalidArgument);
}

TEST(RepairSetTest, MixedCompleteAndFaultySeries) {
  ExecContext ctx;
  auto engine = Adarts::Train(TinyCorpus(), TinyTrainOptions(), ctx);
  ASSERT_TRUE(engine.ok());
  data::GeneratorOptions gopts;
  gopts.num_series = 4;
  gopts.length = 144;
  gopts.seed = 61;
  auto set = data::GenerateCategory(data::Category::kClimate, gopts);
  Rng rng(7);
  // Only half of the set is faulty.
  ASSERT_TRUE(ts::InjectSingleBlock(10, &rng, &set[0]).ok());
  ASSERT_TRUE(ts::InjectSingleBlock(10, &rng, &set[2]).ok());
  auto repaired = engine->RepairSet(set, {}, ctx);
  ASSERT_TRUE(repaired.ok());
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_FALSE((*repaired)[i].HasMissing());
    // Complete series pass through untouched.
    if (!set[i].HasMissing()) {
      EXPECT_EQ((*repaired)[i].values(), set[i].values());
    }
  }
}

}  // namespace
}  // namespace adarts
