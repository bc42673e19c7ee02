#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "adarts/adarts.h"
#include "automl/model_race.h"
#include "automl/pipeline.h"
#include "automl/recommender.h"
#include "automl/synthesizer.h"
#include "common/exec_context.h"
#include "features/feature_extractor.h"
#include "tests/test_util.h"

namespace adarts::automl {
namespace {

using ::adarts::testing::MakeBlobs;

TEST(PipelineTest, ToStringDescribesComponents) {
  Pipeline p;
  p.classifier = ml::ClassifierKind::kKnn;
  p.params = ml::ResolveParams(ml::ClassifierKind::kKnn, {});
  p.scaler = ml::ScalerKind::kMinMax;
  const std::string s = p.ToString();
  EXPECT_NE(s.find("knn"), std::string::npos);
  EXPECT_NE(s.find("minmax"), std::string::npos);
  EXPECT_EQ(s.find("seed"), std::string::npos);  // seed hidden
}

TEST(PipelineTest, FitAndPredict) {
  const ml::Dataset train = MakeBlobs(3, 20, 4);
  Pipeline p;
  p.classifier = ml::ClassifierKind::kDecisionTree;
  p.params = ml::ResolveParams(p.classifier, {});
  p.scaler = ml::ScalerKind::kStandard;
  auto fitted = FitPipeline(p, train);
  ASSERT_TRUE(fitted.ok());
  const la::Vector probs = fitted->PredictProba(train.features[0]);
  EXPECT_EQ(probs.size(), 3u);
}

TEST(SynthesizerTest, SeedsCoverEveryClassifierFamily) {
  Synthesizer synth(1);
  const auto seeds = synth.SeedPipelines(24);
  EXPECT_EQ(seeds.size(), 24u);
  std::set<ml::ClassifierKind> kinds;
  for (const auto& p : seeds) kinds.insert(p.classifier);
  EXPECT_EQ(kinds.size(), static_cast<std::size_t>(ml::kNumClassifierKinds));
}

TEST(SynthesizerTest, SeedsHaveUniqueIds) {
  Synthesizer synth(2);
  const auto seeds = synth.SeedPipelines(30);
  std::set<std::uint64_t> ids;
  for (const auto& p : seeds) ids.insert(p.id);
  EXPECT_EQ(ids.size(), seeds.size());
}

TEST(SynthesizerTest, MutationChangesExactlyOneAspect) {
  Synthesizer synth(3);
  for (int trial = 0; trial < 50; ++trial) {
    const Pipeline parent = synth.RandomPipeline();
    const Pipeline child = synth.Mutate(parent);
    EXPECT_EQ(child.classifier, parent.classifier);  // family never changes
    int diffs = 0;
    for (const auto& [name, value] : parent.params) {
      if (name == "seed") continue;
      if (child.params.at(name) != value) ++diffs;
    }
    if (child.scaler != parent.scaler) ++diffs;
    if (child.scaler == parent.scaler &&
        child.scaler_param != parent.scaler_param) {
      ++diffs;
    }
    EXPECT_EQ(diffs, 1) << "parent " << parent.ToString() << " child "
                        << child.ToString();
  }
}

TEST(SynthesizerTest, MutatedParamsStayInRange) {
  Synthesizer synth(4);
  Pipeline p = synth.RandomPipeline();
  for (int i = 0; i < 100; ++i) {
    p = synth.Mutate(p);
    for (const auto& spec : ml::ParamSpecsFor(p.classifier)) {
      const double v = p.params.at(spec.name);
      EXPECT_GE(v, spec.min_value) << spec.name;
      EXPECT_LE(v, spec.max_value) << spec.name;
    }
  }
}

TEST(SynthesizerTest, SynthesizePerParentCount) {
  Synthesizer synth(5);
  const auto parents = synth.SeedPipelines(12);
  const auto children = synth.Synthesize(parents, 3);
  EXPECT_EQ(children.size(), 36u);
}

TEST(ModelRaceTest, ProducesElitesOnSeparableData) {
  const ml::Dataset train = MakeBlobs(3, 40, 4, 21);
  ModelRaceOptions opts;
  opts.num_seed_pipelines = 12;
  opts.num_partial_sets = 2;
  opts.num_folds = 2;
  ExecContext ctx;
  auto report = RunModelRace(train, opts, ctx);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->elites.empty());
  EXPECT_LE(report->elites.size(), opts.max_survivors);
  // Elites sorted by mean score and performing sensibly on easy data.
  for (std::size_t i = 1; i < report->elites.size(); ++i) {
    EXPECT_GE(report->elites[i - 1].mean_score, report->elites[i].mean_score);
  }
  EXPECT_GT(report->elites[0].mean_f1, 0.7);
  EXPECT_GT(report->pipelines_evaluated, 0u);
}

TEST(ModelRaceTest, PruningActuallyHappens) {
  const ml::Dataset train = MakeBlobs(3, 40, 4, 23);
  ModelRaceOptions opts;
  opts.num_seed_pipelines = 16;
  opts.num_partial_sets = 2;
  opts.num_folds = 2;
  ExecContext ctx;
  auto report = RunModelRace(train, opts, ctx);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->pipelines_pruned_early + report->pipelines_pruned_ttest,
            0u);
}

TEST(ModelRaceTest, MultipleWinnersSurvive) {
  // The signature property vs FLAML-style single-winner searches: when the
  // data leaves genuine ambiguity between pipelines, more than one winner
  // survives the t-test band. On a trivially separable problem all
  // pipelines are statistically identical and collapsing to one is correct,
  // so this uses overlapping blobs and checks across seeds.
  Rng noise_rng(77);
  ml::Dataset train = MakeBlobs(4, 30, 5, 25);
  for (auto& f : train.features) {
    for (double& v : f) v += noise_rng.Normal(0.0, 2.5);
  }
  std::size_t max_winners = 0;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    ModelRaceOptions opts;
    opts.num_seed_pipelines = 16;
    opts.num_partial_sets = 3;
    opts.seed = seed;
    ExecContext ctx;
    auto report = RunModelRace(train, opts, ctx);
    ASSERT_TRUE(report.ok());
    max_winners = std::max(max_winners, report->elites.size());
  }
  EXPECT_GE(max_winners, 2u);
}

TEST(ModelRaceTest, TinyEarlyPartialSetsAreSkippedNotForced) {
  // 8 samples over 4 growing partial sets gives partials of sizes 2, 4, 6
  // and 8. The 2-sample partial cannot support a 2-fold split (the old
  // clamp forced k back up to 2 and asked StratifiedKFoldIndices for more
  // folds than samples); it must now be skipped while the larger partials
  // carry the race.
  const ml::Dataset train = MakeBlobs(2, 4, 3, 31);
  ModelRaceOptions opts;
  opts.num_seed_pipelines = 6;
  opts.num_partial_sets = 4;
  opts.num_folds = 2;
  ExecContext ctx;
  auto report = RunModelRace(train, opts, ctx);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->elites.empty());
}

TEST(ModelRaceTest, AllPartialsTinyIsInvalidArgument) {
  // 2 samples total: every partial set is below the 4-sample floor, so the
  // race cannot run a single iteration and must say so clearly instead of
  // failing deep inside the fold split.
  const ml::Dataset train = MakeBlobs(2, 1, 3, 33);
  ModelRaceOptions opts;
  opts.num_seed_pipelines = 6;
  opts.num_partial_sets = 1;
  opts.num_folds = 2;
  ExecContext ctx;
  auto report = RunModelRace(train, opts, ctx);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(ModelRaceTest, RejectsBadOptions) {
  const ml::Dataset d = MakeBlobs(2, 10, 2);
  ModelRaceOptions opts;
  opts.num_folds = 1;
  ExecContext ctx;
  EXPECT_FALSE(RunModelRace(d, opts, ctx).ok());
}

TEST(RecommenderTest, SoftVotingAveragesCommittee) {
  const ml::Dataset train = MakeBlobs(3, 40, 4, 27);
  const ml::Dataset test = MakeBlobs(3, 15, 4, 28);
  ModelRaceOptions opts;
  opts.num_seed_pipelines = 12;
  opts.num_partial_sets = 2;
  ExecContext ctx;
  auto report = RunModelRace(train, opts, ctx);
  ASSERT_TRUE(report.ok());
  auto rec = VotingRecommender::FromRace(*report, train, ctx);
  ASSERT_TRUE(rec.ok());
  EXPECT_GE(rec->committee_size(), 1u);

  const la::Vector probs = rec->PredictProba(test.features[0]);
  EXPECT_EQ(probs.size(), 3u);
  double sum = 0.0;
  for (double p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);

  // The committee should classify easy blobs well.
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const la::Vector p = rec->PredictProba(test.features[i]);
    const auto top = std::max_element(p.begin(), p.end()) - p.begin();
    if (top == test.labels[i]) ++correct;
  }
  EXPECT_GE(correct, static_cast<int>(test.size()) * 7 / 10);
}

TEST(RecommenderTest, RankingIsPermutationOrderedByProbability) {
  // The ranking is derived from the committee's soft vote inside the
  // engine's recommend core, so the committee is fitted on features of real
  // series: four sine families, one class per algorithm of the pool.
  features::FeatureExtractorOptions feature_options;
  feature_options.landmarks = 16;
  const features::FeatureExtractor extractor(feature_options);
  ml::Dataset labeled;
  labeled.num_classes = 4;
  for (int c = 0; c < 4; ++c) {
    for (std::uint64_t i = 0; i < 12; ++i) {
      auto f = extractor.Extract(
          testing::MakeSine(96, 6.0 + 6.0 * c, 0.1, 31 + i));
      ASSERT_TRUE(f.ok()) << f.status();
      labeled.features.push_back(std::move(*f));
      labeled.labels.push_back(c);
    }
  }
  const std::vector<impute::Algorithm> pool = {
      impute::Algorithm::kCdRec, impute::Algorithm::kTkcm,
      impute::Algorithm::kLinearInterp, impute::Algorithm::kMeanImpute};
  ModelRaceOptions opts;
  opts.num_seed_pipelines = 12;
  opts.num_partial_sets = 2;
  ExecContext ctx;
  auto engine =
      Adarts::TrainFromLabeled(labeled, pool, feature_options, opts, 29, ctx);
  ASSERT_TRUE(engine.ok()) << engine.status();

  const ts::TimeSeries series = testing::MakeSine(96, 12.0, 0.1, 99);
  auto rec = engine->RecommendEx(series);
  ASSERT_TRUE(rec.ok()) << rec.status();
  // A degraded vote would rank by the fallback rule, not by probability.
  ASSERT_EQ(rec->degradation, DegradationLevel::kFullCommittee);
  const std::vector<impute::Algorithm>& ranking = rec->ranking;
  EXPECT_EQ(ranking.size(), 4u);
  std::set<impute::Algorithm> unique(ranking.begin(), ranking.end());
  EXPECT_EQ(unique.size(), 4u);
  auto features = engine->ExtractFeatures(series);
  ASSERT_TRUE(features.ok());
  const la::Vector p = engine->PredictProba(*features);
  const auto class_of = [&](impute::Algorithm a) {
    return static_cast<std::size_t>(std::find(pool.begin(), pool.end(), a) -
                                    pool.begin());
  };
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_GE(p[class_of(ranking[i - 1])], p[class_of(ranking[i])]);
  }
  EXPECT_EQ(ranking[0], rec->algorithm);
}

}  // namespace
}  // namespace adarts::automl
