#include <cmath>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"
#include "features/coverage.h"
#include "features/feature_extractor.h"
#include "tests/test_util.h"
#include "ts/missing.h"

namespace adarts::features {
namespace {

using ::adarts::testing::MakeSine;

TEST(InterpolateMissingTest, LinearGapFill) {
  ts::TimeSeries s({0.0, 99.0, 99.0, 3.0}, {false, true, true, false});
  const la::Vector filled = InterpolateMissing(s);
  EXPECT_DOUBLE_EQ(filled[1], 1.0);
  EXPECT_DOUBLE_EQ(filled[2], 2.0);
  EXPECT_DOUBLE_EQ(filled[0], 0.0);
  EXPECT_DOUBLE_EQ(filled[3], 3.0);
}

TEST(InterpolateMissingTest, EdgeGapsUseNearestObserved) {
  ts::TimeSeries s({9.0, 5.0, 9.0}, {true, false, true});
  const la::Vector filled = InterpolateMissing(s);
  EXPECT_DOUBLE_EQ(filled[0], 5.0);
  EXPECT_DOUBLE_EQ(filled[2], 5.0);
}

TEST(FeatureExtractorTest, SchemaMatchesOptions) {
  FeatureExtractorOptions both;
  FeatureExtractorOptions stat_only;
  stat_only.topological = false;
  FeatureExtractorOptions topo_only;
  topo_only.statistical = false;

  const FeatureExtractor fe_both(both);
  const FeatureExtractor fe_stat(stat_only);
  const FeatureExtractor fe_topo(topo_only);
  EXPECT_EQ(fe_both.NumFeatures(),
            fe_stat.NumFeatures() + fe_topo.NumFeatures());
  EXPECT_EQ(fe_topo.NumFeatures(), 16u);

  // Names are unique.
  std::set<std::string> names;
  for (const auto& info : fe_both.Schema()) names.insert(info.name);
  EXPECT_EQ(names.size(), fe_both.NumFeatures());
}

TEST(FeatureExtractorTest, VectorLengthMatchesSchema) {
  const FeatureExtractor fe{FeatureExtractorOptions{}};
  auto f = fe.Extract(MakeSine(128, 16.0, 0.05));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->size(), fe.NumFeatures());
}

TEST(FeatureExtractorTest, DeterministicForSameSeries) {
  const FeatureExtractor fe{FeatureExtractorOptions{}};
  const ts::TimeSeries s = MakeSine(100, 20.0, 0.1);
  auto f1 = fe.Extract(s);
  auto f2 = fe.Extract(s);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(*f1, *f2);
}

TEST(FeatureExtractorTest, RejectsTooShortSeries) {
  const FeatureExtractor fe{FeatureExtractorOptions{}};
  EXPECT_FALSE(fe.Extract(ts::TimeSeries({1.0, 2.0, 3.0})).ok());
}

TEST(FeatureExtractorTest, CanonicalFeaturesCorrect) {
  FeatureExtractorOptions opts;
  opts.topological = false;
  const FeatureExtractor fe(opts);
  // Constant-plus-ramp series with known stats.
  la::Vector v(100);
  for (std::size_t i = 0; i < 100; ++i) v[i] = static_cast<double>(i);
  auto f = fe.Extract(ts::TimeSeries(v));
  ASSERT_TRUE(f.ok());
  const auto& schema = fe.Schema();
  const auto at = [&](const std::string& name) {
    for (std::size_t i = 0; i < schema.size(); ++i) {
      if (schema[i].name == name) return (*f)[i];
    }
    ADD_FAILURE() << "missing feature " << name;
    return 0.0;
  };
  EXPECT_NEAR(at("mean"), 49.5, 1e-9);
  EXPECT_NEAR(at("min"), 0.0, 1e-9);
  EXPECT_NEAR(at("max"), 99.0, 1e-9);
  EXPECT_NEAR(at("range"), 99.0, 1e-9);
  EXPECT_NEAR(at("median"), 49.5, 1e-9);
  EXPECT_NEAR(at("skewness"), 0.0, 1e-6);
  EXPECT_NEAR(at("linear_trend_r2"), 1.0, 1e-9);
  EXPECT_GT(at("linear_trend_slope"), 0.0);
}

TEST(FeatureExtractorTest, SeasonalityDetectedOnPeriodicSignal) {
  FeatureExtractorOptions opts;
  opts.topological = false;
  const FeatureExtractor fe(opts);
  auto periodic = fe.Extract(MakeSine(256, 16.0));
  Rng rng(21);
  la::Vector noise_values(256);
  for (double& x : noise_values) x = rng.Normal(0, 1);
  auto noise = fe.Extract(ts::TimeSeries(noise_values));
  ASSERT_TRUE(periodic.ok());
  ASSERT_TRUE(noise.ok());
  const auto& schema = fe.Schema();
  std::size_t season_idx = 0, entropy_idx = 0;
  for (std::size_t i = 0; i < schema.size(); ++i) {
    if (schema[i].name == "seasonality_strength") season_idx = i;
    if (schema[i].name == "spectral_entropy") entropy_idx = i;
  }
  EXPECT_GT((*periodic)[season_idx], 0.8);
  EXPECT_LT((*noise)[season_idx], 0.4);
  EXPECT_LT((*periodic)[entropy_idx], (*noise)[entropy_idx]);
}

TEST(FeatureExtractorTest, WorksOnIncompleteSeries) {
  const FeatureExtractor fe{FeatureExtractorOptions{}};
  ts::TimeSeries s = MakeSine(128, 16.0, 0.05);
  Rng rng(22);
  ASSERT_TRUE(ts::InjectSingleBlock(12, &rng, &s).ok());
  auto f = fe.Extract(s);
  ASSERT_TRUE(f.ok());
  for (double x : *f) {
    EXPECT_TRUE(std::isfinite(x));
  }
}

TEST(FeatureExtractorTest, TopologicalSeparatesPeriodicFromNoise) {
  FeatureExtractorOptions opts;
  opts.statistical = false;
  const FeatureExtractor fe(opts);
  auto periodic = fe.Extract(MakeSine(128, 16.0));
  Rng rng(23);
  la::Vector nv(128);
  for (double& x : nv) x = rng.Normal(0, 1);
  auto noise = fe.Extract(ts::TimeSeries(nv));
  ASSERT_TRUE(periodic.ok());
  ASSERT_TRUE(noise.ok());
  std::size_t h1_max_idx = 0;
  for (std::size_t i = 0; i < fe.Schema().size(); ++i) {
    if (fe.Schema()[i].name == "h1_max_persistence") h1_max_idx = i;
  }
  EXPECT_GT((*periodic)[h1_max_idx], (*noise)[h1_max_idx]);
}

TEST(FeatureExtractorTest, BatchMatchesIndividualExtraction) {
  const FeatureExtractor fe{FeatureExtractorOptions{}};
  std::vector<ts::TimeSeries> set = {MakeSine(64, 8.0, 0.1, 1),
                                     MakeSine(64, 16.0, 0.1, 2)};
  auto batch = fe.ExtractBatch(set);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 2u);
  EXPECT_EQ((*batch)[0], fe.Extract(set[0]).value());
  EXPECT_EQ((*batch)[1], fe.Extract(set[1]).value());
}

TEST(FeatureExtractorTest, GoldenDigestPerCategory) {
  // FNV-1a over the raw bytes of the default extractor's vector for one
  // masked series per category, recorded from the reference extractor.
  const std::uint64_t kGolden[data::kNumCategories] = {
      0x5c5a7d1039ef8460ULL, 0xdcbf822d48eb23cfULL, 0x0b1cff3e065f310aULL,
      0xf947e96692a01d46ULL, 0x03d7448344e38cd0ULL, 0xe01a2c5b81b0df78ULL};
  const FeatureExtractor fe{FeatureExtractorOptions{}};
  data::GeneratorOptions gopts;
  gopts.num_series = 1;
  gopts.length = 192;
  Rng rng(11);
  for (data::Category c : data::AllCategories()) {
    ts::TimeSeries s = data::GenerateCategory(c, gopts)[0];
    ASSERT_TRUE(
        ts::InjectPattern(ts::MissingPattern::kSingleBlock, 0.1, &rng, &s)
            .ok());
    auto f = fe.Extract(s);
    ASSERT_TRUE(f.ok()) << f.status();
    EXPECT_EQ(adarts::testing::BytesFnv(*f), kGolden[static_cast<int>(c)])
        << data::CategoryToString(c);
  }
}

TEST(CoverageTest, SingleDatasetFullCoverageOfItsRange) {
  // One dataset spanning the full normalised range with many samples.
  std::vector<std::vector<la::Vector>> per_dataset(1);
  for (int i = 0; i < 100; ++i) {
    per_dataset[0].push_back({static_cast<double>(i) / 99.0});
  }
  auto report = ComputeFeatureCoverage(per_dataset, 10);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->coverage(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(report->feature_presence[0], 1.0);
}

TEST(CoverageTest, DisjointDatasetsCoverDifferentBuckets) {
  std::vector<std::vector<la::Vector>> per_dataset(2);
  for (int i = 0; i < 50; ++i) {
    per_dataset[0].push_back({static_cast<double>(i) / 100.0});        // low half
    per_dataset[1].push_back({0.5 + static_cast<double>(i) / 100.0});  // high half
  }
  auto report = ComputeFeatureCoverage(per_dataset, 10);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->coverage(0, 0), 0.5, 0.11);
  EXPECT_NEAR(report->coverage(0, 1), 0.5, 0.11);
}

TEST(CoverageTest, RejectsInconsistentDimensions) {
  std::vector<std::vector<la::Vector>> per_dataset(1);
  per_dataset[0].push_back({1.0, 2.0});
  per_dataset[0].push_back({1.0});
  EXPECT_FALSE(ComputeFeatureCoverage(per_dataset, 10).ok());
}

TEST(CoverageTest, RejectsEmptyInput) {
  EXPECT_FALSE(ComputeFeatureCoverage({}, 10).ok());
}

TEST(MissingnessFeaturesTest, DescribesGapStructure) {
  FeatureExtractorOptions opts;
  opts.statistical = false;
  opts.topological = false;
  opts.missingness = true;
  const FeatureExtractor fe(opts);
  ASSERT_EQ(fe.NumFeatures(), 8u);

  // Two gaps: [10, 20) and [40, 44) in a series of length 100.
  ts::TimeSeries s = MakeSine(100, 20.0);
  for (std::size_t i = 10; i < 20; ++i) s.SetMissing(i, true);
  for (std::size_t i = 40; i < 44; ++i) s.SetMissing(i, true);
  auto f = fe.Extract(s);
  ASSERT_TRUE(f.ok());
  const auto at = [&](const char* name) {
    for (std::size_t i = 0; i < fe.Schema().size(); ++i) {
      if (fe.Schema()[i].name == name) return (*f)[i];
    }
    ADD_FAILURE() << name;
    return -1.0;
  };
  EXPECT_NEAR(at("missing_fraction"), 0.14, 1e-12);
  EXPECT_DOUBLE_EQ(at("gap_count"), 2.0);
  EXPECT_NEAR(at("max_gap_fraction"), 0.10, 1e-12);
  EXPECT_NEAR(at("mean_gap_fraction"), 0.07, 1e-12);
  EXPECT_NEAR(at("first_gap_position"), 0.10, 1e-12);
  EXPECT_NEAR(at("last_gap_end_position"), 0.44, 1e-12);
  EXPECT_DOUBLE_EQ(at("is_tip_gap"), 0.0);
  EXPECT_GT(at("gap_dispersion"), 0.0);
}

TEST(MissingnessFeaturesTest, TipGapFlagged) {
  FeatureExtractorOptions opts;
  opts.statistical = false;
  opts.topological = false;
  opts.missingness = true;
  const FeatureExtractor fe(opts);
  ts::TimeSeries s = MakeSine(100, 20.0);
  ASSERT_TRUE(ts::InjectTipBlock(0.2, &s).ok());
  auto f = fe.Extract(s);
  ASSERT_TRUE(f.ok());
  for (std::size_t i = 0; i < fe.Schema().size(); ++i) {
    if (fe.Schema()[i].name == "is_tip_gap") {
      EXPECT_DOUBLE_EQ((*f)[i], 1.0);
    }
    if (fe.Schema()[i].name == "last_gap_end_position") {
      EXPECT_DOUBLE_EQ((*f)[i], 1.0);
    }
  }
}

TEST(MissingnessFeaturesTest, CompleteSeriesHasNeutralDescriptors) {
  FeatureExtractorOptions opts;
  opts.missingness = true;
  const FeatureExtractor fe(opts);
  auto f = fe.Extract(MakeSine(64, 16.0));
  ASSERT_TRUE(f.ok());
  for (std::size_t i = 0; i < fe.Schema().size(); ++i) {
    if (fe.Schema()[i].group != FeatureGroup::kMissingness) continue;
    if (fe.Schema()[i].name == "first_gap_position") {
      EXPECT_DOUBLE_EQ((*f)[i], 1.0);  // "gap starts after the end"
    } else {
      EXPECT_DOUBLE_EQ((*f)[i], 0.0);
    }
  }
}

}  // namespace
}  // namespace adarts::features
