#include <gtest/gtest.h>

#include "cluster/clustering.h"
#include "common/exec_context.h"
#include "data/forecast_data.h"
#include "data/generators.h"
#include "ts/acf.h"
#include "ts/fft.h"

namespace adarts::data {
namespace {

GeneratorOptions SmallOpts() {
  GeneratorOptions opts;
  opts.num_series = 10;
  opts.length = 192;
  return opts;
}

class CategoryTest : public ::testing::TestWithParam<Category> {};

TEST_P(CategoryTest, GeneratesRequestedShape) {
  const auto series = GenerateCategory(GetParam(), SmallOpts());
  ASSERT_EQ(series.size(), 10u);
  for (const auto& s : series) {
    EXPECT_EQ(s.length(), 192u);
    EXPECT_FALSE(s.HasMissing());
    EXPECT_FALSE(s.name().empty());
  }
}

TEST_P(CategoryTest, DeterministicForSameOptions) {
  const auto a = GenerateCategory(GetParam(), SmallOpts());
  const auto b = GenerateCategory(GetParam(), SmallOpts());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].values(), b[i].values());
  }
}

TEST_P(CategoryTest, VariantsDiffer) {
  GeneratorOptions v0 = SmallOpts();
  GeneratorOptions v1 = SmallOpts();
  v1.variant = 1;
  const auto a = GenerateCategory(GetParam(), v0);
  const auto b = GenerateCategory(GetParam(), v1);
  EXPECT_NE(a[0].values(), b[0].values());
}

INSTANTIATE_TEST_SUITE_P(
    AllCategories, CategoryTest, ::testing::ValuesIn(AllCategories()),
    [](const ::testing::TestParamInfo<Category>& info) {
      return std::string(CategoryToString(info.param));
    });

TEST(CategoryTraitsTest, ClimateIsHighlyCorrelated) {
  const auto climate = GenerateCategory(Category::kClimate, SmallOpts());
  ExecContext ctx(1);
  const la::Matrix corr = cluster::PairwiseCorrelationMatrix(climate, ctx);
  double total = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < climate.size(); ++i) {
    for (std::size_t j = i + 1; j < climate.size(); ++j) {
      total += corr(i, j);
      ++pairs;
    }
  }
  EXPECT_GT(total / static_cast<double>(pairs), 0.9);
}

TEST(CategoryTraitsTest, MotionIsWeaklyCorrelated) {
  // Variant 1 models independent subjects (variant 0 is a coupled
  // multi-sensor rig on one body and is legitimately correlated).
  GeneratorOptions opts = SmallOpts();
  opts.variant = 1;
  const auto motion = GenerateCategory(Category::kMotion, opts);
  ExecContext ctx(1);
  const la::Matrix corr = cluster::PairwiseCorrelationMatrix(motion, ctx);
  double total = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < motion.size(); ++i) {
    for (std::size_t j = i + 1; j < motion.size(); ++j) {
      total += std::fabs(corr(i, j));
      ++pairs;
    }
  }
  EXPECT_LT(total / static_cast<double>(pairs), 0.4);
}

TEST(CategoryTraitsTest, PowerAndClimateArePeriodic) {
  for (Category c : {Category::kPower, Category::kClimate}) {
    const auto series = GenerateCategory(c, SmallOpts());
    const double period = ts::EstimatePeriod(series[0].values());
    EXPECT_GT(period, 4.0) << CategoryToString(c);
    EXPECT_LT(period, 96.0) << CategoryToString(c);
  }
}

TEST(CategoryTraitsTest, WaterHasOutliers) {
  GeneratorOptions opts = SmallOpts();
  opts.length = 512;
  const auto water = GenerateCategory(Category::kWater, opts);
  // The underlying discharge trend is smooth (tiny increments); anomaly
  // spikes show up as huge jumps in the differenced series.
  bool found_outlier = false;
  for (const auto& s : water) {
    la::Vector diffs(s.length() - 1);
    for (std::size_t t = 1; t < s.length(); ++t) {
      diffs[t - 1] = s.value(t) - s.value(t - 1);
    }
    const double sd = la::StdDev(diffs);
    for (double d : diffs) {
      if (std::fabs(d - la::Mean(diffs)) > 3.5 * sd) {
        found_outlier = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found_outlier);
}

TEST(CategoryTraitsTest, LightningHasMixedCorrelationSigns) {
  // Variant 2 is the mixed deployment (half synced, half independent).
  GeneratorOptions opts = SmallOpts();
  opts.num_series = 12;
  opts.length = 384;
  opts.variant = 2;
  const auto lightning = GenerateCategory(Category::kLightning, opts);
  ExecContext ctx(1);
  const la::Matrix corr = cluster::PairwiseCorrelationMatrix(lightning, ctx);
  bool has_high = false, has_low = false;
  for (std::size_t i = 0; i < lightning.size(); ++i) {
    for (std::size_t j = i + 1; j < lightning.size(); ++j) {
      if (std::fabs(corr(i, j)) > 0.5) has_high = true;
      if (std::fabs(corr(i, j)) < 0.15) has_low = true;
    }
  }
  EXPECT_TRUE(has_high);
  EXPECT_TRUE(has_low);
}

TEST(CategoryTraitsTest, MedicalIsSpiky) {
  const auto medical = GenerateCategory(Category::kMedical, SmallOpts());
  // Excess kurtosis of a pulse train is clearly positive.
  const la::Vector& v = medical[0].values();
  const double mean = la::Mean(v);
  const double sd = la::StdDev(v);
  double kurt = 0.0;
  for (double x : v) kurt += std::pow((x - mean) / sd, 4.0);
  kurt = kurt / static_cast<double>(v.size()) - 3.0;
  EXPECT_GT(kurt, 1.0);
}

TEST(MixedCorpusTest, ContainsEveryCategory) {
  GeneratorOptions opts;
  opts.num_series = 4;
  opts.length = 128;
  const auto corpus = GenerateMixedCorpus(2, opts);
  EXPECT_EQ(corpus.size(), 6u * 2u * 4u);
}

TEST(ForecastDataTest, AllNamedDatasetsGenerate) {
  for (const std::string& name : ForecastDatasetNames()) {
    const auto series = GenerateForecastDataset(name, 5, 256, 1);
    ASSERT_EQ(series.size(), 5u) << name;
    for (const auto& s : series) {
      EXPECT_EQ(s.length(), 256u);
    }
  }
  EXPECT_EQ(ForecastDatasetNames().size(), 7u);
}

TEST(ForecastDataTest, SeasonalDatasetsHaveDetectablePeriod) {
  const auto solar = GenerateForecastDataset("Solar", 3, 512, 2);
  const la::Vector acf = ts::Acf(solar[0].values(), 30);
  EXPECT_GT(acf[24], 0.4);  // daily cycle
}

TEST(ForecastDataTest, DeterministicPerSeed) {
  const auto a = GenerateForecastDataset("ATM", 3, 128, 7);
  const auto b = GenerateForecastDataset("ATM", 3, 128, 7);
  EXPECT_EQ(a[0].values(), b[0].values());
  const auto c = GenerateForecastDataset("ATM", 3, 128, 8);
  EXPECT_NE(a[0].values(), c[0].values());
}

}  // namespace
}  // namespace adarts::data
