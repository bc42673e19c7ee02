#include <functional>
#include <ostream>

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "tests/test_util.h"

namespace adarts::baselines {
namespace {

using ::adarts::testing::MakeBlobs;

using Factory = std::function<std::unique_ptr<ModelSelector>(
    const BaselineOptions&)>;

struct BaselineCase {
  const char* name;
  Factory factory;
  bool supports_ranking;
};

// Without a printer gtest lists the parameter as the struct's raw bytes,
// which hold load addresses, so the ctest names changed on every build.
void PrintTo(const BaselineCase& c, std::ostream* os) { *os << c.name; }

class BaselineContractTest : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(BaselineContractTest, TrainsAndPredictsOnSeparableData) {
  BaselineOptions opts;
  opts.num_configurations = 10;
  auto selector = GetParam().factory(opts);
  ASSERT_NE(selector, nullptr);
  EXPECT_EQ(selector->name(), GetParam().name);

  const ml::Dataset train = MakeBlobs(3, 30, 4, 31);
  const ml::Dataset test = MakeBlobs(3, 10, 4, 32);
  ASSERT_TRUE(selector->Train(train).ok());

  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const la::Vector p = selector->PredictProba(test.features[i]);
    ASSERT_EQ(p.size(), 3u);
    double sum = 0.0;
    for (double v : p) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-6);
    if (selector->Recommend(test.features[i]) == test.labels[i]) ++correct;
  }
  EXPECT_GE(correct, 21) << GetParam().name;  // 70% on trivial blobs
}

TEST_P(BaselineContractTest, RankingSupportMatchesTableOne) {
  auto selector = GetParam().factory({});
  EXPECT_EQ(selector->SupportsRanking(), GetParam().supports_ranking);
}

INSTANTIATE_TEST_SUITE_P(
    AllBaselines, BaselineContractTest,
    ::testing::Values(
        BaselineCase{"flaml_lite", CreateFlamlLite, false},
        BaselineCase{"tune_lite", CreateTuneLite, false},
        BaselineCase{"autofolio_lite", CreateAutoFolioLite, false},
        BaselineCase{"raha_lite", CreateRahaLite, true}),
    [](const ::testing::TestParamInfo<BaselineCase>& info) {
      return std::string(info.param.name);
    });

TEST(BaselineDeterminismTest, SameSeedSameRecommendations) {
  const ml::Dataset train = MakeBlobs(3, 25, 3, 34);
  BaselineOptions opts;
  opts.num_configurations = 8;
  opts.seed = 99;
  auto a = CreateFlamlLite(opts);
  auto b = CreateFlamlLite(opts);
  ASSERT_TRUE(a->Train(train).ok());
  ASSERT_TRUE(b->Train(train).ok());
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(a->Recommend(train.features[i]), b->Recommend(train.features[i]));
  }
}

}  // namespace
}  // namespace adarts::baselines
