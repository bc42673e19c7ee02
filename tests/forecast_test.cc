#include <cmath>
#include <functional>
#include <ostream>

#include <gtest/gtest.h>

#include "forecast/forecaster.h"
#include "tests/test_util.h"
#include "ts/metrics.h"

namespace adarts::forecast {
namespace {

using ::adarts::testing::MakeSine;

la::Vector SineHistory(std::size_t n, double period) {
  return MakeSine(n, period).values();
}

struct ForecasterCase {
  const char* name;
  std::function<std::unique_ptr<Forecaster>()> factory;
};

// Without a printer gtest lists the parameter as the struct's raw bytes,
// which hold load addresses, so the ctest names changed on every build.
void PrintTo(const ForecasterCase& c, std::ostream* os) { *os << c.name; }

class ForecasterContractTest : public ::testing::TestWithParam<ForecasterCase> {
};

TEST_P(ForecasterContractTest, ProducesFiniteHorizon) {
  auto f = GetParam().factory();
  EXPECT_EQ(f->name(), GetParam().name);
  auto pred = f->Forecast(SineHistory(128, 16.0), 12);
  ASSERT_TRUE(pred.ok()) << GetParam().name;
  ASSERT_EQ(pred->size(), 12u);
  for (double v : *pred) EXPECT_TRUE(std::isfinite(v)) << GetParam().name;
}

TEST_P(ForecasterContractTest, RejectsEmptyHistory) {
  auto f = GetParam().factory();
  EXPECT_FALSE(f->Forecast({}, 4).ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllForecasters, ForecasterContractTest,
    ::testing::Values(
        ForecasterCase{"seasonal_naive", [] { return CreateSeasonalNaive(); }},
        ForecasterCase{"drift", [] { return CreateDrift(); }},
        ForecasterCase{"holt_linear", [] { return CreateHoltLinear(); }},
        ForecasterCase{"holt_winters", [] { return CreateHoltWinters(); }},
        ForecasterCase{"ar_yule_walker",
                       [] { return CreateAutoRegressive(); }}),
    [](const ::testing::TestParamInfo<ForecasterCase>& info) {
      return std::string(info.param.name);
    });

TEST(SeasonalNaiveTest, ExactOnPurePeriodicSignal) {
  // History of 8 full cycles; the next cycle repeats exactly.
  const la::Vector history = SineHistory(128, 16.0);
  auto pred = CreateSeasonalNaive()->Forecast(history, 16);
  ASSERT_TRUE(pred.ok());
  for (std::size_t h = 0; h < 16; ++h) {
    EXPECT_NEAR((*pred)[h], history[112 + h], 1e-9);
  }
}

TEST(DriftTest, ExtendsLinearTrendExactly) {
  la::Vector history(50);
  for (std::size_t i = 0; i < 50; ++i) history[i] = 3.0 * static_cast<double>(i);
  auto pred = CreateDrift()->Forecast(history, 5);
  ASSERT_TRUE(pred.ok());
  for (std::size_t h = 0; h < 5; ++h) {
    EXPECT_NEAR((*pred)[h], 3.0 * static_cast<double>(50 + h), 1e-9);
  }
}

TEST(HoltLinearTest, TracksLinearTrend) {
  la::Vector history(60);
  for (std::size_t i = 0; i < 60; ++i) {
    history[i] = 5.0 + 0.5 * static_cast<double>(i);
  }
  auto pred = CreateHoltLinear()->Forecast(history, 10);
  ASSERT_TRUE(pred.ok());
  for (std::size_t h = 0; h < 10; ++h) {
    EXPECT_NEAR((*pred)[h], 5.0 + 0.5 * static_cast<double>(60 + h), 0.5);
  }
}

TEST(HoltWintersTest, BeatsHoltLinearOnSeasonalData) {
  // Seasonal + trend signal: the seasonal component matters.
  la::Vector history(96);
  for (std::size_t i = 0; i < 96; ++i) {
    history[i] = 0.05 * static_cast<double>(i) +
                 2.0 * std::sin(2.0 * 3.14159265 * static_cast<double>(i) / 12.0);
  }
  la::Vector actual(12);
  for (std::size_t h = 0; h < 12; ++h) {
    const double t = static_cast<double>(96 + h);
    actual[h] = 0.05 * t + 2.0 * std::sin(2.0 * 3.14159265 * t / 12.0);
  }
  auto hw = CreateHoltWinters()->Forecast(history, 12);
  auto hl = CreateHoltLinear()->Forecast(history, 12);
  ASSERT_TRUE(hw.ok());
  ASSERT_TRUE(hl.ok());
  const double hw_err = ts::Smape(actual, *hw).value();
  const double hl_err = ts::Smape(actual, *hl).value();
  EXPECT_LT(hw_err, hl_err);
}

TEST(AutoRegressiveTest, LearnsAr1Dynamics) {
  // x_t = 0.9 x_{t-1} + noise: AR forecast should decay towards the mean,
  // far better than drift on this process.
  Rng rng(44);
  la::Vector history(400);
  history[0] = 5.0;
  for (std::size_t t = 1; t < history.size(); ++t) {
    history[t] = 0.9 * history[t - 1] + rng.Normal(0.0, 0.2);
  }
  auto pred = CreateAutoRegressive(4)->Forecast(history, 8);
  ASSERT_TRUE(pred.ok());
  // Prediction magnitude decays geometrically-ish from the last value.
  const double last = history.back();
  EXPECT_LT(std::fabs((*pred)[7] - la::Mean(history)),
            std::fabs(last - la::Mean(history)) + 0.5);
}

TEST(SmapeHarnessTest, RepairQualityAffectsForecastError) {
  // The downstream mechanism of Fig. 12 in miniature: forecasting from a
  // well-repaired history must beat forecasting from a crudely repaired one.
  const la::Vector clean = SineHistory(144, 16.0);
  la::Vector actual(12);
  for (std::size_t h = 0; h < 12; ++h) {
    actual[h] = std::sin(2.0 * 3.14159265358979 *
                         (static_cast<double>(132 + h) / 16.0));
  }
  const la::Vector history(clean.begin(), clean.begin() + 132);

  // Crude repair: the tip 20% replaced by the series mean.
  la::Vector crude = history;
  for (std::size_t i = 105; i < 132; ++i) crude[i] = 0.0;

  auto good = CreateSeasonalNaive()->Forecast(history, 12);
  auto bad = CreateSeasonalNaive()->Forecast(crude, 12);
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(bad.ok());
  EXPECT_LT(ts::Smape(actual, *good).value(), ts::Smape(actual, *bad).value());
}

}  // namespace
}  // namespace adarts::forecast
