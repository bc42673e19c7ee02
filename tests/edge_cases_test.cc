// Corner-case coverage across modules: degenerate inputs, formula spot
// checks, and API behaviours not exercised by the main suites.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "cluster/clustering.h"
#include "common/exec_context.h"
#include "common/rng.h"
#include "forecast/forecaster.h"
#include "impute/imputer.h"
#include "ml/dataset.h"
#include "tests/test_util.h"
#include "ts/correlation.h"
#include "ts/missing.h"

namespace adarts {
namespace {

using ::adarts::testing::MakeBlobs;
using ::adarts::testing::MakeSine;

TEST(CorrelationGainTest, MatchesDefinitionOneFormula) {
  // Hand-check Eq. 1 on a tiny configuration.
  std::vector<ts::TimeSeries> series = {
      MakeSine(64, 16.0, 0.0, 1), MakeSine(64, 16.0, 0.0, 1),  // identical
      MakeSine(64, 5.0, 0.3, 9)};
  ExecContext ctx(1);
  const la::Matrix corr = cluster::PairwiseCorrelationMatrix(series, ctx);
  const std::vector<std::size_t> a = {0};
  const std::vector<std::size_t> b = {1};
  const double m = 3.0;
  const double rho_merged = cluster::ClusterAvgCorrelation({0, 1}, corr);
  const double expected =
      (1.0 / (2.0 * m)) * (rho_merged - (1.0 * 1.0) / m);  // singletons: rho=1
  EXPECT_NEAR(cluster::CorrelationGain(a, b, corr, 3), expected, 1e-12);
}

TEST(NccTest, SelfCorrelationPeaksAtZeroShift) {
  Rng rng(42);
  la::Vector v(50);
  for (double& x : v) x = rng.Normal(0, 1);
  const ts::SbdAlignment al = ts::BestAlignment(v, v);
  EXPECT_EQ(al.shift, 0);
  EXPECT_NEAR(al.ncc, 1.0, 1e-9);
}

TEST(NccTest, AntiCorrelatedSeriesHasNegativePeakAtZero) {
  la::Vector a = MakeSine(64, 16.0).values();
  la::Vector b = a;
  for (double& x : b) x = -x;
  const la::Vector ncc = ts::NccAllLags(a, b);
  // Zero-shift entry is at index n-1.
  EXPECT_NEAR(ncc[63], -1.0, 1e-9);
}

TEST(GrowingPartialSetsTest, RoughlyStratifiedAtEveryStage) {
  const ml::Dataset d = MakeBlobs(3, 30, 2, 7);
  Rng rng(8);
  auto sets = ml::GrowingPartialSets(d, 3, &rng);
  ASSERT_TRUE(sets.ok());
  for (const auto& s : *sets) {
    const auto counts = s.ClassCounts();
    const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
    EXPECT_LE(*hi - *lo, 2u);  // round-robin keeps classes within 2
  }
}

TEST(SeasonalNaiveTest, AperiodicSeriesFallsBackToLastValue) {
  Rng rng(9);
  la::Vector noise(80);
  for (double& x : noise) x = rng.Normal(0, 1);
  auto pred = forecast::CreateSeasonalNaive()->Forecast(noise, 4);
  ASSERT_TRUE(pred.ok());
  // Aperiodic: every horizon step repeats based on the detected (possibly
  // spurious) period or the last value; all outputs must be finite and
  // drawn from the history's value range.
  const double lo = *std::min_element(noise.begin(), noise.end());
  const double hi = *std::max_element(noise.begin(), noise.end());
  for (double v : *pred) {
    EXPECT_GE(v, lo - 1e-9);
    EXPECT_LE(v, hi + 1e-9);
  }
}

TEST(HoltWintersTest, ShortHistoryDegradesToHoltLinear) {
  // History shorter than two detected periods must not crash.
  la::Vector short_history = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  auto pred = forecast::CreateHoltWinters()->Forecast(short_history, 3);
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(pred->size(), 3u);
}

TEST(ImputerEdgeTest, AllSeriesConstant) {
  // Constant series with a gap: every imputer must return finite values
  // (the constant is the only sensible fill).
  std::vector<ts::TimeSeries> set;
  for (int i = 0; i < 3; ++i) {
    set.emplace_back(la::Vector(64, 5.0));
  }
  Rng rng(10);
  ASSERT_TRUE(ts::InjectSingleBlock(6, &rng, &set[0]).ok());
  for (impute::Algorithm a : impute::AllAlgorithms()) {
    auto repaired = impute::CreateImputer(a)->ImputeSet(set);
    ASSERT_TRUE(repaired.ok()) << impute::AlgorithmToString(a);
    for (std::size_t t = 0; t < 64; ++t) {
      EXPECT_TRUE(std::isfinite((*repaired)[0].value(t)))
          << impute::AlgorithmToString(a);
    }
  }
}

TEST(ImputerEdgeTest, GapAtTheVeryStart) {
  // Leading gaps have no left anchor; every imputer must still fill them.
  std::vector<ts::TimeSeries> set = {MakeSine(64, 16.0, 0.0, 11),
                                     MakeSine(64, 16.0, 0.0, 12)};
  for (std::size_t t = 0; t < 6; ++t) set[0].SetMissing(t, true);
  for (impute::Algorithm a : impute::AllAlgorithms()) {
    auto repaired = impute::CreateImputer(a)->ImputeSet(set);
    ASSERT_TRUE(repaired.ok()) << impute::AlgorithmToString(a);
    EXPECT_FALSE((*repaired)[0].HasMissing()) << impute::AlgorithmToString(a);
  }
}

TEST(ImputerEdgeTest, AllMissingSeriesIsRejectedByEveryImputer) {
  // One series with zero observations: no algorithm can anchor a repair,
  // so every imputer must refuse with a clean InvalidArgument naming the
  // offending series — never crash or emit garbage.
  std::vector<ts::TimeSeries> set = {MakeSine(32, 8.0, 0.0, 21),
                                     MakeSine(32, 8.0, 0.0, 22)};
  for (std::size_t t = 0; t < 32; ++t) set[1].SetMissing(t, true);
  for (impute::Algorithm a : impute::AllAlgorithms()) {
    auto repaired = impute::CreateImputer(a)->ImputeSet(set);
    ASSERT_FALSE(repaired.ok()) << impute::AlgorithmToString(a);
    EXPECT_EQ(repaired.status().code(), StatusCode::kInvalidArgument)
        << impute::AlgorithmToString(a);
    EXPECT_NE(repaired.status().message().find("series 1"), std::string::npos)
        << impute::AlgorithmToString(a) << ": " << repaired.status();
  }
}

TEST(ImputerEdgeTest, NonFiniteObservedValueIsRejectedByEveryImputer) {
  std::vector<ts::TimeSeries> set = {MakeSine(32, 8.0, 0.0, 23),
                                     MakeSine(32, 8.0, 0.0, 24)};
  set[0].SetMissing(5, true);
  set[1].set_value(7, std::numeric_limits<double>::quiet_NaN());
  for (impute::Algorithm a : impute::AllAlgorithms()) {
    auto repaired = impute::CreateImputer(a)->ImputeSet(set);
    ASSERT_FALSE(repaired.ok()) << impute::AlgorithmToString(a);
    EXPECT_EQ(repaired.status().code(), StatusCode::kInvalidArgument)
        << impute::AlgorithmToString(a);
  }
}

TEST(ImputerEdgeTest, SinglePointSeries) {
  // A length-1 set is degenerate but well-formed; imputers must either
  // return it unchanged (nothing is missing) or refuse cleanly.
  std::vector<ts::TimeSeries> set = {ts::TimeSeries(la::Vector{3.5}),
                                     ts::TimeSeries(la::Vector{-1.0})};
  for (impute::Algorithm a : impute::AllAlgorithms()) {
    auto repaired = impute::CreateImputer(a)->ImputeSet(set);
    if (repaired.ok()) {
      ASSERT_EQ(repaired->size(), 2u) << impute::AlgorithmToString(a);
      EXPECT_EQ((*repaired)[0].value(0), 3.5) << impute::AlgorithmToString(a);
    } else {
      EXPECT_FALSE(repaired.status().message().empty())
          << impute::AlgorithmToString(a);
    }
  }
}

TEST(ImputerEdgeTest, SingleObservationRestMissing) {
  // 1 observed point out of 24: the thinnest input BuildMaskedMatrix
  // accepts. Every imputer must fill all gaps with finite values or refuse
  // cleanly — no NaN output, no crash.
  std::vector<ts::TimeSeries> set = {MakeSine(24, 8.0, 0.0, 25),
                                     MakeSine(24, 8.0, 0.0, 26)};
  for (std::size_t t = 0; t < 24; ++t) {
    if (t != 11) set[0].SetMissing(t, true);
  }
  for (impute::Algorithm a : impute::AllAlgorithms()) {
    auto repaired = impute::CreateImputer(a)->ImputeSet(set);
    if (!repaired.ok()) {
      EXPECT_FALSE(repaired.status().message().empty())
          << impute::AlgorithmToString(a);
      continue;
    }
    EXPECT_FALSE((*repaired)[0].HasMissing()) << impute::AlgorithmToString(a);
    for (std::size_t t = 0; t < 24; ++t) {
      EXPECT_TRUE(std::isfinite((*repaired)[0].value(t)))
          << impute::AlgorithmToString(a) << " at " << t;
    }
  }
}

TEST(ImputerEdgeTest, MissingBlockSpanningAlmostTheWholeSeries) {
  // A block gap longer than the observed remainder (only the endpoints
  // survive). Every imputer must bridge it with finite values or refuse.
  std::vector<ts::TimeSeries> set = {MakeSine(40, 10.0, 0.0, 27),
                                     MakeSine(40, 10.0, 0.0, 28)};
  for (std::size_t t = 1; t + 1 < 40; ++t) set[0].SetMissing(t, true);
  for (impute::Algorithm a : impute::AllAlgorithms()) {
    auto repaired = impute::CreateImputer(a)->ImputeSet(set);
    if (!repaired.ok()) {
      EXPECT_FALSE(repaired.status().message().empty())
          << impute::AlgorithmToString(a);
      continue;
    }
    EXPECT_FALSE((*repaired)[0].HasMissing()) << impute::AlgorithmToString(a);
    for (std::size_t t = 0; t < 40; ++t) {
      EXPECT_TRUE(std::isfinite((*repaired)[0].value(t)))
          << impute::AlgorithmToString(a) << " at " << t;
    }
  }
}

TEST(TimeSeriesEdgeTest, CreateRejectsNonFiniteObservedValues) {
  la::Vector values{1.0, std::numeric_limits<double>::infinity(), 3.0};
  auto bad = ts::TimeSeries::Create(values, {false, false, false});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("position 1"), std::string::npos);

  // The same value behind the mask is a legal placeholder.
  auto masked = ts::TimeSeries::Create(values, {false, true, false});
  ASSERT_TRUE(masked.ok()) << masked.status();
  EXPECT_TRUE(masked->IsMissing(1));

  auto mismatched = ts::TimeSeries::Create({1.0, 2.0}, {false});
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
}

TEST(MissingEdgeTest, BlockAtExactBounds) {
  ts::TimeSeries s(la::Vector(20, 1.0));
  EXPECT_TRUE(ts::InjectBlockAt(0, 20, &s).ok());     // whole series
  EXPECT_FALSE(ts::InjectBlockAt(15, 6, &s).ok());    // overruns the end
  EXPECT_EQ(s.MissingCount(), 20u);
}

TEST(DatasetEdgeTest, SingleClassDatasetSplits) {
  ml::Dataset d;
  d.num_classes = 1;
  for (int i = 0; i < 20; ++i) {
    d.features.push_back({static_cast<double>(i)});
    d.labels.push_back(0);
  }
  Rng rng(13);
  auto split = ml::StratifiedSplit(d, 0.7, &rng);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->train.size(), 14u);
  EXPECT_EQ(split->test.size(), 6u);
}

TEST(PearsonEdgeTest, DifferentLengthSeriesUsePrefix) {
  const ts::TimeSeries a = MakeSine(64, 16.0);
  const ts::TimeSeries b = MakeSine(32, 16.0);
  // Pearson over the common prefix of an identical generator is 1.
  EXPECT_NEAR(ts::Pearson(a, b), 1.0, 1e-9);
}

}  // namespace
}  // namespace adarts
