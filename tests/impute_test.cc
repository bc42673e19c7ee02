#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"
#include "impute/cdrec.h"
#include "impute/imputer.h"
#include "impute/masked_matrix.h"
#include "tests/test_util.h"
#include "ts/metrics.h"
#include "ts/missing.h"

namespace adarts::impute {
namespace {

using ::adarts::testing::BytesFnv;
using ::adarts::testing::MakeCorrelatedSet;
using ::adarts::testing::MakeSine;

/// Masks one block in every series of the set; returns the masked copy.
std::vector<ts::TimeSeries> MaskSet(const std::vector<ts::TimeSeries>& set,
                                    std::size_t block_len,
                                    std::uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<ts::TimeSeries> masked = set;
  for (auto& s : masked) {
    EXPECT_TRUE(ts::InjectSingleBlock(block_len, &rng, &s).ok());
  }
  return masked;
}

double SetRmse(const std::vector<ts::TimeSeries>& masked,
               const std::vector<ts::TimeSeries>& repaired) {
  double total = 0.0;
  for (std::size_t i = 0; i < masked.size(); ++i) {
    total += ts::ImputationRmse(masked[i], repaired[i]).value();
  }
  return total / static_cast<double>(masked.size());
}

TEST(AlgorithmRegistryTest, NamesRoundTrip) {
  for (Algorithm a : AllAlgorithms()) {
    auto parsed = AlgorithmFromString(AlgorithmToString(a));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, a);
  }
  EXPECT_FALSE(AlgorithmFromString("no_such_imputer").ok());
}

TEST(AlgorithmRegistryTest, FactoryCoversAllAlgorithms) {
  EXPECT_EQ(AllAlgorithms().size(), static_cast<std::size_t>(kNumAlgorithms));
  for (Algorithm a : AllAlgorithms()) {
    const auto imputer = CreateImputer(a);
    ASSERT_NE(imputer, nullptr);
    EXPECT_EQ(imputer->name(), AlgorithmToString(a));
  }
}

TEST(MaskedMatrixTest, BuildAndRestore) {
  std::vector<ts::TimeSeries> set = MakeCorrelatedSet(3, 50);
  set[0].SetMissing(10, true);
  auto m = BuildMaskedMatrix(set);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->rows(), 50u);
  EXPECT_EQ(m->cols(), 3u);
  EXPECT_TRUE(m->IsMissing(10, 0));
  // The pre-fill interpolates, never leaves the raw masked value.
  la::Matrix work = m->values;
  work(0, 0) = -999.0;
  RestoreObserved(*m, &work);
  EXPECT_DOUBLE_EQ(work(0, 0), set[0].value(0));
}

TEST(MaskedMatrixTest, RejectsBadSets) {
  EXPECT_FALSE(BuildMaskedMatrix({}).ok());
  std::vector<ts::TimeSeries> unequal = {ts::TimeSeries({1.0, 2.0}),
                                         ts::TimeSeries({1.0, 2.0, 3.0})};
  EXPECT_FALSE(BuildMaskedMatrix(unequal).ok());
  ts::TimeSeries all_missing({1.0, 2.0}, {true, true});
  EXPECT_FALSE(BuildMaskedMatrix({all_missing}).ok());
}

TEST(CentroidDecompositionTest, ReconstructsFullRank) {
  // Full-rank CD reproduces the matrix exactly.
  la::Matrix x = la::Matrix::FromRows({{1, 2}, {3, 4}, {5, 7}});
  auto cd = ComputeCentroidDecomposition(x, 2);
  ASSERT_TRUE(cd.ok());
  const la::Matrix recon = cd->loadings.Multiply(cd->relevance.Transpose());
  EXPECT_LT(recon.Subtract(x).FrobeniusNorm(), 1e-9);
}

TEST(CentroidDecompositionTest, TruncationCapturesDominantStructure) {
  // A rank-1 matrix is exactly captured by one centroid component.
  la::Matrix x(6, 4);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      x(i, j) = static_cast<double>(i + 1) * static_cast<double>(j + 1);
    }
  }
  auto cd = ComputeCentroidDecomposition(x, 1);
  ASSERT_TRUE(cd.ok());
  const la::Matrix recon = cd->loadings.Multiply(cd->relevance.Transpose());
  EXPECT_LT(recon.Subtract(x).FrobeniusNorm(), 1e-9 * x.FrobeniusNorm());
}

// ---- Parameterized contract tests over every algorithm.

class ImputerContractTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(ImputerContractTest, RepairsEveryMissingPosition) {
  const auto imputer = CreateImputer(GetParam());
  const std::vector<ts::TimeSeries> set = MakeCorrelatedSet(4, 96);
  const std::vector<ts::TimeSeries> masked = MaskSet(set, 10);
  auto repaired = imputer->ImputeSet(masked);
  ASSERT_TRUE(repaired.ok()) << imputer->name() << ": " << repaired.status();
  ASSERT_EQ(repaired->size(), masked.size());
  for (std::size_t i = 0; i < repaired->size(); ++i) {
    EXPECT_FALSE((*repaired)[i].HasMissing()) << imputer->name();
    for (std::size_t t = 0; t < (*repaired)[i].length(); ++t) {
      EXPECT_TRUE(std::isfinite((*repaired)[i].value(t))) << imputer->name();
    }
  }
}

TEST_P(ImputerContractTest, PreservesObservedValues) {
  const auto imputer = CreateImputer(GetParam());
  const std::vector<ts::TimeSeries> set = MakeCorrelatedSet(3, 80);
  const std::vector<ts::TimeSeries> masked = MaskSet(set, 8);
  auto repaired = imputer->ImputeSet(masked);
  ASSERT_TRUE(repaired.ok()) << imputer->name();
  for (std::size_t i = 0; i < masked.size(); ++i) {
    for (std::size_t t = 0; t < masked[i].length(); ++t) {
      if (!masked[i].IsMissing(t)) {
        EXPECT_DOUBLE_EQ((*repaired)[i].value(t), masked[i].value(t))
            << imputer->name() << " series " << i << " t " << t;
      }
    }
  }
}

TEST_P(ImputerContractTest, SingleSeriesConvenienceWrapper) {
  const auto imputer = CreateImputer(GetParam());
  ts::TimeSeries s = MakeSine(96, 24.0, 0.02);
  Rng rng(5);
  ASSERT_TRUE(ts::InjectSingleBlock(8, &rng, &s).ok());
  auto repaired = imputer->Impute(s);
  ASSERT_TRUE(repaired.ok()) << imputer->name();
  EXPECT_FALSE(repaired->HasMissing());
}

TEST_P(ImputerContractTest, RejectsInvalidInput) {
  const auto imputer = CreateImputer(GetParam());
  EXPECT_FALSE(imputer->ImputeSet({}).ok()) << imputer->name();
}

TEST_P(ImputerContractTest, DiagnosticsUntouchedOnFailure) {
  const auto imputer = CreateImputer(GetParam());
  const std::vector<ts::TimeSeries> mismatched = {
      ts::TimeSeries({1.0, 2.0}), ts::TimeSeries({1.0, 2.0, 3.0})};
  FitDiagnostics d;
  d.converged = false;
  d.iterations = 7;
  d.final_change = 0.5;
  EXPECT_FALSE(imputer->ImputeSetWithDiagnostics(mismatched, &d).ok());
  EXPECT_FALSE(d.converged) << imputer->name();
  EXPECT_EQ(d.iterations, 7) << imputer->name();
  EXPECT_EQ(d.final_change, 0.5) << imputer->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ImputerContractTest, ::testing::ValuesIn(AllAlgorithms()),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return std::string(AlgorithmToString(info.param));
    });

// ---- Accuracy expectations on friendly data.

TEST(ImputerAccuracyTest, MatrixMethodsBeatMeanOnCorrelatedData) {
  const std::vector<ts::TimeSeries> set = MakeCorrelatedSet(6, 128, 0.02);
  const std::vector<ts::TimeSeries> masked = MaskSet(set, 16);

  const double mean_rmse = SetRmse(
      masked, CreateImputer(Algorithm::kMeanImpute)->ImputeSet(masked).value());
  for (Algorithm a : {Algorithm::kCdRec, Algorithm::kSvdImpute,
                      Algorithm::kSoftImpute, Algorithm::kDynaMmo,
                      Algorithm::kTrmf, Algorithm::kStMvl, Algorithm::kIim}) {
    const double rmse =
        SetRmse(masked, CreateImputer(a)->ImputeSet(masked).value());
    EXPECT_LT(rmse, mean_rmse) << AlgorithmToString(a);
  }
}

TEST(ImputerAccuracyTest, TkcmHandlesRepeatingPatterns) {
  // A clean periodic series: pattern matching should recover the block to
  // much better accuracy than the mean.
  std::vector<ts::TimeSeries> set = {MakeSine(192, 24.0, 0.0)};
  std::vector<ts::TimeSeries> masked = set;
  ASSERT_TRUE(ts::InjectBlockAt(100, 12, &masked[0]).ok());
  const double tkcm_rmse = SetRmse(
      masked, CreateImputer(Algorithm::kTkcm)->ImputeSet(masked).value());
  const double mean_rmse = SetRmse(
      masked, CreateImputer(Algorithm::kMeanImpute)->ImputeSet(masked).value());
  EXPECT_LT(tkcm_rmse, 0.5 * mean_rmse);
}

TEST(ImputerAccuracyTest, LinearInterpExactOnLinearSeries) {
  la::Vector v(50);
  for (std::size_t i = 0; i < 50; ++i) v[i] = 2.0 * static_cast<double>(i);
  std::vector<ts::TimeSeries> masked = {ts::TimeSeries(v)};
  ASSERT_TRUE(ts::InjectBlockAt(20, 5, &masked[0]).ok());
  auto repaired =
      CreateImputer(Algorithm::kLinearInterp)->ImputeSet(masked);
  ASSERT_TRUE(repaired.ok());
  EXPECT_NEAR(SetRmse(masked, *repaired), 0.0, 1e-9);
}

TEST(ImputerAccuracyTest, RoslToleratesAnomalies) {
  // Correlated set with spikes: the robust method should still reconstruct
  // the smooth structure under the mask.
  std::vector<ts::TimeSeries> set = MakeCorrelatedSet(5, 128, 0.02);
  Rng rng(9);
  for (auto& s : set) {
    for (std::size_t t = 0; t < s.length(); ++t) {
      if (rng.Bernoulli(0.02)) s.set_value(t, s.value(t) + 8.0);
    }
  }
  const std::vector<ts::TimeSeries> masked = MaskSet(set, 12);
  // The fair comparison is against the non-robust member of the same
  // rank-k family: the sparse component should absorb the spikes.
  const double rosl_rmse = SetRmse(
      masked, CreateImputer(Algorithm::kRosl)->ImputeSet(masked).value());
  const double svd_rmse = SetRmse(
      masked, CreateImputer(Algorithm::kSvdImpute)->ImputeSet(masked).value());
  EXPECT_LT(rosl_rmse, svd_rmse);
}

TEST(ImputerAccuracyTest, GrouseFallsBackGracefullyOnSingleSeries) {
  ts::TimeSeries s = MakeSine(64, 16.0);
  Rng rng(10);
  ASSERT_TRUE(ts::InjectSingleBlock(6, &rng, &s).ok());
  auto repaired = CreateImputer(Algorithm::kGrouse)->Impute(s);
  ASSERT_TRUE(repaired.ok());
  EXPECT_FALSE(repaired->HasMissing());
}

// ---- Golden outputs: the bits every imputer returns on four fixed sets.

struct GoldenSet {
  std::string name;
  std::vector<ts::TimeSeries> series;
};

std::vector<ts::TimeSeries> Generate(data::Category category,
                                     std::size_t count, std::size_t length,
                                     std::uint64_t seed) {
  data::GeneratorOptions opts;
  opts.num_series = count;
  opts.length = length;
  opts.seed = seed;
  return data::GenerateCategory(category, opts);
}

/// Correlated blocks, scattered MCAR holes, one aligned block across a wide
/// set, and a single series (the single-series branches of GROUSE and IIM).
std::vector<GoldenSet> GoldenSets() {
  std::vector<GoldenSet> sets;
  std::vector<ts::TimeSeries> climate =
      Generate(data::Category::kClimate, 8, 128, 3);
  Rng climate_rng(5);
  for (auto& s : climate) {
    EXPECT_TRUE(ts::InjectSingleBlock(12, &climate_rng, &s).ok());
  }
  sets.push_back({"climate", std::move(climate)});

  std::vector<ts::TimeSeries> motion =
      Generate(data::Category::kMotion, 6, 96, 4);
  Rng motion_rng(6);
  for (auto& s : motion) EXPECT_TRUE(ts::InjectMcar(0.2, &motion_rng, &s).ok());
  sets.push_back({"motion", std::move(motion)});

  std::vector<ts::TimeSeries> power =
      Generate(data::Category::kPower, 10, 160, 9);
  for (auto& s : power) EXPECT_TRUE(ts::InjectBlockAt(70, 20, &s).ok());
  sets.push_back({"power", std::move(power)});

  std::vector<ts::TimeSeries> water =
      Generate(data::Category::kWater, 1, 100, 2);
  Rng water_rng(7);
  EXPECT_TRUE(ts::InjectSingleBlock(10, &water_rng, &water[0]).ok());
  sets.push_back({"water", std::move(water)});
  return sets;
}

std::uint64_t OutputFnv(const std::vector<ts::TimeSeries>& repaired) {
  std::vector<double> raw;
  for (const auto& s : repaired) {
    raw.insert(raw.end(), s.values().begin(), s.values().end());
  }
  return BytesFnv(raw);
}

/// One pinned fit: the digest of the repaired values and the convergence
/// report, recorded from the reference implementation.
struct GoldenFit {
  const char* algorithm;
  std::uint64_t output_fnv;
  int iterations;
  bool converged;
  double final_change;
};

// One row per GoldenSets() entry, algorithms in enum order.
constexpr GoldenFit kGoldenFits[][kNumAlgorithms] = {
    {
        // climate
        {"cdrec", 0x5a12feaa7f6d5c0cULL, 40, false, 0x1.d1d03f2db9551p-15},
        {"svd_impute", 0x0e313a63baad4ebdULL, 40, false, 0x1.5466779da60a5p-12},
        {"soft_impute", 0xb85f5013909f7f4dULL, 9, true, 0x1.8fa4c3b0096adp-18},
        {"svt", 0xa71332ef7114c4b8ULL, 29, true, 0x1.19c1c890f8f6ap-17},
        {"grouse", 0x3b277bbc9597b644ULL, 4, true, 0x0p+0},
        {"dynammo", 0x9174a743768c5a6fULL, 15, false, 0x1.94f9879ccd696p-11},
        {"trmf", 0x80530b1473fedd54ULL, 25, false, 0x1.729bfe1d8de9p-15},
        {"tenmf", 0x176a7e70afd35e98ULL, 120, false, 0x1.26ddb501d9801p-13},
        {"rosl", 0xd187132c7928b0cbULL, 30, false, 0x1.3dd5eaa9d783cp-12},
        {"stmvl", 0xbd06571c653fdeecULL, 0, true, 0x0p+0},
        {"tkcm", 0x88313b5e56f36c1eULL, 0, true, 0x0p+0},
        {"iim", 0xa2e9eb7220d4e529ULL, 0, true, 0x0p+0},
        {"mean", 0x8bee732a27220cb5ULL, 0, true, 0x0p+0},
        {"linear_interp", 0xadaee3350e74dd4aULL, 0, true, 0x0p+0},
        {"knn_impute", 0x61321eb1305ed569ULL, 0, true, 0x0p+0},
    },
    {
        // motion
        {"cdrec", 0x154602a75aad9a1fULL, 40, false, 0x1.1789654afdaa3p-8},
        {"svd_impute", 0x379d127d4360e409ULL, 40, false, 0x1.6550bf9f5b47ap-8},
        {"soft_impute", 0x07f790ade059c63aULL, 38, true, 0x1.1ab720e7a66e5p-17},
        {"svt", 0xa9101ebab0e6544bULL, 9, true, 0x1.375e0166d9c26p-17},
        {"grouse", 0xbba73465ea46fb69ULL, 4, true, 0x0p+0},
        {"dynammo", 0x536e79a17235987cULL, 15, false, 0x1.45d66789fa4e8p-8},
        {"trmf", 0x4f9dcd05ad3a2ca6ULL, 25, false, 0x1.6d7a893466236p-11},
        {"tenmf", 0x0ff4f193736b1bc8ULL, 120, false, 0x1.e8d7c75732b1ap-12},
        {"rosl", 0x0de449441d292dd5ULL, 30, false, 0x1.6633330928524p-8},
        {"stmvl", 0xe4d3fed5f774a01dULL, 0, true, 0x0p+0},
        {"tkcm", 0xe3e5f4b18b9346b5ULL, 0, true, 0x0p+0},
        {"iim", 0x98ae97fec6187f0eULL, 0, true, 0x0p+0},
        {"mean", 0x659ead64153d0dc8ULL, 0, true, 0x0p+0},
        {"linear_interp", 0x0901fa9b7f1244fcULL, 0, true, 0x0p+0},
        {"knn_impute", 0xa418e937e49c85deULL, 0, true, 0x0p+0},
    },
    {
        // power
        {"cdrec", 0x2fc51f824a8f9e05ULL, 16, true, 0x1.8d32c60d02738p-18},
        {"svd_impute", 0xbc9e4bc32b972610ULL, 13, true, 0x1.2e57096041e1bp-17},
        {"soft_impute", 0xa12e792614c86e9bULL, 51, true, 0x1.4e12be26705d2p-17},
        {"svt", 0xf9d437ae4c011a66ULL, 22, true, 0x1.5390b8f27f9ddp-19},
        {"grouse", 0x3bd1b401ea33d0efULL, 4, true, 0x0p+0},
        {"dynammo", 0xa33b77bd9b0c7d05ULL, 15, false, 0x1.9d4f3c9dcc372p-8},
        {"trmf", 0x5d4f80792285172fULL, 25, false, 0x1.934745f81cde7p-14},
        {"tenmf", 0xc1287f4a38423e00ULL, 120, false, 0x1.efe0171edcc2cp-15},
        {"rosl", 0x0a11c6dee870b8d0ULL, 15, true, 0x1.2dd61754b71d7p-17},
        {"stmvl", 0x07e6e2a931b241d7ULL, 0, true, 0x0p+0},
        {"tkcm", 0x00b500e697f0e1c2ULL, 0, true, 0x0p+0},
        {"iim", 0x90931d64f8b34ff4ULL, 0, true, 0x0p+0},
        {"mean", 0xc182f7f4e33dec2eULL, 0, true, 0x0p+0},
        {"linear_interp", 0x3bd1b401ea33d0efULL, 0, true, 0x0p+0},
        {"knn_impute", 0x3bd1b401ea33d0efULL, 0, true, 0x0p+0},
    },
    {
        // water
        {"cdrec", 0x56674c41c94db801ULL, 1, true, 0x0p+0},
        {"svd_impute", 0x9c8c1a7e0e3881a3ULL, 1, true, 0x1.46959b07720e7p-56},
        {"soft_impute", 0xda1b106d660235b9ULL, 52, true, 0x1.1da3d5f79f41cp-17},
        {"svt", 0xe4840399bf629dddULL, 8, true, 0x1.1b3c354363da5p-17},
        {"grouse", 0x56674c41c94db801ULL, 0, true, 0x0p+0},
        {"dynammo", 0x58cbe2de53462fd6ULL, 15, false, 0x1.86a5ee7e1d791p-10},
        {"trmf", 0x5b3cc75b0c4a3ad1ULL, 25, false, 0x1.312574cb64e4bp-12},
        {"tenmf", 0x7c0539fcb2fc7d94ULL, 2, true, 0x1.a30f0469dd5f8p-38},
        {"rosl", 0x9c8c1a7e0e3881a3ULL, 1, true, 0x1.605b885dc34a5p-55},
        {"stmvl", 0x147755c1106a86aaULL, 0, true, 0x0p+0},
        {"tkcm", 0x828ab2240fd60e9bULL, 0, true, 0x0p+0},
        {"iim", 0x56674c41c94db801ULL, 0, true, 0x0p+0},
        {"mean", 0x57c56f7697350ee1ULL, 0, true, 0x0p+0},
        {"linear_interp", 0x56674c41c94db801ULL, 0, true, 0x0p+0},
        {"knn_impute", 0x56674c41c94db801ULL, 0, true, 0x0p+0},
    },
};

TEST(ImputerGoldenTest, EveryImputerKeepsItsPinnedOutput) {
  const std::vector<GoldenSet> sets = GoldenSets();
  ASSERT_EQ(std::size(kGoldenFits), sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const GoldenSet& set = sets[i];
    for (Algorithm a : AllAlgorithms()) {
      const GoldenFit& g = kGoldenFits[i][static_cast<int>(a)];
      SCOPED_TRACE(set.name + "/" + std::string(AlgorithmToString(a)));
      ASSERT_EQ(AlgorithmToString(a), g.algorithm);
      const auto imputer = CreateImputer(a);
      FitDiagnostics d;
      auto out = imputer->ImputeSetWithDiagnostics(set.series, &d);
      ASSERT_TRUE(out.ok()) << out.status();
      const std::uint64_t fnv = OutputFnv(*out);
      EXPECT_EQ(fnv, g.output_fnv) << std::hex << fnv;
      EXPECT_EQ(d.iterations, g.iterations);
      EXPECT_EQ(d.converged, g.converged);
      EXPECT_EQ(d.final_change, g.final_change)
          << std::hexfloat << d.final_change;
      // Every entry point returns the same bits.
      auto plain = imputer->ImputeSet(set.series);
      ASSERT_TRUE(plain.ok()) << plain.status();
      EXPECT_EQ(OutputFnv(*plain), fnv);
      auto unreported = imputer->ImputeSetWithDiagnostics(set.series, nullptr);
      ASSERT_TRUE(unreported.ok()) << unreported.status();
      EXPECT_EQ(OutputFnv(*unreported), fnv);
    }
  }
}

}  // namespace
}  // namespace adarts::impute
