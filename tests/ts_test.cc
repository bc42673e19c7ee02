#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/test_util.h"
#include "ts/acf.h"
#include "ts/correlation.h"
#include "ts/fft.h"
#include "ts/metrics.h"
#include "ts/missing.h"
#include "ts/time_series.h"

namespace adarts::ts {
namespace {

using ::adarts::testing::MakeSine;

// ---------------------------------------------------------------------------
// Reference kernels: the std::complex<double> formulation of the FFT and of
// the all-lags NCC_c. The library kernels must reproduce these bit for bit.

void OracleFft(std::vector<std::complex<double>>* data, bool inverse) {
  auto& a = *data;
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        2.0 * std::numbers::pi / static_cast<double>(len) * (inverse ? 1 : -1);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = a[i + k];
        const std::complex<double> v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

la::Vector OracleZNorm(const la::Vector& v) {
  const double m = la::Mean(v);
  double sd = la::StdDev(v);
  if (sd <= 0.0) sd = 1.0;
  la::Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = (v[i] - m) / sd;
  return out;
}

la::Vector OracleNccAllLags(const la::Vector& a, const la::Vector& b) {
  const la::Vector za = OracleZNorm(a);
  const la::Vector zb = OracleZNorm(b);
  const std::size_t n = std::max(za.size(), zb.size());
  const std::size_t fft_size = NextPowerOfTwo(2 * n);
  std::vector<std::complex<double>> fa(fft_size, {0.0, 0.0});
  std::vector<std::complex<double>> fb(fft_size, {0.0, 0.0});
  for (std::size_t i = 0; i < za.size(); ++i) fa[i] = {za[i], 0.0};
  for (std::size_t i = 0; i < zb.size(); ++i) fb[i] = {zb[i], 0.0};
  OracleFft(&fa, false);
  OracleFft(&fb, false);
  for (std::size_t i = 0; i < fft_size; ++i) fa[i] *= std::conj(fb[i]);
  OracleFft(&fa, true);
  const double norm = static_cast<double>(fft_size) *
                      (std::sqrt(static_cast<double>(za.size())) *
                       std::sqrt(static_cast<double>(zb.size())));
  la::Vector out(2 * n - 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int s = static_cast<int>(i) - static_cast<int>(n - 1);
    const std::size_t idx =
        s >= 0 ? static_cast<std::size_t>(s)
               : fft_size - static_cast<std::size_t>(-s);
    out[i] = fa[idx].real() / norm;
  }
  return out;
}

SbdAlignment OracleBestAlignment(const la::Vector& a, const la::Vector& b) {
  const la::Vector ncc = OracleNccAllLags(a, b);
  const std::size_t n = std::max(a.size(), b.size());
  SbdAlignment best;
  for (std::size_t i = 0; i < ncc.size(); ++i) {
    if (ncc[i] > best.ncc) {
      best.ncc = ncc[i];
      best.shift = static_cast<int>(i) - static_cast<int>(n - 1);
    }
  }
  return best;
}

la::Vector OraclePowerSpectrum(const la::Vector& signal) {
  const std::size_t n = NextPowerOfTwo(signal.size());
  std::vector<std::complex<double>> buf(n, {0.0, 0.0});
  const double mean = la::Mean(signal);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    buf[i] = {signal[i] - mean, 0.0};
  }
  OracleFft(&buf, false);
  la::Vector spec(n / 2 + 1);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    spec[k] = std::norm(buf[k]) / static_cast<double>(n);
  }
  return spec;
}

/// NCC_c at one `lag` (positive lag shifts `b` right) as a direct sum over
/// the z-normalised series.
double DirectNcc(const la::Vector& a, const la::Vector& b, int lag) {
  const la::Vector za = OracleZNorm(a);
  const la::Vector zb = OracleZNorm(b);
  const auto n = static_cast<std::ptrdiff_t>(std::min(za.size(), zb.size()));
  double s = 0.0;
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const std::ptrdiff_t j = i - lag;
    if (j < 0 || j >= static_cast<std::ptrdiff_t>(zb.size())) continue;
    s += za[static_cast<std::size_t>(i)] * zb[static_cast<std::size_t>(j)];
  }
  return s / static_cast<double>(n);
}

/// Raw-bit equality: sizes match and every double has the same bytes.
template <typename T>
bool SameBits(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

/// A random series of `n` samples with a random offset and scale, so the
/// z-normalisation inside the kernels has real work to do.
la::Vector RandomSeries(std::size_t n, Rng* rng) {
  const double offset = rng->Uniform(-50.0, 50.0);
  const double scale = rng->Uniform(0.01, 20.0);
  la::Vector v(n);
  for (double& x : v) x = offset + scale * rng->Normal(0, 1);
  return v;
}

constexpr int kOracleTrials = 240;

TEST(KernelOracleTest, FftMatchesComplexReferenceBitForBit) {
  Rng rng(2024);
  for (int t = 0; t < kOracleTrials; ++t) {
    const std::size_t n =
        NextPowerOfTwo(static_cast<std::size_t>(rng.UniformInt(1, 300)));
    std::vector<std::complex<double>> data(n);
    for (auto& c : data) c = {rng.Normal(0, 3), rng.Normal(0, 3)};
    for (const bool inverse : {false, true}) {
      std::vector<std::complex<double>> got = data;
      std::vector<std::complex<double>> want = data;
      Fft(&got, inverse);
      OracleFft(&want, inverse);
      ASSERT_TRUE(SameBits(got, want))
          << "trial " << t << " n " << n << " inverse " << inverse;
    }
  }
}

TEST(KernelOracleTest, NccAndBestAlignmentMatchComplexReferenceBitForBit) {
  Rng rng(2025);
  for (int t = 0; t < kOracleTrials; ++t) {
    const auto len_a = static_cast<std::size_t>(rng.UniformInt(1, 300));
    // Half the pairs share a length, as k-shape's do; the rest do not.
    const auto len_b = t % 2 == 0
                           ? len_a
                           : static_cast<std::size_t>(rng.UniformInt(1, 300));
    const la::Vector a = RandomSeries(len_a, &rng);
    const la::Vector b = RandomSeries(len_b, &rng);
    ASSERT_TRUE(SameBits(NccAllLags(a, b), OracleNccAllLags(a, b)))
        << "trial " << t << " lengths " << len_a << "/" << len_b;
    const SbdAlignment got = BestAlignment(a, b);
    const SbdAlignment want = OracleBestAlignment(a, b);
    ASSERT_TRUE(SameBits(got.ncc, want.ncc)) << "trial " << t;
    ASSERT_EQ(got.shift, want.shift) << "trial " << t;
  }
}

TEST(KernelOracleTest, PowerSpectrumMatchesComplexReferenceBitForBit) {
  Rng rng(2026);
  for (int t = 0; t < kOracleTrials; ++t) {
    const la::Vector v =
        RandomSeries(static_cast<std::size_t>(rng.UniformInt(1, 300)), &rng);
    ASSERT_TRUE(SameBits(PowerSpectrum(v), OraclePowerSpectrum(v)))
        << "trial " << t << " length " << v.size();
  }
}

TEST(TimeSeriesTest, ConstructionAndMask) {
  TimeSeries s({1.0, 2.0, 3.0});
  EXPECT_EQ(s.length(), 3u);
  EXPECT_FALSE(s.HasMissing());
  s.SetMissing(1, true);
  EXPECT_TRUE(s.HasMissing());
  EXPECT_EQ(s.MissingCount(), 1u);
  EXPECT_EQ(s.MissingIndices(), (std::vector<std::size_t>{1}));
  EXPECT_EQ(s.ObservedValues(), (la::Vector{1.0, 3.0}));
}

TEST(TimeSeriesTest, ObservedMoments) {
  TimeSeries s({2.0, 100.0, 4.0}, {false, true, false});
  EXPECT_DOUBLE_EQ(s.ObservedMean(), 3.0);
  EXPECT_DOUBLE_EQ(s.ObservedStdDev(), 1.0);
}

TEST(TimeSeriesTest, ZNormalizedPreservesMask) {
  TimeSeries s({1.0, 2.0, 3.0, 4.0}, {false, true, false, false});
  const TimeSeries z = s.ZNormalized();
  EXPECT_TRUE(z.IsMissing(1));
  EXPECT_NEAR(la::Mean(z.ObservedValues()), 0.0, 1e-12);
}

TEST(TimeSeriesTest, ZNormalizedConstantSeriesIsZero) {
  TimeSeries s({5.0, 5.0, 5.0});
  const TimeSeries z = s.ZNormalized();
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(z.value(i), 0.0);
}

TEST(MissingTest, SingleBlockInjection) {
  Rng rng(1);
  TimeSeries s(la::Vector(100, 1.0));
  ASSERT_TRUE(InjectSingleBlock(10, &rng, &s).ok());
  EXPECT_EQ(s.MissingCount(), 10u);
  // Block is contiguous.
  const auto idx = s.MissingIndices();
  for (std::size_t i = 1; i < idx.size(); ++i) {
    EXPECT_EQ(idx[i], idx[i - 1] + 1);
  }
  // First observation stays intact (anchor).
  EXPECT_FALSE(s.IsMissing(0));
}

TEST(MissingTest, SingleBlockRejectsOversizedBlock) {
  Rng rng(2);
  TimeSeries s(la::Vector(10, 1.0));
  EXPECT_FALSE(InjectSingleBlock(10, &rng, &s).ok());
  EXPECT_FALSE(InjectSingleBlock(0, &rng, &s).ok());
}

TEST(MissingTest, MultiBlockDisjoint) {
  Rng rng(3);
  TimeSeries s(la::Vector(120, 1.0));
  ASSERT_TRUE(InjectMultiBlock(3, 8, &rng, &s).ok());
  EXPECT_EQ(s.MissingCount(), 24u);
  // Exactly three contiguous runs.
  int runs = 0;
  bool in_run = false;
  for (std::size_t i = 0; i < s.length(); ++i) {
    if (s.IsMissing(i) && !in_run) {
      ++runs;
      in_run = true;
    } else if (!s.IsMissing(i)) {
      in_run = false;
    }
  }
  EXPECT_EQ(runs, 3);
}

TEST(MissingTest, TipBlockAtEnd) {
  TimeSeries s(la::Vector(100, 1.0));
  ASSERT_TRUE(InjectTipBlock(0.2, &s).ok());
  EXPECT_EQ(s.MissingCount(), 20u);
  EXPECT_TRUE(s.IsMissing(99));
  EXPECT_TRUE(s.IsMissing(80));
  EXPECT_FALSE(s.IsMissing(79));
}

TEST(MissingTest, TipBlockRejectsBadFraction) {
  TimeSeries s(la::Vector(100, 1.0));
  EXPECT_FALSE(InjectTipBlock(0.0, &s).ok());
  EXPECT_FALSE(InjectTipBlock(1.0, &s).ok());
}

class PatternTest : public ::testing::TestWithParam<MissingPattern> {};

TEST_P(PatternTest, InjectsSomethingReasonable) {
  Rng rng(4);
  TimeSeries s(la::Vector(200, 1.0));
  ASSERT_TRUE(InjectPattern(GetParam(), 0.1, &rng, &s).ok());
  EXPECT_GT(s.MissingCount(), 0u);
  EXPECT_LT(s.MissingCount(), s.length() / 2 + 1);
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, PatternTest,
                         ::testing::Values(MissingPattern::kSingleBlock,
                                           MissingPattern::kMultiBlock,
                                           MissingPattern::kBlackout,
                                           MissingPattern::kTipOfSeries));

TEST(MetricsTest, RmseOnKnownValues) {
  TimeSeries truth({1.0, 2.0, 3.0, 4.0}, {false, true, true, false});
  TimeSeries imputed({1.0, 2.5, 2.0, 4.0});
  auto rmse = ImputationRmse(truth, imputed);
  ASSERT_TRUE(rmse.ok());
  EXPECT_NEAR(*rmse, std::sqrt((0.25 + 1.0) / 2.0), 1e-12);
}

TEST(MetricsTest, RmseRequiresMaskedPositions) {
  TimeSeries truth({1.0, 2.0});
  TimeSeries imputed({1.0, 2.0});
  EXPECT_FALSE(ImputationRmse(truth, imputed).ok());
}

TEST(MetricsTest, SmapePerfectForecastIsZero) {
  auto s = Smape({1.0, 2.0, 3.0}, {1.0, 2.0, 3.0});
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(*s, 0.0);
}

TEST(MetricsTest, SmapeBoundedByTwo) {
  auto s = Smape({1.0, 1.0}, {-1.0, -1.0});
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(*s, 2.0, 1e-12);
}

TEST(CorrelationTest, IdenticalSeriesPerfect) {
  const TimeSeries s = MakeSine(64, 16.0);
  EXPECT_NEAR(Pearson(s, s), 1.0, 1e-12);
}

TEST(CorrelationTest, NccAllLagsMatchesDirectComputation) {
  Rng rng(6);
  la::Vector a(40), b(40);
  for (std::size_t i = 0; i < 40; ++i) {
    a[i] = rng.Normal(0, 1);
    b[i] = rng.Normal(0, 1);
  }
  const la::Vector fft_ncc = NccAllLags(a, b);
  for (int lag = -8; lag <= 8; ++lag) {
    const double direct = DirectNcc(a, b, lag);
    const double via_fft = fft_ncc[static_cast<std::size_t>(lag + 39)];
    EXPECT_NEAR(direct, via_fft, 1e-9) << "lag " << lag;
  }
}

TEST(CorrelationTest, BestAlignmentFindsShift) {
  const la::Vector a = MakeSine(128, 32.0).values();
  // b = a delayed by 8 samples.
  la::Vector b(128, 0.0);
  for (std::size_t i = 8; i < 128; ++i) b[i] = a[i - 8];
  const SbdAlignment al = BestAlignment(a, b);
  EXPECT_GT(al.ncc, 0.85);
  EXPECT_NEAR(static_cast<double>(al.shift), -8.0, 2.0);
}

TEST(FftTest, RoundTrip) {
  Rng rng(7);
  std::vector<std::complex<double>> data(64);
  std::vector<std::complex<double>> original(64);
  for (std::size_t i = 0; i < 64; ++i) {
    data[i] = {rng.Normal(0, 1), rng.Normal(0, 1)};
    original[i] = data[i];
  }
  Fft(&data);
  Fft(&data, /*inverse=*/true);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(data[i].real() / 64.0, original[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag() / 64.0, original[i].imag(), 1e-10);
  }
}

TEST(FftTest, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(1000), 1024u);
}

TEST(FftTest, DominantFrequencyOfPureSine) {
  // Period 16 over 128 samples (padded to 128): bin = 128/16 = 8.
  const la::Vector v = MakeSine(128, 16.0).values();
  EXPECT_EQ(DominantFrequencyBin(v), 8u);
  EXPECT_NEAR(EstimatePeriod(v), 16.0, 1.0);
}

TEST(FftTest, SpectralEntropyOrdering) {
  // A pure tone concentrates the spectrum; white noise spreads it.
  const la::Vector tone = MakeSine(256, 16.0).values();
  Rng rng(8);
  la::Vector noise(256);
  for (double& x : noise) x = rng.Normal(0, 1);
  EXPECT_LT(SpectralEntropy(tone), SpectralEntropy(noise));
  EXPECT_GE(SpectralEntropy(tone), 0.0);
  EXPECT_LE(SpectralEntropy(noise), 1.0);
}

TEST(AcfTest, WhiteNoiseDecorrelated) {
  Rng rng(9);
  la::Vector v(2000);
  for (double& x : v) x = rng.Normal(0, 1);
  const la::Vector acf = Acf(v, 5);
  EXPECT_DOUBLE_EQ(acf[0], 1.0);
  for (std::size_t lag = 1; lag <= 5; ++lag) {
    EXPECT_LT(std::fabs(acf[lag]), 0.08);
  }
}

TEST(AcfTest, PeriodicSignalPeaksAtPeriod) {
  const la::Vector v = MakeSine(256, 16.0).values();
  const la::Vector acf = Acf(v, 20);
  EXPECT_GT(acf[16], 0.8);
  EXPECT_LT(acf[8], -0.8);  // half-period anti-correlation
}

TEST(AcfTest, Ar1ProcessPacfCutsOff) {
  // AR(1): PACF significant at lag 1, near zero beyond.
  Rng rng(10);
  la::Vector v(3000);
  v[0] = 0.0;
  for (std::size_t t = 1; t < v.size(); ++t) {
    v[t] = 0.7 * v[t - 1] + rng.Normal(0, 1);
  }
  const la::Vector pacf = Pacf(v, 4);
  EXPECT_NEAR(pacf[0], 0.7, 0.07);
  for (std::size_t lag = 1; lag < 4; ++lag) {
    EXPECT_LT(std::fabs(pacf[lag]), 0.1);
  }
}

TEST(AcfTest, FirstCrossingOnNoiseIsImmediate) {
  Rng rng(11);
  la::Vector v(500);
  for (double& x : v) x = rng.Normal(0, 1);
  EXPECT_EQ(FirstAcfCrossing(v, 20), 1u);
}

}  // namespace
}  // namespace adarts::ts
