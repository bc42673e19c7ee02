#include "ts/fft.h"

#include <cmath>
#include <numbers>

#include "common/check.h"

namespace adarts::ts {

void Fft(std::vector<std::complex<double>>* data, bool inverse) {
  auto& a = *data;
  const std::size_t n = a.size();
  ADARTS_CHECK(n > 0 && (n & (n - 1)) == 0);

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }

  // Butterflies and the twiddle recurrence w *= wlen in real arithmetic:
  // the same multiplies and adds, in the same order, as std::complex<double>
  // products, without the NaN-recovery call (__muldc3) those compile to.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        2.0 * std::numbers::pi / static_cast<double>(len) * (inverse ? 1 : -1);
    const double wlen_re = std::cos(angle);
    const double wlen_im = std::sin(angle);
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      double w_re = 1.0;
      double w_im = 0.0;
      for (std::size_t k = 0; k < half; ++k) {
        const std::complex<double> u = a[i + k];
        const std::complex<double> x = a[i + k + half];
        const double v_re = x.real() * w_re - x.imag() * w_im;
        const double v_im = x.real() * w_im + x.imag() * w_re;
        a[i + k] = {u.real() + v_re, u.imag() + v_im};
        a[i + k + half] = {u.real() - v_re, u.imag() - v_im};
        const double next_re = w_re * wlen_re - w_im * wlen_im;
        w_im = w_re * wlen_im + w_im * wlen_re;
        w_re = next_re;
      }
    }
  }
}

std::size_t NextPowerOfTwo(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

la::Vector PowerSpectrum(const la::Vector& signal) {
  if (signal.empty()) return {};
  const std::size_t n = NextPowerOfTwo(signal.size());
  std::vector<std::complex<double>> buf(n, {0.0, 0.0});
  // Remove the mean so the DC bin does not swamp the spectrum.
  const double mean = la::Mean(signal);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    buf[i] = {signal[i] - mean, 0.0};
  }
  Fft(&buf);
  la::Vector spec(n / 2 + 1);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    spec[k] = std::norm(buf[k]) / static_cast<double>(n);
  }
  return spec;
}

std::size_t DominantFrequencyBin(const la::Vector& signal) {
  const la::Vector spec = PowerSpectrum(signal);
  std::size_t best = 0;
  double best_power = 0.0;
  for (std::size_t k = 1; k < spec.size(); ++k) {
    if (spec[k] > best_power) {
      best_power = spec[k];
      best = k;
    }
  }
  return best_power > 0.0 ? best : 0;
}

double EstimatePeriod(const la::Vector& signal) {
  const std::size_t bin = DominantFrequencyBin(signal);
  if (bin == 0) return 0.0;
  const std::size_t n = NextPowerOfTwo(signal.size());
  return static_cast<double>(n) / static_cast<double>(bin);
}

double SpectralEntropy(const la::Vector& signal) {
  const la::Vector spec = PowerSpectrum(signal);
  if (spec.size() < 2) return 0.0;
  double total = 0.0;
  for (std::size_t k = 1; k < spec.size(); ++k) total += spec[k];
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (std::size_t k = 1; k < spec.size(); ++k) {
    const double p = spec[k] / total;
    if (p > 0.0) h -= p * std::log(p);
  }
  const double hmax = std::log(static_cast<double>(spec.size() - 1));
  return hmax > 0.0 ? h / hmax : 0.0;
}

}  // namespace adarts::ts
