#include "ts/correlation.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "ts/fft.h"

namespace adarts::ts {

namespace {

/// The spectrum size the vector forms use for a pair of series.
std::size_t PairFftSize(const la::Vector& a, const la::Vector& b) {
  ADARTS_CHECK(!a.empty() && !b.empty());
  return NextPowerOfTwo(2 * std::max(a.size(), b.size()));
}

/// NCC_c at every shift from two spectra: the product A * conj(B), one
/// inverse FFT, and the normalisation. The product is written in real
/// arithmetic: the multiplies and adds of the std::complex<double> product,
/// without the NaN-recovery call (__muldc3) that one compiles to.
la::Vector NccFromSpectra(const NccSpectrum& a, const NccSpectrum& b) {
  const std::size_t fft_size = a.bins.size();
  ADARTS_CHECK(b.bins.size() == fft_size);
  std::vector<std::complex<double>> cross(fft_size);
  for (std::size_t i = 0; i < fft_size; ++i) {
    const double ar = a.bins[i].real();
    const double ai = a.bins[i].imag();
    const double br = b.bins[i].real();
    const double bi = b.bins[i].imag();
    cross[i] = {ar * br + ai * bi, ai * br - ar * bi};
  }
  Fft(&cross, /*inverse=*/true);

  // Cross-correlation CC(s) = sum_t za[t] * zb[t - s]; the inverse FFT is
  // unscaled, so divide by fft_size. NCC_c normalises by the z-norm product.
  const std::size_t n = std::max(a.length, b.length);
  const double norm = static_cast<double>(fft_size) *
                      (std::sqrt(static_cast<double>(a.length)) *
                       std::sqrt(static_cast<double>(b.length)));
  la::Vector out(2 * n - 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int s = static_cast<int>(i) - static_cast<int>(n - 1);
    // Positive shifts live at index s, negative at fft_size + s (circular).
    const std::size_t idx =
        s >= 0 ? static_cast<std::size_t>(s)
               : fft_size - static_cast<std::size_t>(-s);
    out[i] = cross[idx].real() / norm;
  }
  return out;
}

}  // namespace

double Pearson(const TimeSeries& a, const TimeSeries& b) {
  const std::size_t n = std::min(a.length(), b.length());
  la::Vector va(n), vb(n);
  for (std::size_t i = 0; i < n; ++i) {
    va[i] = a.value(i);
    vb[i] = b.value(i);
  }
  return la::PearsonCorrelation(va, vb);
}

NccSpectrum ComputeNccSpectrum(const la::Vector& v, std::size_t fft_size) {
  ADARTS_CHECK(!v.empty() && fft_size >= 2 * v.size());
  const double m = la::Mean(v);
  double sd = la::StdDev(v);
  if (sd <= 0.0) sd = 1.0;
  NccSpectrum spectrum;
  spectrum.length = v.size();
  spectrum.bins.assign(fft_size, {0.0, 0.0});
  for (std::size_t i = 0; i < v.size(); ++i) {
    spectrum.bins[i] = {(v[i] - m) / sd, 0.0};
  }
  Fft(&spectrum.bins);
  return spectrum;
}

la::Vector NccAllLags(const la::Vector& a, const la::Vector& b) {
  const std::size_t fft_size = PairFftSize(a, b);
  return NccFromSpectra(ComputeNccSpectrum(a, fft_size),
                        ComputeNccSpectrum(b, fft_size));
}

SbdAlignment BestAlignment(const la::Vector& a, const la::Vector& b) {
  const std::size_t fft_size = PairFftSize(a, b);
  return BestAlignment(ComputeNccSpectrum(a, fft_size),
                       ComputeNccSpectrum(b, fft_size));
}

SbdAlignment BestAlignment(const NccSpectrum& a, const NccSpectrum& b) {
  const la::Vector ncc = NccFromSpectra(a, b);
  const std::size_t n = std::max(a.length, b.length);
  SbdAlignment best;
  for (std::size_t i = 0; i < ncc.size(); ++i) {
    if (ncc[i] > best.ncc) {
      best.ncc = ncc[i];
      best.shift = static_cast<int>(i) - static_cast<int>(n - 1);
    }
  }
  return best;
}

}  // namespace adarts::ts
