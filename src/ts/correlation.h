#ifndef ADARTS_TS_CORRELATION_H_
#define ADARTS_TS_CORRELATION_H_

#include <complex>
#include <cstddef>
#include <vector>

#include "la/vector_ops.h"
#include "ts/time_series.h"

namespace adarts::ts {

/// Pearson correlation of two equal-length series (observed values assumed
/// complete; masks are ignored). 0 when either side is constant.
double Pearson(const TimeSeries& a, const TimeSeries& b);

/// Best alignment of one series against another under NCC_c.
struct SbdAlignment {
  double ncc = -1.0;  ///< best NCC_c over all shifts
  int shift = 0;      ///< the maximising shift (b moved right by `shift`)
};

/// The half of an NCC_c computation that depends on one series alone: the
/// series z-normalised, zero-padded to `fft_size` and forward-transformed.
/// With it computed once, each further alignment of that series costs one
/// spectrum product and one inverse FFT (k-shape aligns every member
/// against every centroid).
struct NccSpectrum {
  std::size_t length = 0;                  ///< samples before padding
  std::vector<std::complex<double>> bins;  ///< `fft_size` FFT bins
};

/// Spectrum of `v` for alignments against series of at most
/// `fft_size / 2` samples. `v` must be non-empty, and `fft_size` a power of
/// two no smaller than 2 * |v|. The vector forms below use
/// NextPowerOfTwo(2 * max(|a|, |b|)).
NccSpectrum ComputeNccSpectrum(const la::Vector& v, std::size_t fft_size);

/// Coefficient-normalised cross-correlation NCC_c for every alignment,
/// computed in O(n log n) via FFT. Inputs are z-normalised internally.
/// Entry `i` corresponds to shift s = i - (n - 1), s in [-(n-1), n-1],
/// where n = max(|a|, |b|). Values lie in [-1, 1].
la::Vector NccAllLags(const la::Vector& a, const la::Vector& b);

/// Best alignment of `b` against `a` under NCC_c: the first maximising
/// entry of NccAllLags(a, b).
SbdAlignment BestAlignment(const la::Vector& a, const la::Vector& b);

/// The same alignment from precomputed spectra, which must share one
/// `fft_size`; bit-identical to the vector form at that size.
SbdAlignment BestAlignment(const NccSpectrum& a, const NccSpectrum& b);

}  // namespace adarts::ts

#endif  // ADARTS_TS_CORRELATION_H_
