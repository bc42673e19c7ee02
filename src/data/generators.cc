#include "data/generators.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>

#include "common/rng.h"

namespace adarts::data {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Power: a daily load curve (two harmonics + evening peak) with per-series
/// random phase shifts (smart meters are not synchronised) and usage noise.
/// Variants model structurally different deployments — synchronised meters,
/// heavily shifted meters, and noisy meters — whose best repair algorithm
/// differs (matrix methods vs pattern matching vs smoothing).
std::vector<ts::TimeSeries> GeneratePower(const GeneratorOptions& opt,
                                          Rng* rng) {
  std::vector<ts::TimeSeries> out;
  const double period = 32.0 + 4.0 * (opt.variant % 3);
  const int mode = opt.variant % 3;
  const double max_shift = mode == 0 ? 0.0 : (mode == 1 ? period : period / 8.0);
  const double extra_noise = mode == 2 ? 0.35 : 0.0;
  for (std::size_t s = 0; s < opt.num_series; ++s) {
    const double shift = max_shift > 0.0 ? rng->Uniform(0.0, max_shift) : 0.0;
    const double base = rng->Uniform(0.5, 2.0);
    const double amp = rng->Uniform(0.5, 1.5);
    la::Vector v(opt.length);
    for (std::size_t t = 0; t < opt.length; ++t) {
      const double phase = (static_cast<double>(t) + shift) / period;
      double x = base + amp * std::sin(kTwoPi * phase) +
                 0.4 * amp * std::sin(2.0 * kTwoPi * phase + 0.7);
      // Evening peak: a narrow bump once per cycle.
      const double frac = phase - std::floor(phase);
      x += 0.8 * amp * std::exp(-std::pow((frac - 0.75) / 0.06, 2.0));
      x += rng->Normal(0.0, (0.08 + extra_noise) * amp);
      v[t] = x;
    }
    ts::TimeSeries series(std::move(v));
    series.set_name("power_" + std::to_string(opt.variant) + "_" +
                    std::to_string(s));
    out.push_back(std::move(series));
  }
  return out;
}

/// Water: a shared smooth random-walk trend (synchronised across series)
/// plus per-series scaling and sporadic anomaly spikes.
std::vector<ts::TimeSeries> GenerateWater(const GeneratorOptions& opt,
                                          Rng* rng) {
  // The common discharge trend.
  la::Vector trend(opt.length, 0.0);
  double level = 0.0;
  double momentum = 0.0;
  for (std::size_t t = 0; t < opt.length; ++t) {
    momentum = 0.95 * momentum + rng->Normal(0.0, 0.05);
    level += momentum;
    trend[t] = level;
  }
  std::vector<ts::TimeSeries> out;
  for (std::size_t s = 0; s < opt.num_series; ++s) {
    const double scale = rng->Uniform(0.6, 1.6);
    const double offset = rng->Uniform(-40.0, 60.0);  // pH vs conductivity
    const double anomaly_rate = 0.01 + 0.01 * (opt.variant % 2);
    la::Vector v(opt.length);
    for (std::size_t t = 0; t < opt.length; ++t) {
      double x = offset + scale * trend[t] + rng->Normal(0.0, 0.12);
      if (rng->Bernoulli(anomaly_rate)) {
        x += rng->Uniform(4.0, 12.0) * (rng->Bernoulli(0.5) ? 1.0 : -1.0);
      }
      v[t] = x;
    }
    ts::TimeSeries series(std::move(v));
    series.set_name("water_" + std::to_string(opt.variant) + "_" +
                    std::to_string(s));
    out.push_back(std::move(series));
  }
  return out;
}

/// Motion: frequency-modulated oscillation with activity bursts — erratic
/// fluctuations and varying frequency. Variants model sensor rigs: multiple
/// sensors on one body (coupled motion) vs independent subjects vs
/// burst-heavy activities.
std::vector<ts::TimeSeries> GenerateMotion(const GeneratorOptions& opt,
                                           Rng* rng) {
  const int mode = opt.variant % 3;
  // Coupled mode: all sensors follow one body's frequency trajectory.
  la::Vector shared_freq(opt.length, 0.0);
  {
    double freq = rng->Uniform(0.05, 0.25);
    for (std::size_t t = 0; t < opt.length; ++t) {
      freq += rng->Normal(0.0, 0.002);
      if (rng->Bernoulli(0.02)) freq = rng->Uniform(0.05, 0.3);
      shared_freq[t] = std::clamp(freq, 0.02, 0.35);
    }
  }
  const double burst_rate = mode == 2 ? 0.15 : 0.05;
  std::vector<ts::TimeSeries> out;
  for (std::size_t s = 0; s < opt.num_series; ++s) {
    double freq = rng->Uniform(0.05, 0.25);
    double phase = rng->Uniform(0.0, kTwoPi);
    const double amp = rng->Uniform(0.5, 2.0);
    la::Vector v(opt.length);
    for (std::size_t t = 0; t < opt.length; ++t) {
      if (mode == 0) {
        freq = shared_freq[t];  // one body, many sensors
      } else {
        freq += rng->Normal(0.0, 0.002);
        if (rng->Bernoulli(0.02)) freq = rng->Uniform(0.05, 0.3);
        freq = std::clamp(freq, 0.02, 0.35);
      }
      phase += kTwoPi * freq;
      double x = amp * std::sin(phase) + rng->Normal(0.0, 0.25 * amp);
      if (rng->Bernoulli(burst_rate)) x += rng->Normal(0.0, amp);
      v[t] = x;
    }
    ts::TimeSeries series(std::move(v));
    series.set_name("motion_" + std::to_string(opt.variant) + "_" +
                    std::to_string(s));
    out.push_back(std::move(series));
  }
  return out;
}

/// Climate: one strong seasonal cycle shared by every series with small
/// idiosyncratic noise — periodic and very highly correlated.
std::vector<ts::TimeSeries> GenerateClimate(const GeneratorOptions& opt,
                                            Rng* rng) {
  const double period = 48.0 + 8.0 * (opt.variant % 3);
  la::Vector common(opt.length);
  for (std::size_t t = 0; t < opt.length; ++t) {
    const double phase = static_cast<double>(t) / period;
    common[t] = 10.0 * std::sin(kTwoPi * phase) +
                2.0 * std::sin(3.0 * kTwoPi * phase + 1.1);
  }
  std::vector<ts::TimeSeries> out;
  for (std::size_t s = 0; s < opt.num_series; ++s) {
    const double offset = rng->Uniform(-5.0, 15.0);  // city base temperature
    const double scale = rng->Uniform(0.9, 1.1);
    la::Vector v(opt.length);
    for (std::size_t t = 0; t < opt.length; ++t) {
      v[t] = offset + scale * common[t] + rng->Normal(0.0, 0.4);
    }
    ts::TimeSeries series(std::move(v));
    series.set_name("climate_" + std::to_string(opt.variant) + "_" +
                    std::to_string(s));
    out.push_back(std::move(series));
  }
  return out;
}

/// Lightning: damped-oscillation transients at random times. Half the
/// series share event times (high correlation, sometimes inverted), half
/// have independent events (low correlation) — the mixed-correlation trait.
std::vector<ts::TimeSeries> GenerateLightning(const GeneratorOptions& opt,
                                              Rng* rng) {
  // Shared event schedule.
  std::vector<std::size_t> shared_events;
  for (std::size_t t = 8; t + 24 < opt.length; ++t) {
    if (rng->Bernoulli(0.03)) shared_events.push_back(t);
  }
  const auto add_burst = [&](la::Vector* v, std::size_t at, double amp,
                             double sign) {
    for (std::size_t i = 0; i < 24 && at + i < v->size(); ++i) {
      const double x = static_cast<double>(i);
      (*v)[at + i] +=
          sign * amp * std::exp(-x / 6.0) * std::sin(kTwoPi * x / 5.0);
    }
  };
  // Variant modes: a fully synchronised sensor array, an independent array,
  // and a mixed deployment. Within-variant homogeneity keeps each dataset's
  // best repair algorithm decisive, while the category as a whole spans the
  // mixed-correlation trait the paper describes.
  const int mode = opt.variant % 3;
  std::vector<ts::TimeSeries> out;
  for (std::size_t s = 0; s < opt.num_series; ++s) {
    const bool synced = mode == 0 || (mode == 2 && s % 2 == 0);
    const double sign = rng->Bernoulli(0.3) ? -1.0 : 1.0;  // inverted sensors
    la::Vector v(opt.length, 0.0);
    for (std::size_t t = 0; t < opt.length; ++t) v[t] = rng->Normal(0.0, 0.15);
    if (synced) {
      for (std::size_t at : shared_events) {
        add_burst(&v, at, rng->Uniform(2.0, 5.0), sign);
      }
    } else {
      for (std::size_t t = 8; t + 24 < opt.length; ++t) {
        if (rng->Bernoulli(0.03)) {
          add_burst(&v, t, rng->Uniform(2.0, 5.0), sign);
        }
      }
    }
    // Partial trend similarity: a mild common drift on every series.
    for (std::size_t t = 0; t < opt.length; ++t) {
      v[t] += 0.3 * std::sin(kTwoPi * static_cast<double>(t) /
                             static_cast<double>(opt.length));
    }
    ts::TimeSeries series(std::move(v));
    series.set_name("lightning_" + std::to_string(opt.variant) + "_" +
                    std::to_string(s));
    out.push_back(std::move(series));
  }
  return out;
}

/// Medical: ECG-like pulse trains — sharp quasi-periodic spikes over a slow
/// baseline. Variants model different recording setups: tightly aligned
/// leads (cross-series methods win), strongly delayed leads (alignment
/// matters), and independent patients (only within-series structure helps).
std::vector<ts::TimeSeries> GenerateMedical(const GeneratorOptions& opt,
                                            Rng* rng) {
  const int mode = opt.variant % 3;
  const double shared_beat = 20.0 + 2.0 * (opt.variant % 3);
  std::vector<ts::TimeSeries> out;
  for (std::size_t s = 0; s < opt.num_series; ++s) {
    const double beat =
        mode == 2 ? rng->Uniform(16.0, 28.0) : shared_beat;  // per patient
    const double max_delay = mode == 0 ? 1.5 : beat / 2.0;
    const double delay = rng->Uniform(0.0, max_delay);
    const double amp = rng->Uniform(0.8, 1.4);
    la::Vector v(opt.length);
    for (std::size_t t = 0; t < opt.length; ++t) {
      const double phase =
          (static_cast<double>(t) + delay) -
          beat * std::floor((static_cast<double>(t) + delay) / beat);
      // QRS-like spike at the start of each beat, T-wave bump later.
      double x = amp * 2.2 * std::exp(-std::pow(phase / 1.2, 2.0));
      x -= amp * 0.6 * std::exp(-std::pow((phase - 2.5) / 1.0, 2.0));
      x += amp * 0.5 * std::exp(-std::pow((phase - beat * 0.6) / 2.5, 2.0));
      x += 0.15 * std::sin(kTwoPi * static_cast<double>(t) / 90.0);  // resp.
      x += rng->Normal(0.0, 0.04);
      v[t] = x;
    }
    ts::TimeSeries series(std::move(v));
    series.set_name("medical_" + std::to_string(opt.variant) + "_" +
                    std::to_string(s));
    out.push_back(std::move(series));
  }
  return out;
}

}  // namespace

std::string_view CategoryToString(Category c) {
  switch (c) {
    case Category::kPower:
      return "Power";
    case Category::kWater:
      return "Water";
    case Category::kMotion:
      return "Motion";
    case Category::kClimate:
      return "Climate";
    case Category::kLightning:
      return "Lightning";
    case Category::kMedical:
      return "Medical";
  }
  return "Unknown";
}

std::vector<Category> AllCategories() {
  std::vector<Category> out;
  out.reserve(kNumCategories);
  for (int i = 0; i < kNumCategories; ++i) {
    out.push_back(static_cast<Category>(i));
  }
  return out;
}

std::vector<ts::TimeSeries> GenerateCategory(Category category,
                                             const GeneratorOptions& options) {
  // Fold the variant into the seed so variants differ deterministically.
  Rng rng(options.seed * 1000003ULL +
          static_cast<std::uint64_t>(options.variant) * 7919ULL +
          static_cast<std::uint64_t>(category) * 104729ULL);
  switch (category) {
    case Category::kPower:
      return GeneratePower(options, &rng);
    case Category::kWater:
      return GenerateWater(options, &rng);
    case Category::kMotion:
      return GenerateMotion(options, &rng);
    case Category::kClimate:
      return GenerateClimate(options, &rng);
    case Category::kLightning:
      return GenerateLightning(options, &rng);
    case Category::kMedical:
      return GenerateMedical(options, &rng);
  }
  return {};
}

std::vector<ts::TimeSeries> GenerateMixedCorpus(
    std::size_t datasets_per_category, const GeneratorOptions& base_options) {
  std::vector<ts::TimeSeries> out;
  for (Category c : AllCategories()) {
    for (std::size_t v = 0; v < datasets_per_category; ++v) {
      GeneratorOptions opts = base_options;
      opts.variant = static_cast<int>(v);
      std::vector<ts::TimeSeries> part = GenerateCategory(c, opts);
      for (auto& s : part) out.push_back(std::move(s));
    }
  }
  return out;
}

std::vector<std::size_t> InjectSpikeAnomalies(std::size_t count,
                                              double magnitude,
                                              std::size_t margin,
                                              adarts::Rng* rng,
                                              ts::TimeSeries* series) {
  const std::size_t n = series->length();
  if (count == 0 || margin * 2 + count >= n) return {};
  const double scale = std::max(series->ObservedStdDev(), 1e-9);
  std::vector<std::size_t> slots =
      rng->SampleWithoutReplacement(n - 2 * margin, count);
  std::vector<std::size_t> positions;
  positions.reserve(count);
  for (std::size_t slot : slots) positions.push_back(slot + margin);
  std::sort(positions.begin(), positions.end());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const double sign = i % 2 == 0 ? 1.0 : -1.0;
    const std::size_t p = positions[i];
    series->set_value(p, series->value(p) + sign * magnitude * scale);
  }
  return positions;
}

ts::TimeSeries MakeFaultySeries(std::size_t length, double missing_fraction,
                                adarts::Rng* rng) {
  la::Vector values(length);
  std::vector<bool> missing(length, false);
  const double phase = rng->Uniform(0.0, kTwoPi);
  for (std::size_t i = 0; i < length; ++i) {
    values[i] = std::sin(phase + 0.31 * static_cast<double>(i)) +
                0.1 * rng->Normal();
  }
  for (std::size_t i = 1; i + 1 < length; ++i) {
    if (rng->Bernoulli(missing_fraction)) {
      missing[i] = true;
      values[i] = 0.0;
    }
  }
  missing[length / 2] = true;  // at least one missing position
  values[length / 2] = 0.0;
  return ts::TimeSeries(std::move(values), std::move(missing));
}

}  // namespace adarts::data
