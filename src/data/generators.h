#ifndef ADARTS_DATA_GENERATORS_H_
#define ADARTS_DATA_GENERATORS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "ts/time_series.h"

namespace adarts::data {

/// The six dataset categories of Section VII-A. The generators reproduce
/// the qualitative traits the paper lists per category (see DESIGN.md's
/// substitution table): which imputation algorithm wins differs across
/// categories, which is the signal the recommendation engine learns.
enum class Category {
  kPower = 0,   ///< periodic household load curves, some shifted in time
  kWater,       ///< synchronized trends with sporadic anomalies
  kMotion,      ///< erratic fluctuations with varying frequency
  kClimate,     ///< periodic, very highly correlated across series
  kLightning,   ///< mixed high/low, positive/negative correlation, transients
  kMedical,     ///< high-frequency quasi-periodic pulses, aligned + shifted
};

inline constexpr int kNumCategories = 6;

std::string_view CategoryToString(Category c);
std::vector<Category> AllCategories();

/// Options for one generated dataset.
struct GeneratorOptions {
  std::size_t num_series = 24;
  std::size_t length = 256;
  std::uint64_t seed = 1;
  /// Variant index: the paper's categories each contain several datasets;
  /// the variant perturbs the generator's parameters deterministically.
  int variant = 0;
};

/// Generates one dataset of `options.num_series` series of the category.
std::vector<ts::TimeSeries> GenerateCategory(Category category,
                                             const GeneratorOptions& options);

/// Generates a mixed corpus: `datasets_per_category` variants of every
/// category concatenated (used by the clustering and coverage benches).
std::vector<ts::TimeSeries> GenerateMixedCorpus(
    std::size_t datasets_per_category, const GeneratorOptions& base_options);

/// Plants `count` point anomalies in `series`: spikes of `magnitude`
/// observed standard deviations (sign alternating), at rng-chosen distinct
/// positions in [margin, length - margin). Returns the planted positions,
/// ascending — the ground truth of the anomaly-detection-after-repair
/// downstream task (bench_fig12). No-op (empty result) when the series is
/// too short for the margins.
std::vector<std::size_t> InjectSpikeAnomalies(std::size_t count,
                                              double magnitude,
                                              std::size_t margin,
                                              adarts::Rng* rng,
                                              ts::TimeSeries* series);

/// One synthetic faulty series of `length` >= 1 points: a sine of random
/// phase plus noise, each interior point missing with probability
/// `missing_fraction`, and the middle point always missing (endpoints stay
/// observed when `length` >= 3). The request series of the serving tools and
/// tests; draws from `rng`, so a fixed seed gives a fixed series.
ts::TimeSeries MakeFaultySeries(std::size_t length, double missing_fraction,
                                adarts::Rng* rng);

}  // namespace adarts::data

#endif  // ADARTS_DATA_GENERATORS_H_
