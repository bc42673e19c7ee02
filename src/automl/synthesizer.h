#ifndef ADARTS_AUTOML_SYNTHESIZER_H_
#define ADARTS_AUTOML_SYNTHESIZER_H_

#include <cstddef>
#include <vector>

#include "automl/pipeline.h"
#include "common/rng.h"

namespace adarts::automl {

/// Generates candidate pipelines for ModelRace (Fig. 2, step 3).
///
/// Seeding covers every classifier family at least once (the algorithm's
/// precondition); synthesis derives children from surviving elites by
/// mutating exactly one aspect at a time — one hyperparameter or the
/// scaling step — matching the paper's "small changes to the parent
/// pipeline" rule.
class Synthesizer {
 public:
  explicit Synthesizer(std::uint64_t seed = 1) : rng_(seed) {}

  /// `count` seed pipelines: one default-parameterised pipeline per
  /// classifier family first, then random configurations.
  std::vector<Pipeline> SeedPipelines(std::size_t count);

  /// A uniformly random pipeline.
  Pipeline RandomPipeline();

  /// A child differing from `parent` in exactly one mutated aspect.
  Pipeline Mutate(const Pipeline& parent);

  /// `per_parent` children for every elite (empty elites produce an empty
  /// result, as in the first ModelRace iteration where only seeds race).
  std::vector<Pipeline> Synthesize(const std::vector<Pipeline>& elites,
                                   std::size_t per_parent);

 private:
  std::uint64_t NextId() { return next_id_++; }

  Rng rng_;
  std::uint64_t next_id_ = 0;
};

}  // namespace adarts::automl

#endif  // ADARTS_AUTOML_SYNTHESIZER_H_
