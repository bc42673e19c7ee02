#ifndef ADARTS_AUTOML_RECOMMENDER_H_
#define ADARTS_AUTOML_RECOMMENDER_H_

#include <vector>

#include "automl/model_race.h"
#include "automl/pipeline.h"
#include "common/status.h"
#include "ml/dataset.h"

namespace adarts {
class ExecContext;
}  // namespace adarts

namespace adarts::automl {

/// How far the inference path had to fall down the degradation ladder
/// (DESIGN.md §7): full committee → partial committee (failing members
/// skipped) → single surviving elite → corpus-majority default class.
enum class DegradationLevel {
  kFullCommittee,
  kPartialCommittee,
  kSingleElite,
  kDefaultClass,
};

/// Per-vote health report: how many committee members contributed and how
/// degraded the answer is.
struct VoteDiagnostics {
  std::size_t members_total = 0;
  std::size_t members_failed = 0;
  DegradationLevel level = DegradationLevel::kFullCommittee;
};

/// The inference side of A-DARTS (Fig. 2, steps 6-7): the winning pipelines,
/// re-fitted on the full training data, vote softly — the probability matrix
/// is averaged per class and the class with the highest mean wins.
class VotingRecommender {
 public:
  /// Fits every elite of `report` on `full_train` and assembles the voter.
  /// Elite refits are independent: they run concurrently on `ctx`'s shared
  /// pool, each into its own slot, and the committee is collected in elite
  /// order in a serial post-pass — the assembled voter is bit-identical for
  /// every thread count. The wall-clock accumulates into the
  /// `train.committee_seconds` span of `ctx`'s metrics and each refit into
  /// the `committee.refit` histogram.
  static Result<VotingRecommender> FromRace(const ModelRaceReport& report,
                                            const ml::Dataset& full_train,
                                            ExecContext& ctx);

  /// Assembles a voter from already-fitted pipelines (deserialization path).
  static Result<VotingRecommender> FromPipelines(
      std::vector<TrainedPipeline> committee, int num_classes);

  /// Average per-class probability over the committee. Members that emit a
  /// malformed vector (wrong size or non-finite entries) are skipped and the
  /// average is taken over the survivors; `diagnostics` (optional) reports
  /// how many members contributed and the resulting degradation level. An
  /// empty return vector means every member failed — the caller must fall
  /// back (kDefaultClass); `Adarts::RecommendEx` walks the full ladder and
  /// derives the top pick and the ranking from this one vector.
  la::Vector PredictProba(const la::Vector& features,
                          VoteDiagnostics* diagnostics = nullptr) const;

  std::size_t committee_size() const { return committee_.size(); }
  const std::vector<TrainedPipeline>& committee() const { return committee_; }

 private:
  std::vector<TrainedPipeline> committee_;
  int num_classes_ = 0;
};

}  // namespace adarts::automl

#endif  // ADARTS_AUTOML_RECOMMENDER_H_
