#ifndef ADARTS_AUTOML_MODEL_RACE_H_
#define ADARTS_AUTOML_MODEL_RACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "automl/pipeline.h"
#include "common/status.h"
#include "ml/dataset.h"

namespace adarts {
class ExecContext;
}  // namespace adarts

namespace adarts::automl {

/// Configuration of ModelRace (Algorithm 1).
struct ModelRaceOptions {
  /// |Theta|: seed pipelines (>= one per classifier family is enforced).
  std::size_t num_seed_pipelines = 24;
  /// m = |S|: growing partial training sets consumed by the outer loop.
  std::size_t num_partial_sets = 4;
  /// k of the stratified k-fold evaluation inside each iteration.
  std::size_t num_folds = 3;
  /// Scoring coefficients of line 9: score = (a*F1 + b*R@3 - g*time)/(a+b+g).
  double alpha = 0.5;
  double beta = 0.5;
  double gamma = 0.75;
  /// Early termination (lines 11-12): a pipeline whose fold score trails the
  /// fold's best by more than this margin leaves the race immediately.
  double early_termination_margin = 0.15;
  /// Second-phase pruning (line 13, irace-style): for each pipeline pair a
  /// Welch t-test compares the score distributions. p-value below
  /// `ttest_worse_pvalue` = the lower-mean pipeline is statistically worse
  /// and is eliminated; p-value above `ttest_similarity_pvalue` = the two
  /// are redundant and the lower mean is eliminated. Pipelines in the
  /// ambiguous band survive — that is the diversity the voting relies on.
  double ttest_worse_pvalue = 0.05;
  double ttest_similarity_pvalue = 0.4;
  /// Children generated per surviving elite each iteration.
  std::size_t synth_per_elite = 3;
  /// Cap on the number of surviving pipelines per iteration.
  std::size_t max_survivors = 10;
  std::uint64_t seed = 7;
  /// Per-candidate wall-clock budget for a single fold evaluation
  /// (fit + predict), in seconds. A candidate that exceeds it is recorded
  /// as timed out and leaves the race. 0 (the default) disables the budget.
  /// Enabling it makes elimination wall-clock-dependent, which forfeits
  /// bit-determinism across runs and thread counts (DESIGN.md §7).
  double candidate_budget_seconds = 0.0;
};

/// A pipeline together with its accumulated race statistics.
struct RacedPipeline {
  Pipeline spec;
  la::Vector scores;  ///< one entry per evaluated fold (all iterations)
  double mean_score = 0.0;
  double mean_f1 = 0.0;
  double mean_recall_at3 = 0.0;
  double mean_time_seconds = 0.0;
};

/// Why a pipeline left the race.
enum class EliminationReason {
  kFailedFit,         ///< fit or scoring returned an error
  kEarlyTermination,  ///< trailed the fold's best beyond the margin
  kTTestPruned,       ///< statistically worse or redundant (phase two)
  kTimedOut,          ///< exceeded `candidate_budget_seconds` on a fold
};

/// One elimination event, in the order the race recorded it.
struct Elimination {
  std::string pipeline;  ///< Pipeline::ToString() of the eliminated spec
  EliminationReason reason = EliminationReason::kFailedFit;
};

/// Prior knowledge carried into an incremental re-race: the surviving
/// elites of an earlier race, with their full fold-score histories. A race
/// seeded from a warm start skips the seed grid entirely — its first
/// iteration races the incumbents plus their synthesized children — while
/// the incumbents stay subject to the normal elimination machinery
/// (early-termination margins, t-test pruning, failed fits), so a stale
/// elite that stops winning on the grown data leaves the race like any
/// other candidate. The carried score history feeds the recency-weighted
/// mean, so fresh folds on the new data dominate an incumbent's ranking.
struct RaceWarmStart {
  std::vector<RacedPipeline> elites;

  bool empty() const { return elites.empty(); }
};

/// Outcome of one ModelRace run.
struct ModelRaceReport {
  /// Theta-elite: the surviving pipelines, best mean score first.
  std::vector<RacedPipeline> elites;
  std::size_t pipelines_evaluated = 0;
  std::size_t pipelines_pruned_early = 0;
  std::size_t pipelines_pruned_ttest = 0;
  std::size_t pipelines_timed_out = 0;
  /// Every elimination with its reason, in deterministic race order.
  std::vector<Elimination> eliminations;
  double elapsed_seconds = 0.0;
};

/// Runs ModelRace: iterates over growing partial training sets of `train`,
/// synthesizes children of the surviving elites, trains every candidate per
/// stratified fold, scores it on that fold's held-out rows with the weighted
/// F1/R@3/runtime objective, early-terminates stragglers per fold, and
/// prunes statistically redundant pipelines per iteration. The race reads
/// no data besides `train`: every score comes from its own folds
/// (DESIGN.md §3).
///
/// A non-empty `warm_start` initialises the elite set, so the first
/// iteration races the incumbents plus their synthesized children instead
/// of the full seed grid; with an empty warm start this is the cold race.
/// The returned report's elites are the natural warm start for the *next*
/// incremental race (Adarts::AppendSeries persists them in the snapshot).
///
/// Fold evaluations fan out on `ctx`'s shared pool, the context's
/// cancellation token is polled between iterations and folds and inside the
/// parallel evaluation loop, and `ctx`'s metrics gain the
/// `race.total_seconds` span plus the `race.pipelines_evaluated` /
/// `race.pipelines_eliminated` / `race.pipelines_timed_out` counters.
/// Reports and elites are bit-identical for every thread count (timing
/// fields aside); see the determinism contract in common/thread_pool.h.
Result<ModelRaceReport> RunModelRace(const ml::Dataset& train,
                                     const ModelRaceOptions& options,
                                     ExecContext& ctx,
                                     const RaceWarmStart& warm_start = {});

}  // namespace adarts::automl

#endif  // ADARTS_AUTOML_MODEL_RACE_H_
