#include "automl/model_race.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "automl/synthesizer.h"
#include "common/exec_context.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "ml/metrics.h"

namespace adarts::automl {

namespace {

/// One fold's raw evaluation of a pipeline, before time normalisation.
struct FoldEval {
  double f1 = 0.0;
  double recall_at3 = 0.0;
  double seconds = 0.0;
  bool failed = false;
  bool timed_out = false;
};

FoldEval EvaluatePipelineOnFold(const Pipeline& spec,
                                const ml::Dataset& fold_train,
                                const ml::Dataset& test,
                                double budget_seconds) {
  FoldEval eval;
  Stopwatch watch;
  auto fitted = FitPipeline(spec, fold_train);
  if (!fitted.ok()) {
    eval.failed = true;
    return eval;
  }
  // The budget is cooperative: checked after the fit and after prediction,
  // never preemptively, so a candidate can overshoot by one phase.
  if (budget_seconds > 0.0 && watch.ElapsedSeconds() > budget_seconds) {
    eval.failed = true;
    eval.timed_out = true;
    return eval;
  }
  const std::vector<la::Vector> probas =
      [&] {
        std::vector<la::Vector> out;
        out.reserve(test.size());
        for (const auto& f : test.features) {
          out.push_back(fitted->PredictProba(f));
        }
        return out;
      }();
  eval.seconds = watch.ElapsedSeconds();
  if (budget_seconds > 0.0 && eval.seconds > budget_seconds) {
    eval.failed = true;
    eval.timed_out = true;
    return eval;
  }

  std::vector<int> preds(test.size());
  for (std::size_t i = 0; i < test.size(); ++i) {
    preds[i] = static_cast<int>(
        std::max_element(probas[i].begin(), probas[i].end()) -
        probas[i].begin());
  }
  auto report =
      ml::ComputeClassificationReport(test.labels, preds, test.num_classes);
  auto r3 = ml::RecallAtK(test.labels, probas, 3);
  if (!report.ok() || !r3.ok()) {
    eval.failed = true;
    return eval;
  }
  eval.f1 = report->f1;
  eval.recall_at3 = *r3;
  return eval;
}

double Score(const ModelRaceOptions& options, double f1, double r3,
             double normalized_time) {
  return (options.alpha * f1 + options.beta * r3 -
          options.gamma * normalized_time) /
         (options.alpha + options.beta + options.gamma);
}

void Refresh(RacedPipeline* rp) {
  // Recency-weighted mean: later scores come from larger partial training
  // sets and are more predictive of final-model quality, so they weigh
  // more (linear ramp).
  if (rp->scores.empty()) {
    rp->mean_score = 0.0;
    return;
  }
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < rp->scores.size(); ++i) {
    const double w = static_cast<double>(i + 1);
    num += w * rp->scores[i];
    den += w;
  }
  rp->mean_score = num / den;
}

}  // namespace

Result<ModelRaceReport> RunModelRace(const ml::Dataset& train,
                                     const ModelRaceOptions& options,
                                     ExecContext& ctx,
                                     const RaceWarmStart& warm_start) {
  ADARTS_RETURN_NOT_OK(train.Validate());
  if (options.num_partial_sets == 0 || options.num_folds < 2) {
    return Status::InvalidArgument("need >= 1 partial set and >= 2 folds");
  }
  ADARTS_RETURN_NOT_OK(ctx.CheckCancelled("ModelRace start"));

  Stopwatch total_watch;
  StageTimer race_timer(&ctx.metrics(), "race.total_seconds");
  // Hoisted once: fold-evaluation latencies stream into this histogram
  // lock-free from every worker (DESIGN.md §9).
  LatencyHistogram* const eval_hist = ctx.metrics().histogram("race.eval");
  // Elimination instants mark *when* a pipeline left the race on the trace
  // timeline; the detail carries the reason and the spec.
  const auto trace_elimination = [](const char* reason, const Pipeline& spec) {
    Tracer& tracer = Tracer::Global();
    if (tracer.enabled()) {
      tracer.RecordInstant("race.eliminate",
                           std::string(reason) + " " + spec.ToString());
    }
  };
  Rng rng(options.seed);
  Synthesizer synth(rng.NextU64());
  ModelRaceReport report;

  ADARTS_ASSIGN_OR_RETURN(
      std::vector<ml::Dataset> partials,
      ml::GrowingPartialSets(train, options.num_partial_sets, &rng));

  // Incumbents enter with their accumulated fold-score history; the
  // max_survivors cap applies here too so a hand-assembled warm start
  // cannot inflate the candidate pool beyond what the race would keep.
  std::vector<RacedPipeline> elites;
  for (const RacedPipeline& e : warm_start.elites) {
    if (elites.size() >= options.max_survivors) break;
    elites.push_back(e);
  }
  std::size_t iterations_raced = 0;

  for (std::size_t iter = 0; iter < partials.size(); ++iter) {
    ADARTS_FAILPOINT("automl.race.iteration");
    ADARTS_RETURN_NOT_OK(ctx.CheckCancelled("ModelRace iteration"));
    const ml::Dataset& s_i = partials[iter];

    // A partial set below 4 samples cannot support a 2-fold split whose
    // train sides hold at least 2 samples each — StratifiedKFoldIndices
    // would be asked for more folds than samples, or fold-train splits
    // would degenerate to a single class. Skip the iteration; later (larger)
    // partials carry the race.
    if (s_i.size() < 4) continue;
    ++iterations_raced;

    // --- Synthesize candidates (line 3): seeds in the first iteration,
    // children of elites afterwards; elites keep racing with their history.
    std::vector<RacedPipeline> candidates;
    if (elites.empty()) {
      for (Pipeline& p : synth.SeedPipelines(options.num_seed_pipelines)) {
        candidates.push_back({std::move(p), {}, 0, 0, 0, 0});
      }
    } else {
      std::vector<Pipeline> parent_specs;
      parent_specs.reserve(elites.size());
      for (const auto& e : elites) parent_specs.push_back(e.spec);
      candidates = std::move(elites);
      for (Pipeline& p :
           synth.Synthesize(parent_specs, options.synth_per_elite)) {
        candidates.push_back({std::move(p), {}, 0, 0, 0, 0});
      }
    }

    // --- Stratified folds over the current partial set (line 5). Clamp k so
    // every fold keeps at least 2 samples; the size-4 guard above ensures
    // the clamp never has to go below 2.
    const std::size_t k =
        std::max<std::size_t>(2, std::min(options.num_folds, s_i.size() / 2));
    auto folds_result = ml::StratifiedKFoldIndices(s_i, k, &rng);
    if (!folds_result.ok()) {
      return folds_result.status();
    }
    const auto& folds = *folds_result;

    std::vector<bool> active(candidates.size(), true);
    std::vector<double> fold_counts(candidates.size(), 0.0);
    std::vector<double> f1_acc(candidates.size(), 0.0);
    std::vector<double> r3_acc(candidates.size(), 0.0);
    std::vector<double> time_acc(candidates.size(), 0.0);

    for (std::size_t fold = 0; fold < folds.size(); ++fold) {
      ADARTS_RETURN_NOT_OK(ctx.CheckCancelled("ModelRace fold"));
      // Standard k-fold usage: train on the complement of the held-out
      // fold, score on the held-out fold. Scoring each fold on its own
      // held-out data keeps the per-fold scores (approximately)
      // independent, which the pairwise t-tests of the pruning phase rely
      // on.
      std::vector<std::size_t> train_indices;
      for (std::size_t other = 0; other < folds.size(); ++other) {
        if (other == fold) continue;
        train_indices.insert(train_indices.end(), folds[other].begin(),
                             folds[other].end());
      }
      const ml::Dataset fold_train = s_i.Subset(train_indices);
      const ml::Dataset fold_eval = s_i.Subset(folds[fold]);
      if (fold_train.empty() || fold_eval.empty()) continue;

      // Evaluate every active candidate on this fold (lines 6-8), in
      // parallel: fitting touches no shared state (each candidate builds its
      // own scaler and classifier, seeded from its spec), so the only
      // cross-candidate effects — the evaluation counter and the fold's
      // total time — are folded in a serial post-pass over pre-sized,
      // index-addressed slots.
      std::vector<std::size_t> to_eval;
      to_eval.reserve(candidates.size());
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (active[c]) to_eval.push_back(c);
      }
      std::vector<FoldEval> evals(candidates.size());
      TraceSpan fold_span("race.fold");
      if (fold_span.enabled()) {
        fold_span.SetDetail("iter=" + std::to_string(iter) +
                            " fold=" + std::to_string(fold) +
                            " candidates=" + std::to_string(to_eval.size()));
      }
      ParallelFor(ctx, to_eval.size(), [&](std::size_t t) {
        const std::size_t c = to_eval[t];
        TraceSpan span("race.eval");
        if (span.enabled()) span.SetDetail(candidates[c].spec.ToString());
        evals[c] = EvaluatePipelineOnFold(candidates[c].spec, fold_train,
                                          fold_eval,
                                          options.candidate_budget_seconds);
        if (!evals[c].failed) eval_hist->RecordSeconds(evals[c].seconds);
      });
      fold_span.Stop();
      // An expired token makes ParallelFor skip remaining iterations, so
      // `evals` may hold default (unevaluated) slots — bail out before
      // reading them.
      ADARTS_RETURN_NOT_OK(ctx.CheckCancelled("ModelRace evaluation"));
      report.pipelines_evaluated += to_eval.size();
      double total_time = 1e-9;
      std::size_t fold_successes = 0;
      for (std::size_t c : to_eval) {
        if (!evals[c].failed) {
          total_time += evals[c].seconds;
          ++fold_successes;
        }
      }

      // Score with runtime normalised within the fold (line 9). The
      // normaliser is the fold's total evaluation time, so the penalty is a
      // pipeline's *share* of the round: it separates grossly expensive
      // configurations without disqualifying moderately slower ones. With
      // fewer than two scored candidates a "share" is meaningless — the sole
      // survivor's share is ~1.0, the maximum penalty, which would make its
      // score history incomparable across folds and pollute the phase-two
      // t-tests — so the penalty is skipped entirely.
      const bool time_penalty = fold_successes >= 2;
      double best_score = -1e300;
      std::vector<double> fold_scores(candidates.size(), -1e300);
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (!active[c]) continue;
        if (evals[c].failed) {
          active[c] = false;  // a failing configuration leaves the race
          if (evals[c].timed_out) {
            ++report.pipelines_timed_out;
            report.eliminations.push_back(
                {candidates[c].spec.ToString(), EliminationReason::kTimedOut});
            trace_elimination("timed_out", candidates[c].spec);
          } else {
            ++report.pipelines_pruned_early;
            report.eliminations.push_back(
                {candidates[c].spec.ToString(), EliminationReason::kFailedFit});
            trace_elimination("failed_fit", candidates[c].spec);
          }
          continue;
        }
        const double sc =
            Score(options, evals[c].f1, evals[c].recall_at3,
                  time_penalty ? evals[c].seconds / total_time : 0.0);
        fold_scores[c] = sc;
        candidates[c].scores.push_back(sc);
        f1_acc[c] += evals[c].f1;
        r3_acc[c] += evals[c].recall_at3;
        time_acc[c] += evals[c].seconds;
        fold_counts[c] += 1.0;
        best_score = std::max(best_score, sc);
      }

      // Early termination (lines 11-12): drop clear stragglers.
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (!active[c]) continue;
        if (fold_scores[c] < best_score - options.early_termination_margin) {
          active[c] = false;
          ++report.pipelines_pruned_early;
          report.eliminations.push_back({candidates[c].spec.ToString(),
                                         EliminationReason::kEarlyTermination});
          trace_elimination("early_termination", candidates[c].spec);
        }
      }

      // Counter track: how many candidates are still racing after this fold.
      Tracer& tracer = Tracer::Global();
      if (tracer.enabled()) {
        std::size_t still_active = 0;
        for (std::size_t c = 0; c < candidates.size(); ++c) {
          if (active[c]) ++still_active;
        }
        tracer.RecordCounter("race.active",
                             static_cast<double>(still_active));
      }
    }

    // Update running means for the survivors of the fold loop.
    std::vector<RacedPipeline> survivors;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (!active[c] || candidates[c].scores.empty()) continue;
      RacedPipeline rp = std::move(candidates[c]);
      Refresh(&rp);
      if (fold_counts[c] > 0.0) {
        rp.mean_f1 = f1_acc[c] / fold_counts[c];
        rp.mean_recall_at3 = r3_acc[c] / fold_counts[c];
        rp.mean_time_seconds = time_acc[c] / fold_counts[c];
      }
      survivors.push_back(std::move(rp));
    }
    std::sort(survivors.begin(), survivors.end(),
              [](const RacedPipeline& a, const RacedPipeline& b) {
                return a.mean_score > b.mean_score;
              });

    // --- Second-phase pruning (line 13): pairwise t-tests. The lower-mean
    // pipeline of a pair is eliminated when it is either statistically
    // worse (confirmed loser) or statistically indistinguishable
    // (redundant); only genuinely ambiguous variations survive, which is
    // the diversity the soft vote relies on.
    std::vector<bool> keep(survivors.size(), true);
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      if (!keep[i]) continue;
      for (std::size_t j = i + 1; j < survivors.size(); ++j) {
        if (!keep[j]) continue;
        const double p =
            ml::WelchTTestPValue(survivors[i].scores, survivors[j].scores);
        if (p < options.ttest_worse_pvalue ||
            p > options.ttest_similarity_pvalue) {
          keep[j] = false;
          ++report.pipelines_pruned_ttest;
          report.eliminations.push_back({survivors[j].spec.ToString(),
                                         EliminationReason::kTTestPruned});
          trace_elimination("ttest_pruned", survivors[j].spec);
        }
      }
    }
    elites.clear();
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      if (keep[i] && elites.size() < options.max_survivors) {
        elites.push_back(std::move(survivors[i]));
      }
    }
    if (elites.empty() && !survivors.empty()) {
      // Never lose the race entirely: keep the single best.
      elites.push_back(std::move(survivors[0]));
    }
  }

  if (iterations_raced == 0) {
    return Status::InvalidArgument(
        "every partial set holds < 4 samples; provide more training data or "
        "fewer partial sets");
  }
  if (elites.empty()) {
    if (report.pipelines_timed_out > 0) {
      return Status::DeadlineExceeded(
          "ModelRace eliminated every pipeline; " +
          std::to_string(report.pipelines_timed_out) +
          " evaluations exceeded the candidate budget of " +
          std::to_string(options.candidate_budget_seconds) + "s");
    }
    return Status::Internal("ModelRace eliminated every pipeline");
  }
  report.elites = std::move(elites);
  report.elapsed_seconds = total_watch.ElapsedSeconds();
  Metrics& metrics = ctx.metrics();
  metrics.Increment("race.pipelines_evaluated", report.pipelines_evaluated);
  metrics.Increment("race.pipelines_eliminated", report.eliminations.size());
  metrics.Increment("race.pipelines_timed_out", report.pipelines_timed_out);
  return report;
}

}  // namespace adarts::automl
