#include "automl/recommender.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/exec_context.h"
#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace adarts::automl {

namespace {

/// Refits the selected elites on `full_train`, one pool task per elite, and
/// returns the successful fits in selection order (failed fits are skipped,
/// matching the serial loop). Slot-indexed results keep the committee order
/// independent of scheduling.
std::vector<TrainedPipeline> FitElites(const ModelRaceReport& report,
                                       const std::vector<std::size_t>& selected,
                                       const ml::Dataset& full_train,
                                       ThreadPool* pool, Metrics& metrics) {
  LatencyHistogram* const refit_hist = metrics.histogram("committee.refit");
  std::vector<std::optional<TrainedPipeline>> fits(selected.size());
  ParallelFor(pool, selected.size(), [&](std::size_t s) {
    TraceSpan span("committee.refit");
    if (span.enabled()) {
      span.SetDetail(report.elites[selected[s]].spec.ToString());
    }
    Stopwatch watch;
    auto fitted = FitPipeline(report.elites[selected[s]].spec, full_train);
    refit_hist->RecordSeconds(watch.ElapsedSeconds());
    if (fitted.ok()) fits[s] = std::move(*fitted);
  });
  std::vector<TrainedPipeline> committee;
  committee.reserve(selected.size());
  for (auto& fit : fits) {
    if (fit.has_value()) committee.push_back(std::move(*fit));
  }
  return committee;
}

}  // namespace

Result<VotingRecommender> VotingRecommender::FromRace(
    const ModelRaceReport& report, const ml::Dataset& full_train,
    ExecContext& ctx) {
  StageTimer timer(&ctx.metrics(), "train.committee_seconds");
  ADARTS_RETURN_NOT_OK(full_train.Validate());
  if (report.elites.empty()) {
    return Status::InvalidArgument("race produced no elites");
  }
  // Serial contexts never construct the shared pool; parallel ones reuse it.
  ThreadPool* pool = nullptr;
  if (ThreadPool::ResolveThreadCount(ctx.num_threads()) > 1) {
    pool = &ctx.pool();
  }
  // Quality gate: diversity helps the vote only among pipelines of
  // comparable strength; stragglers that survived the t-test's ambiguity
  // band would dilute the committee.
  double best_score = report.elites[0].mean_score;
  for (const RacedPipeline& elite : report.elites) {
    best_score = std::max(best_score, elite.mean_score);
  }
  std::vector<std::size_t> gated;
  for (std::size_t i = 0; i < report.elites.size(); ++i) {
    if (report.elites[i].mean_score >= best_score - 0.1) gated.push_back(i);
  }
  std::vector<TrainedPipeline> committee =
      FitElites(report, gated, full_train, pool, ctx.metrics());
  if (committee.empty()) {
    // Gate removed everything fit-able: fall back to the ungated elites.
    std::vector<std::size_t> all(report.elites.size());
    std::iota(all.begin(), all.end(), 0);
    committee = FitElites(report, all, full_train, pool, ctx.metrics());
  }
  if (committee.empty()) {
    return Status::Internal("no elite pipeline could be fitted on full data");
  }
  return VotingRecommender::FromPipelines(std::move(committee),
                                          full_train.num_classes);
}

Result<VotingRecommender> VotingRecommender::FromPipelines(
    std::vector<TrainedPipeline> committee, int num_classes) {
  if (committee.empty()) {
    return Status::InvalidArgument("empty committee");
  }
  if (num_classes <= 0) {
    return Status::InvalidArgument("num_classes must be positive");
  }
  VotingRecommender rec;
  rec.num_classes_ = num_classes;
  rec.committee_ = std::move(committee);
  return rec;
}

la::Vector VotingRecommender::PredictProba(const la::Vector& features,
                                           VoteDiagnostics* diagnostics) const {
  la::Vector acc(static_cast<std::size_t>(num_classes_), 0.0);
  std::size_t voters = 0;
  std::size_t failed = 0;
  for (const TrainedPipeline& member : committee_) {
    if (ADARTS_FAILPOINT_TRIGGERS("automl.vote.member")) {
      ++failed;
      continue;
    }
    const la::Vector p = member.PredictProba(features);
    const bool malformed =
        p.size() != acc.size() ||
        std::any_of(p.begin(), p.end(),
                    [](double v) { return !std::isfinite(v); });
    if (malformed) {
      // A poisoned member (NaN probabilities, wrong class count) must not
      // contaminate the vote; the committee degrades instead of failing.
      ++failed;
      continue;
    }
    for (std::size_t c = 0; c < acc.size(); ++c) acc[c] += p[c];
    ++voters;
  }
  if (diagnostics != nullptr) {
    diagnostics->members_total = committee_.size();
    diagnostics->members_failed = failed;
    if (voters == 0) {
      diagnostics->level = DegradationLevel::kDefaultClass;
    } else if (failed == 0) {
      diagnostics->level = DegradationLevel::kFullCommittee;
    } else if (voters == 1) {
      diagnostics->level = DegradationLevel::kSingleElite;
    } else {
      diagnostics->level = DegradationLevel::kPartialCommittee;
    }
  }
  if (voters == 0) return {};
  for (double& v : acc) v /= static_cast<double>(voters);
  return acc;
}

}  // namespace adarts::automl
