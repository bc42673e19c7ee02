// Tests of incremental corpus growth (`Adarts::AppendSeries`): labeling
// agreement with a full retrain across seeds, bit-identical results across
// thread counts, growth-state snapshot round-trips, rejection of engines
// without growth state, and transactional rollback under injected faults.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adarts/adarts.h"
#include "common/exec_context.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "tests/test_util.h"
#include "ts/missing.h"

namespace adarts {
namespace {

using ::adarts::testing::TestThreadCount;

// ---- Corpus construction.
//
// Three tightly-correlated blocks with decisively different best imputers:
// two sine families (trmf wins) and linear ramps (linear_interp
// reconstructs them exactly through any gap). Near-1 intra-block
// correlation plus binary recursive splits make the clustering partition —
// and therefore the labels — stable under corpus growth, so the agreement
// comparison below measures the incremental pipeline, not partition noise.

ts::TimeSeries MakeBlockSeries(int block, std::size_t idx, std::size_t length,
                               Rng* rng) {
  la::Vector v(length);
  for (std::size_t t = 0; t < length; ++t) {
    const double tt = static_cast<double>(t);
    double x = 0.0;
    if (block == 0) {
      x = std::sin(2.0 * M_PI * tt / 24.0 + 0.05 * static_cast<double>(idx));
    } else if (block == 1) {
      x = std::sin(2.0 * M_PI * tt / 8.0 + 0.05 * static_cast<double>(idx));
    } else {
      x = (1.0 + 0.1 * static_cast<double>(idx)) * tt /
          static_cast<double>(length) * 4.0;
    }
    v[t] = x + rng->Normal(0, 0.03);
  }
  return ts::TimeSeries(std::move(v));
}

/// Corpus and delta from one draw: per block the first `base_per` series
/// form the corpus and the next ones the delta — the delta continues the
/// corpus distribution, the regime AppendSeries is designed for.
void BuildCorpusAndDelta(std::size_t base, std::size_t extra,
                         std::uint64_t seed,
                         std::vector<ts::TimeSeries>* corpus,
                         std::vector<ts::TimeSeries>* delta) {
  constexpr std::size_t kLength = 160;
  Rng rng(seed);
  const std::size_t base_per = (base + 2) / 3;
  const std::size_t extra_per = (extra + 2) / 3;
  for (int b = 0; b < 3; ++b) {
    for (std::size_t i = 0; i < base_per + extra_per; ++i) {
      auto s = MakeBlockSeries(b, i, kLength, &rng);
      if (i < base_per) {
        if (corpus->size() < base) corpus->push_back(std::move(s));
      } else if (delta->size() < extra) {
        delta->push_back(std::move(s));
      }
    }
  }
}

TrainOptions BlockTrainOptions(std::uint64_t seed) {
  TrainOptions options;
  options.seed = seed;
  options.race.num_seed_pipelines = 12;
  options.race.num_partial_sets = 2;
  options.race.num_folds = 2;
  options.race.seed = 11;
  // No wall-clock term in the race score: repeated trains (and appends at
  // any thread count) are bit-identical, which the determinism test needs.
  options.race.gamma = 0.0;
  options.labeling.algorithms = {
      impute::Algorithm::kTrmf, impute::Algorithm::kTkcm,
      impute::Algorithm::kLinearInterp, impute::Algorithm::kMeanImpute};
  options.labeling.representatives_per_cluster = 4;
  options.clustering.split_fraction = 0.01;  // binary recursive splits
  return options;
}

Result<Adarts> TrainBase(std::uint64_t seed,
                         std::vector<ts::TimeSeries>* delta_out,
                         std::vector<ts::TimeSeries>* grown_out = nullptr) {
  std::vector<ts::TimeSeries> corpus;
  std::vector<ts::TimeSeries> delta;
  BuildCorpusAndDelta(36, 4, seed, &corpus, &delta);
  if (grown_out != nullptr) {
    *grown_out = corpus;
    grown_out->insert(grown_out->end(), delta.begin(), delta.end());
  }
  *delta_out = std::move(delta);
  ExecContext ctx;
  return Adarts::Train(corpus, BlockTrainOptions(seed), ctx);
}

// ---- Agreement with a full retrain, across seeds.

TEST(AdartsIncrementalTest, AppendAgreesWithFullRetrainAcrossSeeds) {
  for (const std::uint64_t seed : {17u, 29u, 43u, 61u, 77u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::vector<ts::TimeSeries> delta;
    std::vector<ts::TimeSeries> grown;
    auto engine = TrainBase(seed, &delta, &grown);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE(engine->has_growth_state());
    const std::uint64_t version = engine->engine_version();

    ExecContext append_ctx;
    ASSERT_TRUE(engine->AppendSeries(delta, {}, append_ctx).ok());
    EXPECT_EQ(engine->engine_version(), version + 1);
    EXPECT_EQ(engine->training_data().size(), grown.size());

    ExecContext control_ctx;
    auto control = Adarts::Train(grown, BlockTrainOptions(seed), control_ctx);
    ASSERT_TRUE(control.ok()) << control.status().ToString();

    const std::vector<int>& incremental = engine->training_data().labels;
    const std::vector<int>& retrained = control->training_data().labels;
    ASSERT_EQ(incremental.size(), retrained.size());
    std::size_t matches = 0;
    for (std::size_t i = 0; i < incremental.size(); ++i) {
      if (incremental[i] == retrained[i]) ++matches;
    }
    const double agreement = static_cast<double>(matches) /
                             static_cast<double>(incremental.size());
    EXPECT_GE(agreement, 0.9) << matches << "/" << incremental.size()
                              << " labels agree";
  }
}

TEST(AdartsIncrementalTest, AppendPopulatesUpdateCountersAndSpans) {
  std::vector<ts::TimeSeries> delta;
  auto engine = TrainBase(17, &delta);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ExecContext ctx(1);
  ASSERT_TRUE(engine->AppendSeries(delta, UpdateOptions{}, ctx).ok());

  const StageMetrics snapshot = engine->train_report().stages;
  ASSERT_TRUE(snapshot.counters.count("update.assigned") == 1 ||
              snapshot.counters.count("update.splits") == 1);
  std::uint64_t placed = 0;
  if (snapshot.counters.count("update.assigned") == 1) {
    placed += snapshot.counters.at("update.assigned");
  }
  if (snapshot.counters.count("update.splits") == 1) {
    placed += snapshot.counters.at("update.splits");
  }
  EXPECT_EQ(placed, delta.size());
  EXPECT_EQ(snapshot.spans_seconds.count("update.assign_seconds"), 1u);
  EXPECT_EQ(snapshot.spans_seconds.count("update.features_seconds"), 1u);
  EXPECT_EQ(snapshot.spans_seconds.count("update.race_seconds"), 1u);
}

// ---- Determinism: bit-identical across thread counts.

TEST(AdartsIncrementalTest, AppendIsBitIdenticalAcrossThreadCounts) {
  std::vector<ts::TimeSeries> delta;
  auto serial = TrainBase(29, &delta);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  std::vector<ts::TimeSeries> delta2;
  auto parallel = TrainBase(29, &delta2);
  ASSERT_TRUE(parallel.ok());

  // gamma = 0 removes the wall-clock term from the race score; with it the
  // appended engine must be bit-identical at every thread count.
  UpdateOptions update;
  update.race.gamma = 0.0;
  ExecContext one(1);
  ExecContext many(TestThreadCount());
  ASSERT_TRUE(serial->AppendSeries(delta, update, one).ok());
  ASSERT_TRUE(parallel->AppendSeries(delta2, update, many).ok());

  ASSERT_EQ(serial->training_data().size(), parallel->training_data().size());
  EXPECT_EQ(serial->training_data().labels, parallel->training_data().labels);
  for (std::size_t i = 0; i < serial->training_data().size(); ++i) {
    const la::Vector& a = serial->training_data().features[i];
    const la::Vector& b = parallel->training_data().features[i];
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j], b[j]) << "feature (" << i << ", " << j << ")";
    }
  }
  ASSERT_EQ(serial->committee_size(), parallel->committee_size());
  for (std::size_t i = 0; i < serial->committee().size(); ++i) {
    EXPECT_EQ(serial->committee()[i].spec.ToString(),
              parallel->committee()[i].spec.ToString());
  }
  ASSERT_EQ(serial->growth_state().clusters.size(),
            parallel->growth_state().clusters.size());
  for (std::size_t k = 0; k < serial->growth_state().clusters.size(); ++k) {
    EXPECT_EQ(serial->growth_state().clusters[k].label,
              parallel->growth_state().clusters[k].label);
    EXPECT_EQ(serial->growth_state().clusters[k].member_count,
              parallel->growth_state().clusters[k].member_count);
  }
}

// ---- Snapshot round-trips of the growth state.

TEST(AdartsIncrementalTest, GrowthStateSurvivesSnapshotRoundTrip) {
  std::vector<ts::TimeSeries> delta;
  auto engine = TrainBase(43, &delta);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE(engine->has_growth_state());

  const std::string path =
      ::testing::TempDir() + "/adarts_incremental_roundtrip.bin";
  ASSERT_TRUE(engine->Save(path).ok());
  auto loaded = Adarts::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->has_growth_state());

  const GrowthState& before = engine->growth_state();
  const GrowthState& after = loaded->growth_state();
  ASSERT_EQ(before.clusters.size(), after.clusters.size());
  for (std::size_t k = 0; k < before.clusters.size(); ++k) {
    EXPECT_EQ(before.clusters[k].label, after.clusters[k].label);
    EXPECT_EQ(before.clusters[k].member_count, after.clusters[k].member_count);
    ASSERT_EQ(before.clusters[k].representatives.size(),
              after.clusters[k].representatives.size());
    for (std::size_t r = 0; r < before.clusters[k].representatives.size();
         ++r) {
      const ts::TimeSeries& x = before.clusters[k].representatives[r];
      const ts::TimeSeries& y = after.clusters[k].representatives[r];
      ASSERT_EQ(x.length(), y.length());
      for (std::size_t t = 0; t < x.length(); ++t) {
        EXPECT_EQ(x.IsMissing(t), y.IsMissing(t));
        if (!x.IsMissing(t)) {
          EXPECT_EQ(x.value(t), y.value(t));
        }
      }
    }
  }
  ASSERT_EQ(before.warm_start.elites.size(), after.warm_start.elites.size());
  for (std::size_t e = 0; e < before.warm_start.elites.size(); ++e) {
    EXPECT_EQ(before.warm_start.elites[e].spec.ToString(),
              after.warm_start.elites[e].spec.ToString());
    EXPECT_EQ(before.warm_start.elites[e].mean_score,
              after.warm_start.elites[e].mean_score);
  }

  // The loaded engine keeps growing: append works and bumps the version.
  const std::uint64_t version = loaded->engine_version();
  ExecContext ctx;
  ASSERT_TRUE(loaded->AppendSeries(delta, {}, ctx).ok());
  EXPECT_EQ(loaded->engine_version(), version + 1);
}

TEST(AdartsIncrementalTest, AppendedEngineSnapshotRoundTrips) {
  std::vector<ts::TimeSeries> delta;
  auto engine = TrainBase(61, &delta);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ExecContext ctx;
  ASSERT_TRUE(engine->AppendSeries(delta, {}, ctx).ok());

  const std::string path =
      ::testing::TempDir() + "/adarts_incremental_appended.bin";
  ASSERT_TRUE(engine->Save(path).ok());
  auto loaded = Adarts::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->engine_version(), engine->engine_version());
  EXPECT_EQ(loaded->training_data().size(), engine->training_data().size());
  EXPECT_EQ(loaded->training_data().labels, engine->training_data().labels);
  EXPECT_EQ(loaded->growth_state().clusters.size(),
            engine->growth_state().clusters.size());
  EXPECT_EQ(loaded->growth_state().warm_start.elites.size(),
            engine->growth_state().warm_start.elites.size());
}

// ---- Rejections.

TEST(AdartsIncrementalTest, EngineWithoutGrowthStateRejectsAppend) {
  std::vector<ts::TimeSeries> delta;
  auto trained = TrainBase(77, &delta);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  // The same labeled rows through TrainFromLabeled: the engine has no
  // clusters to assign new series to.
  ExecContext ctx;
  auto engine = Adarts::TrainFromLabeled(
      trained->training_data(), trained->algorithm_pool(),
      trained->feature_extractor().options(), BlockTrainOptions(77).race, 77,
      ctx);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_FALSE(engine->has_growth_state());
  const Status st = engine->AppendSeries(delta, {}, ctx);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(AdartsIncrementalTest, EmptyDeltaAndForeignPoolAreRejected) {
  std::vector<ts::TimeSeries> delta;
  auto engine = TrainBase(17, &delta);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ExecContext ctx;
  EXPECT_EQ(engine->AppendSeries({}, {}, ctx).code(),
            StatusCode::kInvalidArgument);

  UpdateOptions foreign;
  foreign.labeling.algorithms = {impute::Algorithm::kGrouse};
  EXPECT_EQ(engine->AppendSeries(delta, foreign, ctx).code(),
            StatusCode::kInvalidArgument);
}

// ---- Transactional rollback under injected faults.

TEST(AdartsIncrementalTest, AppendFaultsLeaveEngineUnchanged) {
  std::vector<ts::TimeSeries> delta;
  auto engine = TrainBase(91, &delta);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const std::uint64_t version = engine->engine_version();
  const std::size_t corpus_size = engine->training_data().size();
  const std::vector<int> labels = engine->training_data().labels;
  std::vector<std::string> committee;
  for (const auto& member : engine->committee()) {
    committee.push_back(member.spec.ToString());
  }
  const std::size_t clusters = engine->growth_state().clusters.size();

  for (const char* site : {"adarts.update.start", "adarts.update.assign",
                           "adarts.update.label", "adarts.update.race"}) {
    SCOPED_TRACE(site);
    ScopedFailpoint fp{site, FailpointSpec{}};
    ExecContext ctx;
    const Status st = engine->AppendSeries(delta, {}, ctx);
    EXPECT_FALSE(st.ok());
    EXPECT_FALSE(st.message().empty());
    EXPECT_EQ(engine->engine_version(), version);
    EXPECT_EQ(engine->training_data().size(), corpus_size);
    EXPECT_EQ(engine->training_data().labels, labels);
    EXPECT_EQ(engine->growth_state().clusters.size(), clusters);
    ASSERT_EQ(engine->committee().size(), committee.size());
    for (std::size_t i = 0; i < committee.size(); ++i) {
      EXPECT_EQ(engine->committee()[i].spec.ToString(), committee[i]);
    }
  }

  // After the faults clear, the same append succeeds — nothing was
  // half-committed.
  ExecContext ctx;
  ASSERT_TRUE(engine->AppendSeries(delta, {}, ctx).ok());
  EXPECT_EQ(engine->engine_version(), version + 1);
  EXPECT_EQ(engine->training_data().size(), corpus_size + delta.size());
}

// ---- Warm start economics.

TEST(AdartsIncrementalTest, WarmStartSeedsRaceFromStoredElites) {
  std::vector<ts::TimeSeries> delta;
  auto engine = TrainBase(103, &delta);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_FALSE(engine->growth_state().warm_start.empty());

  ExecContext ctx(1);
  ASSERT_TRUE(engine->AppendSeries(delta, UpdateOptions{}, ctx).ok());
  // The refreshed warm-start state carries the new race's elites so the
  // next append keeps compounding.
  EXPECT_FALSE(engine->growth_state().warm_start.empty());
  const StageMetrics snapshot = engine->train_report().stages;
  EXPECT_EQ(snapshot.counters.count("race.pipelines_evaluated"), 1u);
}

}  // namespace
}  // namespace adarts
