// Fault-injection and robustness tests: the failpoint registry itself,
// a sweep that arms every registered site in turn against the full engine
// surface (train / recommend / repair / save / load / CSV I/O) asserting
// clean Status propagation or graceful degradation — never a crash — plus
// cooperative cancellation, deadlines, candidate budgets, and the
// inference degradation ladder. See DESIGN.md §7.

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <set>
#include <string>

#include "adarts/adarts.h"
#include "automl/model_race.h"
#include "common/cancellation.h"
#include "common/exec_context.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/generators.h"
#include "io/csv.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "tests/test_util.h"
#include "ts/missing.h"

namespace adarts {
namespace {

// ---------------------------------------------------------------------------
// Registry unit tests.

TEST(FailpointRegistryTest, UnarmedSitesAreFree) {
  FailpointRegistry::Instance().DisableAll();
  EXPECT_FALSE(FailpointRegistry::Armed());
  EXPECT_TRUE(FailpointRegistry::Instance().Check("la.svd").ok());
  EXPECT_FALSE(ADARTS_FAILPOINT_TRIGGERS("la.svd"));
}

TEST(FailpointRegistryTest, EnableFiresAndDisableStops) {
  auto& reg = FailpointRegistry::Instance();
  reg.Enable("la.svd");
  EXPECT_TRUE(FailpointRegistry::Armed());
  Status s = reg.Check("la.svd");
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("la.svd"), std::string::npos);
  // Other sites are unaffected.
  EXPECT_TRUE(reg.Check("la.pca.fit").ok());
  reg.Disable("la.svd");
  EXPECT_TRUE(reg.Check("la.svd").ok());
  EXPECT_FALSE(FailpointRegistry::Armed());
}

TEST(FailpointRegistryTest, SpecStringParsesCodeAndSkip) {
  auto& reg = FailpointRegistry::Instance();
  ASSERT_TRUE(reg.ArmFromSpec("io.csv.read=notfound@2").ok());
  EXPECT_TRUE(reg.Check("io.csv.read").ok());  // hit 1: skipped
  EXPECT_TRUE(reg.Check("io.csv.read").ok());  // hit 2: skipped
  Status s = reg.Check("io.csv.read");         // hit 3: fires
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(reg.HitCount("io.csv.read"), 3u);
  reg.DisableAll();
  EXPECT_EQ(reg.HitCount("io.csv.read"), 0u);
}

TEST(FailpointRegistryTest, SpecStringListArmsSeveralSites) {
  auto& reg = FailpointRegistry::Instance();
  ASSERT_TRUE(reg.ArmFromSpec("la.svd=numerical;impute.cdrec.fit").ok());
  EXPECT_EQ(reg.ArmedSites().size(), 2u);
  EXPECT_EQ(reg.Check("la.svd").code(), StatusCode::kNumericalError);
  EXPECT_EQ(reg.Check("impute.cdrec.fit").code(), StatusCode::kInternal);
  reg.DisableAll();
}

TEST(FailpointRegistryTest, BadSpecStringsAreRejected) {
  auto& reg = FailpointRegistry::Instance();
  EXPECT_FALSE(reg.ArmFromSpec("la.svd=nosuchcode").ok());
  EXPECT_FALSE(reg.ArmFromSpec("la.svd@notanumber").ok());
  EXPECT_FALSE(reg.ArmFromSpec("=internal").ok());
  reg.DisableAll();
}

TEST(FailpointRegistryTest, ScopedFailpointDisarmsOnDestruction) {
  {
    ScopedFailpoint fp("adarts.save.write");
    EXPECT_FALSE(FailpointRegistry::Instance().Check("adarts.save.write").ok());
  }
  EXPECT_TRUE(FailpointRegistry::Instance().Check("adarts.save.write").ok());
}

TEST(FailpointRegistryTest, MaxFiresLimitsTriggers) {
  FailpointSpec spec;
  spec.max_fires = 1;
  ScopedFailpoint fp("automl.vote.member", spec);
  auto& reg = FailpointRegistry::Instance();
  EXPECT_TRUE(reg.Triggers("automl.vote.member"));
  EXPECT_FALSE(reg.Triggers("automl.vote.member"));
  EXPECT_FALSE(reg.Triggers("automl.vote.member"));
}

TEST(FailpointRegistryTest, CanonicalSiteListIsSortedAndUnique) {
  const auto& sites = AllFailpointSites();
  ASSERT_FALSE(sites.empty());
  std::set<std::string_view> seen;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_TRUE(seen.insert(sites[i]).second) << sites[i] << " duplicated";
    if (i > 0) {
      EXPECT_LT(sites[i - 1], sites[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Engine fixtures shared by the sweep and the behaviour tests.

using testing::FastOptions;
using testing::SmallCorpus;

/// The three categories these engine tests train on.
const std::vector<data::Category> kCategories = {
    data::Category::kClimate, data::Category::kMotion,
    data::Category::kMedical};

std::vector<ts::TimeSeries> FaultySet(std::size_t count, std::uint64_t seed) {
  data::GeneratorOptions gopts;
  gopts.num_series = count;
  gopts.length = 160;
  gopts.seed = seed;
  auto set = data::GenerateCategory(data::Category::kClimate, gopts);
  Rng rng(seed + 1);
  for (auto& s : set) {
    EXPECT_TRUE(ts::InjectSingleBlock(12, &rng, &s).ok());
  }
  return set;
}

bool InPool(const Adarts& engine, impute::Algorithm algo) {
  for (impute::Algorithm a : engine.algorithm_pool()) {
    if (a == algo) return true;
  }
  return false;
}

/// One tolerant request/response round trip against a live server. With a
/// net.* site armed, any clean failure is an acceptable outcome — a refusal
/// frame, a dropped connection, a shed, a rejected reload — but never a
/// hang (bounded by the receive timeout) and never a crash.
void ServeRoundTrip(std::uint16_t port, const net::Request& request) {
  auto sock = net::ConnectTcp("127.0.0.1", port);
  if (!sock.ok()) return;
  (void)sock->SetReceiveTimeout(2.0);
  (void)net::Call(*sock, request);
}

// ---------------------------------------------------------------------------
// The sweep: every registered site is armed in turn and the whole public
// surface is driven through it. Acceptance: each operation returns either
// a non-OK Status or a degraded-but-valid result; nothing crashes, hangs,
// or trips a sanitizer. Each site must also actually fire somewhere.

TEST(FaultInjectionSweepTest, EverySiteFailsCleanlyAcrossTheEngineSurface) {
  const auto corpus = SmallCorpus(kCategories);
  const auto options = FastOptions();
  ExecContext healthy_ctx;
  auto healthy = Adarts::Train(corpus, options, healthy_ctx);
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  const auto faulty_set = FaultySet(3, 33);
  const ts::TimeSeries& faulty = faulty_set[0];
  const std::string bundle_path = ::testing::TempDir() + "fi_bundle.txt";
  const std::string csv_path = ::testing::TempDir() + "fi_series.csv";
  // A valid snapshot saved while unarmed: the reload probe below must get
  // past Load so the reload verify/swap sites see traffic.
  const std::string reload_path = ::testing::TempDir() + "fi_reload.adarts";
  ASSERT_TRUE(healthy->Save(reload_path).ok());
  RecommendBatchOptions degraded;
  degraded.fail_fast = false;

  for (std::string_view site : AllFailpointSites()) {
    SCOPED_TRACE(std::string("site: ") + std::string(site));
    ScopedFailpoint fp{std::string(site)};
    auto& reg = FailpointRegistry::Instance();

    // Training: a clean error or a degraded-but-trained engine (imputer
    // faults degrade to infinity-RMSE labels instead of aborting).
    ExecContext ctx;
    auto trained = Adarts::Train(corpus, options, ctx);
    if (trained.ok()) {
      EXPECT_GE(trained->committee_size(), 1u);
    } else {
      EXPECT_FALSE(trained.status().message().empty());
    }

    // Single-series inference.
    auto rec = healthy->Recommend(faulty, ctx);
    if (rec.ok()) {
      EXPECT_TRUE(InPool(*healthy, *rec));
    }

    // Batched inference in degraded mode never fails the batch.
    auto batch = healthy->RecommendBatch(faulty_set, degraded, ctx);
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_EQ(batch->size(), faulty_set.size());

    // Repairs: done fully or refused cleanly.
    auto repaired = healthy->Repair(faulty, ctx);
    if (repaired.ok()) {
      EXPECT_FALSE(repaired->HasMissing());
    }
    auto repaired_set = healthy->RepairSet(faulty_set, degraded, ctx);
    if (repaired_set.ok()) {
      ASSERT_EQ(repaired_set->size(), faulty_set.size());
      for (const auto& s : *repaired_set) EXPECT_FALSE(s.HasMissing());
    }

    // Serialization round trip.
    Status saved = healthy->Save(bundle_path);
    if (saved.ok()) {
      auto loaded = Adarts::Load(bundle_path);
      if (loaded.ok()) {
        EXPECT_EQ(loaded->committee_size(), healthy->committee_size());
      }
    }

    // Incremental growth through the adarts.update.* sites, on a freshly
    // loaded engine so the shared healthy fixture stays fixed across
    // iterations. A clean failure must leave the engine untouched
    // (version and corpus unchanged); success bumps the version.
    {
      auto loaded = Adarts::Load(reload_path);
      if (loaded.ok() && loaded->has_growth_state()) {
        data::GeneratorOptions gopts;
        gopts.num_series = 2;
        gopts.length = 160;
        gopts.seed = 21;
        auto delta = data::GenerateCategory(data::Category::kClimate, gopts);
        const std::uint64_t version = loaded->engine_version();
        const std::size_t corpus_size = loaded->training_data().size();
        ExecContext ctx;
        Status appended = loaded->AppendSeries(delta, {}, ctx);
        if (appended.ok()) {
          EXPECT_EQ(loaded->engine_version(), version + 1);
          EXPECT_EQ(loaded->training_data().size(),
                    corpus_size + delta.size());
        } else {
          EXPECT_FALSE(appended.message().empty());
          EXPECT_EQ(loaded->engine_version(), version);
          EXPECT_EQ(loaded->training_data().size(), corpus_size);
        }
      }
    }

    // CSV I/O.
    Status wrote = io::WriteSeriesCsv(csv_path, faulty_set);
    if (wrote.ok()) {
      auto read = io::ReadSeriesCsv(csv_path);
      if (read.ok()) {
        EXPECT_EQ(read->size(), faulty_set.size());
      }
    }

    // The serving front end: a ping, a recommend and a snapshot reload
    // drive the net.* sites (accept, mid-frame read/write, queue push,
    // reload verify/swap). Every injected outcome is acceptable — a refused
    // connection, a dropped frame, a rejected reload — but the server must
    // neither crash nor hang, and must still drain cleanly.
    {
      net::ServeOptions sopts;
      sopts.queue_capacity = 4;
      net::Server server(*healthy, sopts);
      ASSERT_TRUE(server.Start().ok());
      net::Request ping;
      ping.type = net::MessageType::kPing;
      ping.id = 1;
      ServeRoundTrip(server.port(), ping);
      net::Request recommend;
      recommend.type = net::MessageType::kRecommend;
      recommend.id = 2;
      recommend.series.push_back(faulty);
      ServeRoundTrip(server.port(), recommend);
      net::Request reload;
      reload.type = net::MessageType::kReload;
      reload.id = 3;
      reload.text = reload_path;
      ServeRoundTrip(server.port(), reload);
      server.RequestShutdown();
      EXPECT_TRUE(server.Wait().ok());
    }

    // Direct fits of the whole imputer family: the engine's pool covers
    // only a subset, and every impute.*.fit site must see traffic.
    for (impute::Algorithm a : impute::AllAlgorithms()) {
      auto out = impute::CreateImputer(a)->ImputeSet(faulty_set);
      if (out.ok()) {
        for (const auto& s : *out) EXPECT_FALSE(s.HasMissing());
      } else {
        EXPECT_FALSE(out.status().message().empty());
      }
    }

    // The battery above reaches every planted site: a registered name that
    // never fires is a stale entry in AllFailpointSites().
    EXPECT_GT(reg.HitCount(std::string(site)), 0u)
        << "registered failpoint never evaluated";
  }
  std::remove(bundle_path.c_str());
  std::remove(csv_path.c_str());
  std::remove(reload_path.c_str());
}

// ---------------------------------------------------------------------------
// Cancellation and deadlines.

TEST(CancellationTest, TokenReportsCancelAndDeadline) {
  CancellationToken token;
  EXPECT_FALSE(token.expired());
  EXPECT_TRUE(token.Check("work").ok());
  token.Cancel();
  EXPECT_TRUE(token.expired());
  EXPECT_EQ(token.Check("work").code(), StatusCode::kCancelled);

  CancellationToken expired = CancellationToken::WithDeadline(0.0);
  EXPECT_TRUE(expired.expired());
  EXPECT_EQ(expired.Check("work").code(), StatusCode::kDeadlineExceeded);

  CancellationToken generous = CancellationToken::WithDeadline(3600.0);
  EXPECT_FALSE(generous.expired());
}

TEST(CancellationTest, ParallelForSkipsWorkOnExpiredToken) {
  CancellationToken token;
  token.Cancel();
  ThreadPool pool(testing::TestThreadCount());
  std::vector<int> touched(64, 0);
  // The loop must still return (skip-but-count keeps the barrier) without
  // running any iteration body.
  ParallelFor(&pool, touched.size(),
              [&](std::size_t i) { touched[i] = 1; }, &token);
  for (int t : touched) EXPECT_EQ(t, 0);
}

TEST(CancellationTest, PreCancelledTrainReturnsCancelled) {
  CancellationToken token;
  token.Cancel();
  ExecContext ctx(0, &token);
  auto engine = Adarts::Train(SmallCorpus(kCategories), FastOptions(), ctx);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kCancelled);
}

TEST(CancellationTest, ExpiredDeadlineTrainReturnsDeadlineExceeded) {
  CancellationToken token = CancellationToken::WithDeadline(0.0);
  ExecContext ctx(0, &token);
  auto engine = Adarts::Train(SmallCorpus(kCategories), FastOptions(), ctx);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTest, PreCancelledBatchFillsEverySlotWithCancelled) {
  ExecContext train_ctx;
  auto engine =
      Adarts::Train(SmallCorpus(kCategories), FastOptions(), train_ctx);
  ASSERT_TRUE(engine.ok()) << engine.status();
  const auto set = FaultySet(4, 55);
  CancellationToken token;
  token.Cancel();
  ExecContext ctx(0, &token);
  auto partial = engine->RecommendBatchPartial(set, ctx);
  ASSERT_EQ(partial.size(), set.size());
  for (const auto& slot : partial) {
    ASSERT_FALSE(slot.ok());
    EXPECT_EQ(slot.status().code(), StatusCode::kCancelled);
  }
}

TEST(ModelRaceBudgetTest, ImpossibleBudgetTimesEveryPipelineOut) {
  ml::Dataset train = testing::MakeBlobs(3, 12, 4, 11);
  automl::ModelRaceOptions options;
  options.num_seed_pipelines = 8;
  options.num_partial_sets = 2;
  options.num_folds = 2;
  options.candidate_budget_seconds = 1e-12;  // nothing can fit this fast
  ExecContext ctx(1);
  auto report = automl::RunModelRace(train, options, ctx);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(report.status().message().find("candidate budget"),
            std::string::npos);
}

TEST(ModelRaceBudgetTest, GenerousBudgetMatchesNoBudgetBitForBit) {
  ml::Dataset train = testing::MakeBlobs(3, 12, 4, 21);
  automl::ModelRaceOptions options;
  options.num_seed_pipelines = 8;
  options.num_partial_sets = 2;
  options.num_folds = 2;
  // gamma = 0 removes the wall-clock term from the score (as in
  // threading_test) — with it, no two runs are comparable bit-for-bit.
  options.gamma = 0.0;
  ExecContext baseline_ctx(1);
  auto baseline = automl::RunModelRace(train, options, baseline_ctx);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  options.candidate_budget_seconds = 1e9;  // enabled but unreachable
  ExecContext budgeted_ctx(1);
  auto budgeted = automl::RunModelRace(train, options, budgeted_ctx);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status();
  EXPECT_EQ(budgeted->pipelines_timed_out, 0u);
  ASSERT_EQ(budgeted->elites.size(), baseline->elites.size());
  for (std::size_t i = 0; i < baseline->elites.size(); ++i) {
    EXPECT_EQ(budgeted->elites[i].spec.ToString(),
              baseline->elites[i].spec.ToString());
    EXPECT_EQ(budgeted->elites[i].mean_score, baseline->elites[i].mean_score);
    EXPECT_EQ(budgeted->elites[i].scores, baseline->elites[i].scores);
  }
  EXPECT_EQ(budgeted->pipelines_evaluated, baseline->pipelines_evaluated);
  EXPECT_EQ(budgeted->pipelines_pruned_early, baseline->pipelines_pruned_early);
  EXPECT_EQ(budgeted->pipelines_pruned_ttest, baseline->pipelines_pruned_ttest);
  EXPECT_EQ(budgeted->eliminations.size(), baseline->eliminations.size());
}

TEST(ModelRaceBudgetTest, EliminationsRecordReasons) {
  ml::Dataset train = testing::MakeBlobs(3, 12, 4, 31);
  automl::ModelRaceOptions options;
  options.num_seed_pipelines = 12;
  options.num_partial_sets = 2;
  options.num_folds = 2;
  ExecContext ctx(1);
  auto report = automl::RunModelRace(train, options, ctx);
  ASSERT_TRUE(report.ok()) << report.status();
  // Every counted elimination appears in the reason log and vice versa.
  std::size_t early = 0;
  std::size_t ttest = 0;
  std::size_t timed = 0;
  for (const automl::Elimination& e : report->eliminations) {
    EXPECT_FALSE(e.pipeline.empty());
    switch (e.reason) {
      case automl::EliminationReason::kFailedFit:
      case automl::EliminationReason::kEarlyTermination:
        ++early;
        break;
      case automl::EliminationReason::kTTestPruned:
        ++ttest;
        break;
      case automl::EliminationReason::kTimedOut:
        ++timed;
        break;
    }
  }
  EXPECT_EQ(early, report->pipelines_pruned_early);
  EXPECT_EQ(ttest, report->pipelines_pruned_ttest);
  EXPECT_EQ(timed, report->pipelines_timed_out);
  EXPECT_EQ(timed, 0u);
}

// ---------------------------------------------------------------------------
// The inference degradation ladder.

TEST(DegradationLadderTest, HealthyCommitteeReportsFullCommittee) {
  ExecContext ctx;
  auto engine = Adarts::Train(SmallCorpus(kCategories), FastOptions(), ctx);
  ASSERT_TRUE(engine.ok()) << engine.status();
  const auto set = FaultySet(1, 77);
  auto rec = engine->RecommendEx(set[0]);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->degradation, automl::DegradationLevel::kFullCommittee);
  EXPECT_EQ(rec->vote.members_failed, 0u);
  EXPECT_EQ(rec->vote.members_total, engine->committee_size());
  EXPECT_TRUE(InPool(*engine, rec->algorithm));
}

TEST(DegradationLadderTest, AllMembersFailingFallsBackToDefaultClass) {
  ExecContext ctx;
  auto engine = Adarts::Train(SmallCorpus(kCategories), FastOptions(), ctx);
  ASSERT_TRUE(engine.ok()) << engine.status();
  const auto set = FaultySet(1, 78);
  ScopedFailpoint fp("automl.vote.member");  // every member, every call
  auto rec = engine->RecommendEx(set[0]);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->degradation, automl::DegradationLevel::kDefaultClass);
  EXPECT_EQ(rec->vote.members_failed, engine->committee_size());
  const auto& pool = engine->algorithm_pool();
  ASSERT_LT(static_cast<std::size_t>(engine->default_class()), pool.size());
  EXPECT_EQ(rec->algorithm,
            pool[static_cast<std::size_t>(engine->default_class())]);
}

TEST(DegradationLadderTest, RankingFollowsTheLadderWhenAllMembersFail) {
  // Mean imputation rarely wins on these structured series, so listing it
  // first makes the corpus-majority default a class other than 0 — the case
  // where a ranking blind to the ladder would lead with pool[0].
  TrainOptions options = FastOptions();
  options.labeling.algorithms = {
      impute::Algorithm::kMeanImpute, impute::Algorithm::kCdRec,
      impute::Algorithm::kSvdImpute, impute::Algorithm::kTkcm,
      impute::Algorithm::kLinearInterp};
  ExecContext ctx;
  auto engine = Adarts::Train(SmallCorpus(kCategories), options, ctx);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_NE(engine->default_class(), 0);
  const auto set = FaultySet(1, 78);
  ScopedFailpoint fp("automl.vote.member");  // every member, every call
  auto rec = engine->RecommendEx(set[0]);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->degradation, automl::DegradationLevel::kDefaultClass);
  const auto& pool = engine->algorithm_pool();
  ASSERT_EQ(rec->ranking.size(), pool.size());
  EXPECT_EQ(rec->ranking.front(), rec->algorithm);
  EXPECT_EQ(rec->algorithm,
            pool[static_cast<std::size_t>(engine->default_class())]);
}

// Recommend, RecommendBatch and Repair record a request through one path:
// the same counters and the same layer spans, healthy or degraded.
TEST(DegradationLadderTest, EveryEntryPointRecordsARequestTheSameWay) {
  ExecContext train_ctx;
  auto engine =
      Adarts::Train(SmallCorpus(kCategories), FastOptions(), train_ctx);
  ASSERT_TRUE(engine.ok()) << engine.status();
  const ts::TimeSeries series = FaultySet(1, 80)[0];
  for (bool armed : {false, true}) {
    std::optional<ScopedFailpoint> fp;
    if (armed) fp.emplace("automl.vote.member");
    ExecContext single_ctx;
    ASSERT_TRUE(engine->Recommend(series, single_ctx).ok());
    ExecContext batch_ctx;
    ASSERT_TRUE(engine->RecommendBatch({series}, {}, batch_ctx).ok());
    ExecContext repair_ctx;
    ASSERT_TRUE(engine->Repair(series, repair_ctx).ok());

    const StageMetrics single = single_ctx.metrics().Snapshot();
    EXPECT_EQ(single.Counter("recommend.requests"), 1u);
    EXPECT_EQ(single.Counter("recommend.degraded"), armed ? 1u : 0u);
    EXPECT_EQ(single.Counter("vote.members_failed"),
              armed ? engine->committee_size() : 0u);
    EXPECT_EQ(single.spans_seconds.count("recommend.extract_seconds"), 1u);
    EXPECT_EQ(single.spans_seconds.count("recommend.vote_seconds"), 1u);
    for (const ExecContext* ctx : {&batch_ctx, &repair_ctx}) {
      const StageMetrics other = ctx->metrics().Snapshot();
      for (const char* counter :
           {"recommend.requests", "recommend.degraded", "vote.members_failed"}) {
        EXPECT_EQ(other.Counter(counter), single.Counter(counter))
            << counter << (armed ? " (armed)" : " (healthy)");
      }
      for (const char* span :
           {"recommend.extract_seconds", "recommend.vote_seconds"}) {
        EXPECT_EQ(other.spans_seconds.count(span), 1u)
            << span << (armed ? " (armed)" : " (healthy)");
      }
    }
  }
}

TEST(DegradationLadderTest, PartialMemberFailureStillVotes) {
  // gamma = 0 drops the wall-clock term from the race score, so the
  // committee, and with it its size, is the same on every run.
  TrainOptions options = FastOptions();
  options.race.gamma = 0.0;
  ExecContext ctx;
  auto engine = Adarts::Train(SmallCorpus(kCategories), options, ctx);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_GE(engine->committee_size(), 2u)
      << "needs a committee of >= 2 to degrade partially";
  const auto set = FaultySet(1, 79);
  FailpointSpec spec;
  spec.max_fires = 1;  // exactly one member fails
  ScopedFailpoint fp("automl.vote.member", spec);
  auto rec = engine->RecommendEx(set[0]);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->vote.members_failed, 1u);
  EXPECT_NE(rec->degradation, automl::DegradationLevel::kDefaultClass);
  EXPECT_NE(rec->degradation, automl::DegradationLevel::kFullCommittee);
  EXPECT_TRUE(InPool(*engine, rec->algorithm));
}

// ---------------------------------------------------------------------------
// Batched inference: aggregate errors and degraded fills.

TEST(RecommendBatchTest, AggregateErrorNamesEveryFailedSeries) {
  ExecContext ctx;
  auto engine = Adarts::Train(SmallCorpus(kCategories), FastOptions(), ctx);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto batch = FaultySet(1, 91);
  // Two series far too short to featurize: both must be reported.
  batch.push_back(ts::TimeSeries(la::Vector{1.0, 2.0, 3.0}));
  batch.push_back(ts::TimeSeries(la::Vector{4.0, 5.0}));
  auto result = engine->RecommendBatch(batch, {}, ctx);
  ASSERT_FALSE(result.ok());
  const std::string& msg = result.status().message();
  EXPECT_NE(msg.find("2 of 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("series 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("series 2"), std::string::npos) << msg;
}

TEST(RecommendBatchTest, PartialExposesPerSeriesStatuses) {
  ExecContext ctx;
  auto engine = Adarts::Train(SmallCorpus(kCategories), FastOptions(), ctx);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto batch = FaultySet(1, 92);
  batch.push_back(ts::TimeSeries(la::Vector{1.0, 2.0, 3.0}));
  auto partial = engine->RecommendBatchPartial(batch, ctx);
  ASSERT_EQ(partial.size(), 2u);
  EXPECT_TRUE(partial[0].ok());
  EXPECT_FALSE(partial[1].ok());
}

TEST(RecommendBatchTest, DegradedModeFillsFailuresWithDefaultAlgorithm) {
  ExecContext ctx;
  auto engine = Adarts::Train(SmallCorpus(kCategories), FastOptions(), ctx);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto batch = FaultySet(1, 93);
  batch.push_back(ts::TimeSeries(la::Vector{1.0, 2.0, 3.0}));
  RecommendBatchOptions options;
  options.fail_fast = false;
  auto result = engine->RecommendBatch(batch, options, ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 2u);
  const auto& pool = engine->algorithm_pool();
  EXPECT_EQ((*result)[1],
            pool[static_cast<std::size_t>(engine->default_class())]);
}

// ---------------------------------------------------------------------------
// Repair falls back to linear interpolation when the winner's fit fails.

TEST(RepairFallbackTest, FailingWinnerDegradesToLinearInterp) {
  TrainOptions options = FastOptions();
  // An all-iterative pool: whatever wins has an impute.*.fit failpoint, and
  // linear interpolation (no failpoint) stays available as the fallback.
  options.labeling.algorithms = {
      impute::Algorithm::kCdRec, impute::Algorithm::kSvdImpute,
      impute::Algorithm::kSoftImpute, impute::Algorithm::kTeNmf,
      impute::Algorithm::kDynaMmo};
  ExecContext ctx;
  auto engine = Adarts::Train(SmallCorpus(kCategories), options, ctx);
  ASSERT_TRUE(engine.ok()) << engine.status();
  const auto set = FaultySet(3, 95);

  ScopedFailpoint f1("impute.cdrec.fit");
  ScopedFailpoint f2("impute.svd.fit");
  ScopedFailpoint f3("impute.soft.fit");
  ScopedFailpoint f4("impute.tenmf.fit");
  ScopedFailpoint f5("impute.dynammo.fit");

  auto repaired = engine->Repair(set[0], ctx);
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_FALSE(repaired->HasMissing());

  auto repaired_set = engine->RepairSet(set, {}, ctx);
  ASSERT_TRUE(repaired_set.ok()) << repaired_set.status();
  ASSERT_EQ(repaired_set->size(), set.size());
  for (const auto& s : *repaired_set) EXPECT_FALSE(s.HasMissing());
}

// ---------------------------------------------------------------------------
// Convergence diagnostics from the iterative imputers.

TEST(FitDiagnosticsTest, IterativeImputerReportsConvergence) {
  auto set = testing::MakeCorrelatedSet(6, 120);
  Rng rng(17);
  for (auto& s : set) {
    ASSERT_TRUE(ts::InjectSingleBlock(10, &rng, &s).ok());
  }
  impute::FitDiagnostics diag;
  auto imputer = impute::CreateImputer(impute::Algorithm::kCdRec);
  auto out = imputer->ImputeSetWithDiagnostics(set, &diag);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_GT(diag.iterations, 0);
  if (diag.converged) {
    EXPECT_GE(diag.final_change, 0.0);
  }
  // The diagnostics-free overload matches bit-for-bit.
  auto plain = imputer->ImputeSet(set);
  ASSERT_TRUE(plain.ok());
  for (std::size_t j = 0; j < set.size(); ++j) {
    EXPECT_EQ((*out)[j].values(), (*plain)[j].values());
  }
}

TEST(FitDiagnosticsTest, OneShotImputerReportsDefaults) {
  auto set = testing::MakeCorrelatedSet(4, 80);
  Rng rng(19);
  for (auto& s : set) {
    ASSERT_TRUE(ts::InjectSingleBlock(8, &rng, &s).ok());
  }
  impute::FitDiagnostics diag;
  diag.converged = false;
  diag.iterations = 99;
  auto out = impute::CreateImputer(impute::Algorithm::kMeanImpute)
                 ->ImputeSetWithDiagnostics(set, &diag);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(diag.converged);
  EXPECT_EQ(diag.iterations, 0);
}

}  // namespace
}  // namespace adarts
