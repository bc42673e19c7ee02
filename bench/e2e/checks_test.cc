// Negative tests for the benchmark's correctness checks: each checker must
// accept a good input and reject a deliberately broken one. Also pins the
// quartile rule to Python's statistics.quantiles(values, n=4).

#include "checks.h"
#include "report.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace adarts::e2e {
namespace {

std::vector<ts::TimeSeries> FaultySet() {
  la::Vector a = {1.0, 2.0, 3.0, 4.0};
  la::Vector b = {5.0, 6.0, 7.0, 8.0};
  std::vector<ts::TimeSeries> set = {ts::TimeSeries(a), ts::TimeSeries(b)};
  set[0].SetMissing(1, true);
  set[1].SetMissing(2, true);
  return set;
}

std::vector<ts::TimeSeries> Repaired() {
  return {ts::TimeSeries(la::Vector{1.0, 2.5, 3.0, 4.0}),
          ts::TimeSeries(la::Vector{5.0, 6.0, 6.5, 8.0})};
}

TEST(ChecksTest, SameSequenceRejectsAMismatchAndALengthChange) {
  EXPECT_TRUE(CheckSameSequence("served", {"cdrec", "rosl"}, {"cdrec", "rosl"})
                  .ok());
  EXPECT_FALSE(
      CheckSameSequence("served", {"cdrec", "rosl"}, {"cdrec", "svt"}).ok());
  EXPECT_FALSE(CheckSameSequence("served", {"cdrec", "rosl"}, {"cdrec"}).ok());
}

TEST(ChecksTest, BitIdenticalRejectsTheSmallestDifference) {
  const la::Vector v = {0.1, 0.2, 0.3};
  la::Vector w = v;
  EXPECT_TRUE(CheckBitIdentical("features", v, w).ok());
  w[2] = std::nextafter(w[2], 1.0);
  EXPECT_FALSE(CheckBitIdentical("features", v, w).ok());
  EXPECT_FALSE(CheckBitIdentical("features", v, la::Vector{0.1, 0.2}).ok());
}

TEST(ChecksTest, RepairedSetAcceptsAGoodRepair) {
  EXPECT_TRUE(CheckRepairedSet(FaultySet(), Repaired()).ok());
}

TEST(ChecksTest, RepairedSetRejectsAChangedObservation) {
  std::vector<ts::TimeSeries> out = Repaired();
  out[1].set_value(0, 5.0000001);
  EXPECT_FALSE(CheckRepairedSet(FaultySet(), out).ok());
}

TEST(ChecksTest, RepairedSetRejectsNonFiniteAndStillMissingValues) {
  std::vector<ts::TimeSeries> nan_out = Repaired();
  nan_out[0].set_value(1, std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(CheckRepairedSet(FaultySet(), nan_out).ok());
  std::vector<ts::TimeSeries> missing_out = Repaired();
  missing_out[1].SetMissing(2, true);
  EXPECT_FALSE(CheckRepairedSet(FaultySet(), missing_out).ok());
}

TEST(ChecksTest, RepairedSetRejectsAShapeChange) {
  std::vector<ts::TimeSeries> out = Repaired();
  out.pop_back();
  EXPECT_FALSE(CheckRepairedSet(FaultySet(), out).ok());
  std::vector<ts::TimeSeries> short_out = Repaired();
  short_out[0] = ts::TimeSeries(la::Vector{1.0, 2.5, 3.0});
  EXPECT_FALSE(CheckRepairedSet(FaultySet(), short_out).ok());
}

/// Successful replies from the given engine versions.
std::vector<Reply> Served(const std::vector<std::uint64_t>& versions) {
  std::vector<Reply> replies;
  for (std::uint64_t v : versions) {
    Reply r;
    r.answered = true;
    r.engine_version = v;
    replies.push_back(r);
  }
  return replies;
}

TEST(ChecksTest, SwapVersionsRejectsUnpublishedAndSingleVersions) {
  EXPECT_TRUE(CheckSwapVersions(Served({1, 1, 2, 3}), {1, 2, 3}).ok());
  EXPECT_FALSE(CheckSwapVersions(Served({1, 4, 2}), {1, 2, 3}).ok());
  EXPECT_FALSE(CheckSwapVersions(Served({2, 2, 2}), {1, 2, 3}).ok());
  EXPECT_FALSE(CheckSwapVersions(Served({0, 1, 2}), {1, 2, 3}).ok());
}

TEST(ChecksTest, SwapVersionsSkipsRepliesThatNeverReachedAnEngine) {
  // A shed reply carries engine_version 0; it is a failure, not a torn
  // version.
  std::vector<Reply> replies = Served({1, 2, 2});
  Reply shed;
  shed.answered = true;
  shed.code = StatusCode::kUnavailable;
  replies.push_back(shed);
  EXPECT_TRUE(CheckSwapVersions(replies, {1, 2}).ok());
  // Skipping failures must not let a lone version pass.
  EXPECT_FALSE(CheckSwapVersions({shed, Served({2})[0]}, {1, 2}).ok());
}

TEST(ChecksTest, AllAnsweredRejectsALostReply) {
  EXPECT_TRUE(CheckAllAnswered(3600, 3600).ok());
  EXPECT_FALSE(CheckAllAnswered(3600, 3599).ok());
}

TEST(ChecksTest, NoneFailedRejectsASingleFailure) {
  EXPECT_TRUE(CheckNoneFailed(3600, 0).ok());
  EXPECT_FALSE(CheckNoneFailed(3600, 1).ok());
}

TEST(ChecksTest, DeclaredRejectsMissingExtraAndMisunitedMetrics) {
  const std::map<std::string, BenchmarkSpec::Entry> declared = {
      {"p50_ms", {"ms", 0.25}}, {"setup_s", {"s", 0.25}}};
  RunResult result;
  result.metrics = {{"p50_ms", 1.0, "ms"}, {"setup_s", 2.0, "s"}};
  EXPECT_TRUE(CheckDeclared(result, declared).ok());
  RunResult missing = result;
  missing.metrics.pop_back();
  EXPECT_FALSE(CheckDeclared(missing, declared).ok());
  RunResult extra = result;
  extra.metrics.push_back({"p99_ms", 3.0, "ms"});
  EXPECT_FALSE(CheckDeclared(extra, declared).ok());
  RunResult unit = result;
  unit.metrics[0].unit = "s";
  EXPECT_FALSE(CheckDeclared(unit, declared).ok());
}

TEST(ChecksTest, ResultLineRoundTrips) {
  RunResult result;
  result.attempted = 7;
  result.failed = 1;
  result.metrics = {{"p50_ms", 2.5, "ms"}};
  Result<RunResult> parsed = ParseResultJson(ResultJson(result));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->correct);
  EXPECT_EQ(parsed->attempted, 7u);
  EXPECT_EQ(parsed->failed, 1u);
  ASSERT_EQ(parsed->metrics.size(), 1u);
  EXPECT_EQ(parsed->metrics[0].value, 2.5);
  EXPECT_FALSE(ParseResultJson("{\"metrics\":{}}").ok());
}

TEST(ChecksTest, QuartilesMatchPythonStatistics) {
  const std::array<double, 3> ten = Quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(ten[0], 2.75);
  EXPECT_DOUBLE_EQ(ten[1], 5.5);
  EXPECT_DOUBLE_EQ(ten[2], 8.25);
  const std::array<double, 3> two = Quartiles({5, 1});
  EXPECT_DOUBLE_EQ(two[0], 0.0);
  EXPECT_DOUBLE_EQ(two[1], 3.0);
  EXPECT_DOUBLE_EQ(two[2], 6.0);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 0.99), 4.0);
}

}  // namespace
}  // namespace adarts::e2e
