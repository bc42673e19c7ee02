#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"

namespace adarts {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad input");
}

TEST(StatusTest, AllFactoryMethodsProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(),
      Status::OutOfRange("").code(),
      Status::NotFound("").code(),
      Status::FailedPrecondition("").code(),
      Status::NumericalError("").code(),
      Status::Internal("").code(),
      Status::Cancelled("").code(),
      Status::DeadlineExceeded("").code(),
      Status::Unavailable("").code()};
  EXPECT_EQ(codes.size(), 9u);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r = Status::OK();  // programming error: flagged, not UB
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

Result<int> Doubler(Result<int> in) {
  ADARTS_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  EXPECT_EQ(Doubler(21).value(), 42);
  EXPECT_EQ(Doubler(Status::OutOfRange("nope")).status().code(),
            StatusCode::kOutOfRange);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(10);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, NormalMomentsRoughlyCorrect) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(12);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(14);
  const auto sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t i : sample) EXPECT_LT(i, 100u);
}

TEST(RngTest, SampleClampsOversizedRequest) {
  Rng rng(15);
  EXPECT_EQ(rng.SampleWithoutReplacement(5, 50).size(), 5u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(16);
  Rng child = a.Fork();
  EXPECT_NE(a.NextU64(), child.NextU64());
}

TEST(RngTest, ForkedStreamIsFixedAtForkTime) {
  // A child's stream is fully determined the moment it forks: draining the
  // parent afterwards must not change what the child produces. This is the
  // property the parallel training paths rely on when they fork per-task
  // generators up front in index order.
  Rng parent1(23);
  Rng child1 = parent1.Fork();
  for (int i = 0; i < 100; ++i) parent1.NextU64();

  Rng parent2(23);
  Rng child2 = parent2.Fork();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(child1.NextU64(), child2.NextU64());
  }
}

TEST(RngTest, SiblingForksProduceDistinctStreams) {
  Rng parent(31);
  std::vector<Rng> children;
  for (int i = 0; i < 16; ++i) children.push_back(parent.Fork());
  // First outputs of all children and of the drained parent are pairwise
  // distinct — 17 collisions-free draws out of 2^64 values.
  std::set<std::uint64_t> firsts;
  for (Rng& c : children) firsts.insert(c.NextU64());
  firsts.insert(parent.NextU64());
  EXPECT_EQ(firsts.size(), 17u);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch w;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GE(w.ElapsedSeconds(), 0.0);
  EXPECT_GE(w.ElapsedMillis(), w.ElapsedSeconds() * 1000.0 * 0.5);
}

TEST(JsonTest, EscapeRoundTripsEveryAsciiByte) {
  for (int byte = 0; byte < 0x80; ++byte) {
    const std::string text{'a', static_cast<char>(byte), 'z'};
    const std::string escaped = json::Escape(text);
    for (const char c : escaped) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20)
          << "raw control byte in the escape of byte " << byte;
    }
    auto parsed = json::ParseJson("\"" + escaped + "\"");
    ASSERT_TRUE(parsed.ok()) << "byte " << byte << ": " << parsed.status();
    ASSERT_TRUE(parsed->is_string());
    EXPECT_EQ(parsed->str, text) << "byte " << byte;
  }
}

}  // namespace
}  // namespace adarts
