#include <cmath>
#include <cstdint>
#include <numbers>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tda/delay_embedding.h"
#include "tda/diagram_stats.h"
#include "tda/persistence.h"
#include "tests/test_util.h"

namespace adarts::tda {
namespace {

PointCloud CirclePoints(std::size_t n, double radius = 1.0) {
  PointCloud cloud;
  for (std::size_t i = 0; i < n; ++i) {
    const double angle =
        2.0 * std::numbers::pi * static_cast<double>(i) / static_cast<double>(n);
    cloud.push_back({radius * std::cos(angle), radius * std::sin(angle)});
  }
  return cloud;
}

TEST(DelayEmbeddingTest, ProducesExpectedVectors) {
  const la::Vector signal = {0, 1, 2, 3, 4, 5};
  auto cloud = DelayEmbed(signal, 3, 1);
  ASSERT_TRUE(cloud.ok());
  ASSERT_EQ(cloud->size(), 4u);
  EXPECT_EQ((*cloud)[0], (la::Vector{0, 1, 2}));
  EXPECT_EQ((*cloud)[3], (la::Vector{3, 4, 5}));
}

TEST(DelayEmbeddingTest, RespectsTau) {
  const la::Vector signal = {0, 1, 2, 3, 4, 5, 6};
  auto cloud = DelayEmbed(signal, 2, 3);
  ASSERT_TRUE(cloud.ok());
  ASSERT_EQ(cloud->size(), 4u);
  EXPECT_EQ((*cloud)[0], (la::Vector{0, 3}));
}

TEST(DelayEmbeddingTest, RejectsTooShortSeries) {
  EXPECT_FALSE(DelayEmbed({1.0, 2.0}, 3, 1).ok());
  EXPECT_FALSE(DelayEmbed({1.0, 2.0, 3.0}, 2, 0).ok());
}

TEST(DelayEmbeddingTest, PeriodicSignalEmbedsToLoop) {
  // A sine embeds to a closed curve: first and period-th points coincide.
  const la::Vector sine = adarts::testing::MakeSine(64, 16.0).values();
  auto cloud = DelayEmbed(sine, 2, 4);
  ASSERT_TRUE(cloud.ok());
  EXPECT_NEAR(EuclideanDistance((*cloud)[0], (*cloud)[16]), 0.0, 1e-9);
}

TEST(MaxMinLandmarksTest, ReducesToRequestedCount) {
  const PointCloud circle = CirclePoints(100);
  const PointCloud landmarks = MaxMinLandmarks(circle, 10);
  EXPECT_EQ(landmarks.size(), 10u);
}

TEST(MaxMinLandmarksTest, SpreadsPoints) {
  // Landmarks on a circle should be near-uniformly spread: the min pairwise
  // distance should be a decent fraction of the uniform spacing.
  const PointCloud circle = CirclePoints(200);
  const PointCloud landmarks = MaxMinLandmarks(circle, 8);
  double min_dist = 1e300;
  for (std::size_t i = 0; i < landmarks.size(); ++i) {
    for (std::size_t j = i + 1; j < landmarks.size(); ++j) {
      min_dist = std::min(min_dist, EuclideanDistance(landmarks[i], landmarks[j]));
    }
  }
  const double uniform_spacing = 2.0 * std::sin(std::numbers::pi / 8.0);
  EXPECT_GT(min_dist, 0.5 * uniform_spacing);
}

TEST(MaxMinLandmarksTest, NoOpWhenSmallEnough) {
  const PointCloud pts = CirclePoints(5);
  EXPECT_EQ(MaxMinLandmarks(pts, 10).size(), 5u);
}

TEST(PersistenceTest, H0CountsComponents) {
  // Two well-separated pairs of points: 4 points, H0 pairs = 3 finite
  // deaths + 1 essential.
  PointCloud cloud = {{0, 0}, {0.1, 0}, {10, 0}, {10.1, 0}};
  auto diagram = ComputeRipsPersistence(cloud);
  ASSERT_TRUE(diagram.ok());
  const auto h0 = diagram->Dimension(0);
  ASSERT_EQ(h0.size(), 4u);
  // Two short-lived merges (within pairs) and one long-lived (across).
  int long_lived = 0;
  for (const auto& p : h0) {
    if (p.death > 5.0) ++long_lived;
  }
  EXPECT_EQ(long_lived, 2);  // the cross-pair merge and the essential class
}

TEST(PersistenceTest, CircleHasOneProminentLoop) {
  const PointCloud circle = CirclePoints(24);
  auto diagram = ComputeRipsPersistence(circle);
  ASSERT_TRUE(diagram.ok());
  const auto h1 = diagram->Dimension(1);
  ASSERT_FALSE(h1.empty());
  // Exactly one loop should dominate: its lifetime far exceeds the rest.
  double best = 0.0, second = 0.0;
  for (const auto& p : h1) {
    const double l = p.Lifetime();
    if (l > best) {
      second = best;
      best = l;
    } else if (l > second) {
      second = l;
    }
  }
  EXPECT_GT(best, 0.5);
  EXPECT_GT(best, 4.0 * second + 1e-12);
}

TEST(PersistenceTest, LineSegmentHasNoLoop) {
  PointCloud line;
  for (int i = 0; i < 20; ++i) {
    line.push_back({0.1 * static_cast<double>(i), 0.0});
  }
  auto diagram = ComputeRipsPersistence(line);
  ASSERT_TRUE(diagram.ok());
  for (const auto& p : diagram->Dimension(1)) {
    EXPECT_LT(p.Lifetime(), 0.3);  // only numerical noise allowed
  }
}

TEST(PersistenceTest, RejectsDegenerateInput) {
  EXPECT_FALSE(ComputeRipsPersistence({{1.0, 2.0}}).ok());
}

TEST(PersistenceTest, GoldenDiagramsOfSeededClouds) {
  // FNV-1a over the (dimension, birth, death) list of each diagram of five
  // seeded clouds of 24 points in R^3, recorded from the reference reducer.
  const std::uint64_t kGolden[] = {
      0xb64e7b053b6abeffULL, 0x55d4b1b39b9f71b9ULL, 0xea7ccc01ae84af27ULL,
      0x07465376b6f26c88ULL, 0x4b87a1cbcb0cf62dULL};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    PointCloud cloud(24);
    for (la::Vector& p : cloud) {
      p = {rng.Normal(0, 1), rng.Normal(0, 1), rng.Normal(0, 1)};
    }
    auto diagram = ComputeRipsPersistence(cloud);
    ASSERT_TRUE(diagram.ok()) << diagram.status();
    std::vector<double> flat;
    for (const PersistencePair& p : diagram->pairs) {
      flat.insert(flat.end(),
                  {static_cast<double>(p.dimension), p.birth, p.death});
    }
    EXPECT_EQ(adarts::testing::BytesFnv(flat), kGolden[seed - 1])
        << "seed " << seed;
  }
}

TEST(DiagramStatsTest, ComputedFromKnownPairs) {
  PersistenceDiagram diagram;
  diagram.pairs = {{1, 0.0, 2.0}, {1, 1.0, 2.0}, {0, 0.0, 1.0}};
  diagram.max_filtration = 2.0;
  const DiagramStats h1 = ComputeDiagramStats(diagram, 1);
  EXPECT_DOUBLE_EQ(h1.count, 2.0);
  EXPECT_DOUBLE_EQ(h1.total_persistence, 3.0);
  EXPECT_DOUBLE_EQ(h1.max_persistence, 2.0);
  EXPECT_DOUBLE_EQ(h1.mean_persistence, 1.5);
  EXPECT_DOUBLE_EQ(h1.mean_birth, 0.5);
  EXPECT_DOUBLE_EQ(h1.mean_death, 2.0);
  EXPECT_GT(h1.persistence_entropy, 0.0);
  EXPECT_LE(h1.persistence_entropy, 1.0);
}

TEST(DiagramStatsTest, EmptyDimensionGivesZeros) {
  PersistenceDiagram diagram;
  diagram.pairs = {{0, 0.0, 1.0}};
  const DiagramStats h1 = ComputeDiagramStats(diagram, 1);
  EXPECT_DOUBLE_EQ(h1.count, 0.0);
  EXPECT_DOUBLE_EQ(h1.total_persistence, 0.0);
}

TEST(DiagramStatsTest, VectorHasFixedLayout) {
  const DiagramStats stats{};
  EXPECT_EQ(DiagramStatsToVector(stats).size(), 8u);
}

TEST(PersistenceIntegrationTest, PeriodicSeriesShowsLoopNoiseDoesNot) {
  // The end-to-end topological claim of Section V-B: a periodic series'
  // delay embedding contains a prominent loop; white noise does not.
  const la::Vector sine = adarts::testing::MakeSine(96, 24.0).values();
  auto sine_cloud = DelayEmbed(sine, 2, 6);
  ASSERT_TRUE(sine_cloud.ok());
  auto sine_diagram =
      ComputeRipsPersistence(MaxMinLandmarks(*sine_cloud, 20));
  ASSERT_TRUE(sine_diagram.ok());
  const DiagramStats sine_h1 = ComputeDiagramStats(*sine_diagram, 1);

  Rng rng(99);
  la::Vector noise(96);
  for (double& x : noise) x = rng.Normal(0, 1);
  auto noise_cloud = DelayEmbed(noise, 2, 6);
  ASSERT_TRUE(noise_cloud.ok());
  auto noise_diagram =
      ComputeRipsPersistence(MaxMinLandmarks(*noise_cloud, 20));
  ASSERT_TRUE(noise_diagram.ok());
  const DiagramStats noise_h1 = ComputeDiagramStats(*noise_diagram, 1);

  EXPECT_GT(sine_h1.max_persistence, 2.0 * noise_h1.max_persistence);
}

}  // namespace
}  // namespace adarts::tda
