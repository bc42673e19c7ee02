// Cross-module property tests: invariants that must hold over whole
// parameter grids rather than single examples.

#include <algorithm>
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "automl/model_race.h"
#include "automl/pipeline.h"
#include "automl/recommender.h"
#include "automl/synthesizer.h"
#include "cluster/clustering.h"
#include "common/exec_context.h"
#include "common/rng.h"
#include "impute/cdrec.h"
#include "impute/imputer.h"
#include "la/decompositions.h"
#include "ml/metrics.h"
#include "ml/scaler.h"
#include "tda/delay_embedding.h"
#include "tda/persistence.h"
#include "tests/test_util.h"
#include "ts/fft.h"
#include "ts/missing.h"

namespace adarts {
namespace {

using ::adarts::testing::MakeBlobs;
using ::adarts::testing::MakeCorrelatedSet;

// ---------------------------------------------------------------------------
// Imputer x missing-pattern grid: every algorithm must fully repair every
// pattern, preserve observed values, and return finite numbers.

using ImputePatternParam = std::tuple<impute::Algorithm, ts::MissingPattern>;

class ImputerPatternGridTest
    : public ::testing::TestWithParam<ImputePatternParam> {};

TEST_P(ImputerPatternGridTest, RepairsPatternCompletely) {
  const auto [algorithm, pattern] = GetParam();
  const auto imputer = impute::CreateImputer(algorithm);
  std::vector<ts::TimeSeries> set = MakeCorrelatedSet(4, 128);
  Rng rng(31);
  for (auto& s : set) {
    ASSERT_TRUE(ts::InjectPattern(pattern, 0.12, &rng, &s).ok());
  }
  auto repaired = imputer->ImputeSet(set);
  ASSERT_TRUE(repaired.ok()) << imputer->name();
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_FALSE((*repaired)[i].HasMissing());
    for (std::size_t t = 0; t < set[i].length(); ++t) {
      EXPECT_TRUE(std::isfinite((*repaired)[i].value(t)));
      if (!set[i].IsMissing(t)) {
        EXPECT_DOUBLE_EQ((*repaired)[i].value(t), set[i].value(t));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ImputerPatternGridTest,
    ::testing::Combine(
        ::testing::ValuesIn(impute::AllAlgorithms()),
        ::testing::Values(ts::MissingPattern::kSingleBlock,
                          ts::MissingPattern::kMultiBlock,
                          ts::MissingPattern::kTipOfSeries)),
    [](const ::testing::TestParamInfo<ImputePatternParam>& info) {
      return std::string(impute::AlgorithmToString(std::get<0>(info.param))) +
             "_" + ts::MissingPatternToString(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Pipeline grid: every classifier x scaler combination fits and emits valid
// probability distributions.

using PipelineParam = std::tuple<ml::ClassifierKind, ml::ScalerKind>;

class PipelineGridTest : public ::testing::TestWithParam<PipelineParam> {};

TEST_P(PipelineGridTest, FitsAndPredictsValidDistributions) {
  const auto [classifier, scaler] = GetParam();
  automl::Pipeline spec;
  spec.classifier = classifier;
  spec.params = ml::ResolveParams(classifier, {});
  spec.scaler = scaler;
  spec.scaler_param = 0.5;

  const ml::Dataset train = MakeBlobs(3, 15, 5, 71);
  auto fitted = automl::FitPipeline(spec, train);
  ASSERT_TRUE(fitted.ok()) << spec.ToString() << ": " << fitted.status();
  for (std::size_t i = 0; i < 5; ++i) {
    const la::Vector p = fitted->PredictProba(train.features[i]);
    ASSERT_EQ(p.size(), 3u);
    double sum = 0.0;
    for (double v : p) {
      EXPECT_GE(v, -1e-12) << spec.ToString();
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << spec.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PipelineGridTest,
    ::testing::Combine(::testing::ValuesIn(ml::AllClassifierKinds()),
                       ::testing::ValuesIn(ml::AllScalerKinds())),
    [](const ::testing::TestParamInfo<PipelineParam>& info) {
      return std::string(ml::ClassifierKindToString(std::get<0>(info.param))) +
             "_" + std::string(ml::ScalerKindToString(std::get<1>(info.param)));
    });

// ---------------------------------------------------------------------------
// Scaler properties.

class ScalerPropertyTest : public ::testing::TestWithParam<ml::ScalerKind> {};

TEST_P(ScalerPropertyTest, TransformIsDeterministic) {
  const ml::Dataset d = MakeBlobs(2, 25, 4, 73);
  auto scaler = ml::CreateScaler(GetParam());
  ASSERT_TRUE(scaler->Fit(d.features).ok());
  EXPECT_EQ(scaler->Transform(d.features[0]), scaler->Transform(d.features[0]));
}

TEST_P(ScalerPropertyTest, RefitOnSameDataIsIdentical) {
  const ml::Dataset d = MakeBlobs(2, 25, 4, 74);
  auto a = ml::CreateScaler(GetParam());
  auto b = ml::CreateScaler(GetParam());
  ASSERT_TRUE(a->Fit(d.features).ok());
  ASSERT_TRUE(b->Fit(d.features).ok());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(a->Transform(d.features[i]), b->Transform(d.features[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScalers, ScalerPropertyTest, ::testing::ValuesIn(ml::AllScalerKinds()),
    [](const ::testing::TestParamInfo<ml::ScalerKind>& info) {
      return std::string(ml::ScalerKindToString(info.param));
    });

// ---------------------------------------------------------------------------
// Metric properties.

TEST(MetricPropertyTest, RecallAtKMonotoneInK) {
  Rng rng(75);
  std::vector<int> y;
  std::vector<la::Vector> probas;
  for (int i = 0; i < 200; ++i) {
    y.push_back(rng.UniformInt(0, 4));
    la::Vector p(5);
    double sum = 0.0;
    for (double& v : p) {
      v = rng.Uniform();
      sum += v;
    }
    for (double& v : p) v /= sum;
    probas.push_back(std::move(p));
  }
  double prev = 0.0;
  for (std::size_t k = 1; k <= 5; ++k) {
    const double r = ml::RecallAtK(y, probas, k).value();
    EXPECT_GE(r, prev);
    prev = r;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);  // Recall@num_classes is always 1
}

TEST(MetricPropertyTest, MrrBoundedByTopOneAndOne) {
  Rng rng(76);
  std::vector<int> y;
  std::vector<la::Vector> probas;
  for (int i = 0; i < 200; ++i) {
    y.push_back(rng.UniformInt(0, 3));
    la::Vector p(4);
    double sum = 0.0;
    for (double& v : p) {
      v = rng.Uniform();
      sum += v;
    }
    for (double& v : p) v /= sum;
    probas.push_back(std::move(p));
  }
  const double mrr = ml::MeanReciprocalRank(y, probas).value();
  const double top1 = ml::RecallAtK(y, probas, 1).value();
  EXPECT_GE(mrr, top1);        // rank-1 hits contribute 1 each
  EXPECT_GE(mrr, 1.0 / 4.0);   // worst case: always last
  EXPECT_LE(mrr, 1.0);
}

TEST(MetricPropertyTest, WelchTTestIsSymmetric) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    la::Vector a(10), b(12);
    for (double& x : a) x = rng.Normal(0, 1);
    for (double& x : b) x = rng.Normal(0.3, 1.5);
    EXPECT_NEAR(ml::WelchTTestPValue(a, b), ml::WelchTTestPValue(b, a), 1e-12);
  }
}

TEST(MetricPropertyTest, WelchPValueInUnitInterval) {
  Rng rng(78);
  for (int trial = 0; trial < 50; ++trial) {
    la::Vector a(5), b(7);
    for (double& x : a) x = rng.Normal(0, 1);
    for (double& x : b) x = rng.Normal(rng.Uniform(-3, 3), rng.Uniform(0.1, 2));
    const double p = ml::WelchTTestPValue(a, b);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

// ---------------------------------------------------------------------------
// Synthesizer properties over long mutation chains.

TEST(SynthesizerPropertyTest, LongMutationChainsStayValid) {
  automl::Synthesizer synth(79);
  for (int chain = 0; chain < 5; ++chain) {
    automl::Pipeline p = synth.RandomPipeline();
    for (int step = 0; step < 200; ++step) {
      const automl::Pipeline child = synth.Mutate(p);
      // Child always differs from parent in exactly its mutated aspect.
      EXPECT_NE(child.ToString() + std::to_string(child.scaler_param),
                p.ToString() + std::to_string(p.scaler_param));
      // All parameters remain within spec bounds.
      for (const auto& spec : ml::ParamSpecsFor(child.classifier)) {
        const double v = child.params.at(spec.name);
        EXPECT_GE(v, spec.min_value);
        EXPECT_LE(v, spec.max_value);
        if (spec.integer) {
          EXPECT_DOUBLE_EQ(v, std::round(v));
        }
      }
      EXPECT_GE(child.scaler_param, 0.1);
      EXPECT_LE(child.scaler_param, 1.0);
      p = child;
    }
  }
}

// ---------------------------------------------------------------------------
// TDA properties.

TEST(TdaPropertyTest, PersistencePairsAreOrdered) {
  Rng rng(80);
  for (int trial = 0; trial < 10; ++trial) {
    tda::PointCloud cloud;
    const std::size_t n = 8 + trial * 2;
    for (std::size_t i = 0; i < n; ++i) {
      cloud.push_back({rng.Normal(0, 1), rng.Normal(0, 1)});
    }
    auto diagram = tda::ComputeRipsPersistence(cloud);
    ASSERT_TRUE(diagram.ok());
    for (const auto& pair : diagram->pairs) {
      EXPECT_LE(pair.birth, pair.death);
      EXPECT_LE(pair.death, diagram->max_filtration + 1e-12);
      EXPECT_GE(pair.birth, 0.0);
    }
  }
}

TEST(TdaPropertyTest, H0CountEqualsPointCount) {
  // Every point is born at filtration 0: the number of H0 pairs (finite +
  // essential) equals the number of points.
  Rng rng(81);
  for (std::size_t n : {4u, 9u, 16u}) {
    tda::PointCloud cloud;
    for (std::size_t i = 0; i < n; ++i) {
      cloud.push_back({rng.Normal(0, 1), rng.Normal(0, 1), rng.Normal(0, 1)});
    }
    auto diagram = tda::ComputeRipsPersistence(cloud);
    ASSERT_TRUE(diagram.ok());
    EXPECT_EQ(diagram->Dimension(0).size(), n);
  }
}

// ---------------------------------------------------------------------------
// FFT / spectral properties.

TEST(FftPropertyTest, ParsevalHolds) {
  Rng rng(82);
  std::vector<std::complex<double>> x(128);
  double time_energy = 0.0;
  for (auto& v : x) {
    v = {rng.Normal(0, 1), rng.Normal(0, 1)};
    time_energy += std::norm(v);
  }
  auto freq = x;
  ts::Fft(&freq);
  double freq_energy = 0.0;
  for (const auto& v : freq) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / 128.0, time_energy, 1e-8 * time_energy);
}

TEST(FftPropertyTest, SpectrumInvariantToMeanShift) {
  const la::Vector base = testing::MakeSine(128, 16.0).values();
  la::Vector shifted = base;
  for (double& v : shifted) v += 100.0;
  const la::Vector s1 = ts::PowerSpectrum(base);
  const la::Vector s2 = ts::PowerSpectrum(shifted);
  for (std::size_t k = 1; k < s1.size(); ++k) {
    EXPECT_NEAR(s1[k], s2[k], 1e-6 * (1.0 + s1[k]));
  }
}

// ---------------------------------------------------------------------------
// Centroid decomposition: truncation error decreases monotonically in rank.

TEST(CdPropertyTest, TruncationErrorMonotoneInRank) {
  Rng rng(83);
  la::Matrix x(24, 6);
  for (std::size_t i = 0; i < 24; ++i) {
    for (std::size_t j = 0; j < 6; ++j) x(i, j) = rng.Normal(0, 1);
  }
  double prev_err = 1e300;
  for (std::size_t rank = 1; rank <= 6; ++rank) {
    auto cd = impute::ComputeCentroidDecomposition(x, rank);
    ASSERT_TRUE(cd.ok());
    const double err =
        cd->loadings.Multiply(cd->relevance.Transpose()).Subtract(x).FrobeniusNorm();
    EXPECT_LE(err, prev_err + 1e-9);
    prev_err = err;
  }
  EXPECT_NEAR(prev_err, 0.0, 1e-8);  // full rank reconstructs exactly
}

// ---------------------------------------------------------------------------
// SVD: rank-k truncation is never worse than rank-(k-1) (Eckart-Young
// consistency of our Jacobi SVD).

TEST(SvdPropertyTest, TruncationErrorMonotoneInRank) {
  Rng rng(84);
  la::Matrix x(20, 8);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 8; ++j) x(i, j) = rng.Normal(0, 1);
  }
  auto svd = la::ComputeSvd(x);
  ASSERT_TRUE(svd.ok());
  double prev_err = 1e300;
  for (std::size_t rank = 1; rank <= 8; ++rank) {
    la::Matrix recon(20, 8);
    for (std::size_t r = 0; r < rank; ++r) {
      for (std::size_t i = 0; i < 20; ++i) {
        for (std::size_t j = 0; j < 8; ++j) {
          recon(i, j) += svd->u(i, r) * svd->singular_values[r] * svd->v(j, r);
        }
      }
    }
    const double err = recon.Subtract(x).FrobeniusNorm();
    EXPECT_LE(err, prev_err + 1e-9);
    prev_err = err;
  }
}

// ---------------------------------------------------------------------------
// Parallel-path properties: the pooled correlation matrix keeps its algebraic
// invariants on arbitrary random corpora, and parallel committee refits vote
// exactly like serial ones.

TEST(ParallelPropertyTest, CorrelationMatrixSymmetricUnitDiagonalOnRandomCorpora) {
  ExecContext serial_ctx(1);
  ExecContext parallel_ctx(testing::TestThreadCount());
  for (std::uint64_t seed : {101u, 202u, 303u, 404u, 505u}) {
    Rng rng(seed);
    std::vector<ts::TimeSeries> corpus;
    const std::size_t n = 3 + static_cast<std::size_t>(rng.UniformInt(0, 9));
    const std::size_t length = 64 + static_cast<std::size_t>(rng.UniformInt(0, 64));
    for (std::size_t i = 0; i < n; ++i) {
      corpus.push_back(testing::MakeSine(
          length, rng.Uniform(4.0, 40.0), rng.Uniform(0.0, 0.5),
          seed * 100 + i, rng.Uniform(0.5, 2.0), rng.Uniform(0.0, 3.0)));
    }
    const la::Matrix serial =
        cluster::PairwiseCorrelationMatrix(corpus, serial_ctx);
    const la::Matrix parallel =
        cluster::PairwiseCorrelationMatrix(corpus, parallel_ctx);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(parallel(i, i), 1.0) << "seed " << seed;
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(parallel(i, j), parallel(j, i)) << "seed " << seed;
        EXPECT_LE(std::fabs(parallel(i, j)), 1.0 + 1e-12) << "seed " << seed;
        EXPECT_EQ(parallel(i, j), serial(i, j)) << "seed " << seed;
      }
    }
  }
}

TEST(ParallelPropertyTest, ParallelFromRaceCommitteesVoteIdenticallyToSerial) {
  const ml::Dataset train = MakeBlobs(3, 25, 5, 91);
  automl::ModelRaceOptions race;
  race.num_seed_pipelines = 12;
  race.num_partial_sets = 2;
  race.num_folds = 2;
  race.seed = 93;
  ExecContext ctx;
  auto report = automl::RunModelRace(train, race, ctx);
  ASSERT_TRUE(report.ok()) << report.status();

  ExecContext serial_ctx(1);
  auto serial = automl::VotingRecommender::FromRace(*report, train, serial_ctx);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ExecContext parallel_ctx(testing::TestThreadCount());
  auto parallel =
      automl::VotingRecommender::FromRace(*report, train, parallel_ctx);
  ASSERT_TRUE(parallel.ok()) << parallel.status();

  ASSERT_EQ(parallel->committee_size(), serial->committee_size());
  for (std::size_t i = 0; i < serial->committee().size(); ++i) {
    EXPECT_EQ(parallel->committee()[i].spec.ToString(),
              serial->committee()[i].spec.ToString());
  }
  for (const la::Vector& features : train.features) {
    const la::Vector pa = parallel->PredictProba(features);
    const la::Vector pb = serial->PredictProba(features);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t c = 0; c < pa.size(); ++c) {
      EXPECT_EQ(pa[c], pb[c]);
    }
  }
}

}  // namespace
}  // namespace adarts
