#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "la/decompositions.h"
#include "la/matrix.h"
#include "la/pca.h"
#include "la/vector_ops.h"

namespace adarts::la {
namespace {

Matrix RandomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.Normal(0.0, 1.0);
  }
  return m;
}

TEST(VectorOpsTest, DotAndNorms) {
  Vector a = {1.0, 2.0, 3.0};
  Vector b = {4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 4.0 - 10.0 + 18.0);
  EXPECT_DOUBLE_EQ(Norm2(a), std::sqrt(14.0));
}

TEST(VectorOpsTest, AxpyAndScale) {
  Vector x = {1.0, 2.0};
  Vector y = {10.0, 20.0};
  Axpy(2.0, x, &y);
  EXPECT_EQ(y, (Vector{12.0, 24.0}));
  Scale(0.5, &y);
  EXPECT_EQ(y, (Vector{6.0, 12.0}));
}

TEST(VectorOpsTest, MeanVarianceStdDev) {
  Vector v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_DOUBLE_EQ(Variance(v), 4.0);
  EXPECT_DOUBLE_EQ(StdDev(v), 2.0);
}

TEST(VectorOpsTest, PearsonCorrelation) {
  Vector a = {1, 2, 3, 4, 5};
  Vector b = {2, 4, 6, 8, 10};
  Vector c = {5, 4, 3, 2, 1};
  EXPECT_NEAR(PearsonCorrelation(a, b), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(a, c), -1.0, 1e-12);
  Vector constant = {3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(a, constant), 0.0);
}

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(MatrixTest, IdentityAndDiagonal) {
  const Matrix i3 = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(i3(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i3(0, 1), 0.0);
  const Matrix d = Matrix::Diagonal({2.0, 3.0});
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(MatrixTest, TransposeRoundTrip) {
  const Matrix m = RandomMatrix(4, 7, 2);
  EXPECT_EQ(m.Transpose().Transpose(), m);
}

TEST(MatrixTest, MultiplyMatchesManualComputation) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  const Matrix c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MultiplyVec) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  const Vector v = a.MultiplyVec({1.0, 0.0, -1.0});
  EXPECT_EQ(v, (Vector{-2.0, -2.0}));
}

TEST(MatrixTest, BlockExtraction) {
  const Matrix m = RandomMatrix(5, 5, 3);
  const Matrix b = m.Block(1, 2, 2, 3);
  EXPECT_EQ(b.rows(), 2u);
  EXPECT_EQ(b.cols(), 3u);
  EXPECT_DOUBLE_EQ(b(0, 0), m(1, 2));
  EXPECT_DOUBLE_EQ(b(1, 2), m(2, 4));
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m = Matrix::FromRows({{3, 0}, {0, 4}});
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
}

// --- SVD property sweep over shapes.

class SvdShapeTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(SvdShapeTest, ReconstructsAndIsOrthogonal) {
  const auto [rows, cols] = GetParam();
  const Matrix a = RandomMatrix(rows, cols, 17 + rows * 31 + cols);
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok()) << svd.status();
  const std::size_t k = std::min(rows, cols);
  ASSERT_EQ(svd->singular_values.size(), k);

  // Singular values nonnegative and descending.
  for (std::size_t i = 0; i + 1 < k; ++i) {
    EXPECT_GE(svd->singular_values[i], svd->singular_values[i + 1]);
  }
  EXPECT_GE(svd->singular_values[k - 1], 0.0);

  // Reconstruction A = U S V^T.
  Matrix recon(rows, cols);
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        recon(i, j) += svd->u(i, r) * svd->singular_values[r] * svd->v(j, r);
      }
    }
  }
  EXPECT_LT(recon.Subtract(a).FrobeniusNorm(), 1e-8 * (1.0 + a.FrobeniusNorm()));

  // Columns of U and V are orthonormal (for nonzero singular values).
  for (std::size_t p = 0; p < k; ++p) {
    if (svd->singular_values[p] < 1e-9) continue;
    for (std::size_t q = p; q < k; ++q) {
      if (svd->singular_values[q] < 1e-9) continue;
      const double uu = Dot(svd->u.Col(p), svd->u.Col(q));
      const double vv = Dot(svd->v.Col(p), svd->v.Col(q));
      const double expect = p == q ? 1.0 : 0.0;
      EXPECT_NEAR(uu, expect, 1e-8);
      EXPECT_NEAR(vv, expect, 1e-8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdShapeTest,
                         ::testing::Values(std::make_pair(4, 4),
                                           std::make_pair(8, 3),
                                           std::make_pair(3, 8),
                                           std::make_pair(12, 12),
                                           std::make_pair(20, 5),
                                           std::make_pair(5, 20)));

TEST(SvdTest, KnownSingularValues) {
  // diag(3, 2) has singular values {3, 2}.
  const Matrix a = Matrix::Diagonal({2.0, 3.0});
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_NEAR(svd->singular_values[0], 3.0, 1e-10);
  EXPECT_NEAR(svd->singular_values[1], 2.0, 1e-10);
}

TEST(SvdTest, RankDeficientMatrix) {
  // Rank-1 outer product has exactly one nonzero singular value.
  Matrix a(4, 4);
  const Vector u = {1, 2, 3, 4};
  const Vector v = {1, -1, 1, -1};
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) a(i, j) = u[i] * v[j];
  }
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_GT(svd->singular_values[0], 1.0);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_NEAR(svd->singular_values[i], 0.0, 1e-8);
  }
}

TEST(EigenTest, SymmetricEigenDecomposition) {
  Matrix a = Matrix::FromRows({{2, 1}, {1, 2}});
  auto eig = ComputeSymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 3.0, 1e-10);
  EXPECT_NEAR(eig->eigenvalues[1], 1.0, 1e-10);
  // A q = lambda q for each pair.
  for (std::size_t k = 0; k < 2; ++k) {
    const Vector q = eig->eigenvectors.Col(k);
    const Vector aq = a.MultiplyVec(q);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_NEAR(aq[i], eig->eigenvalues[k] * q[i], 1e-9);
    }
  }
}

TEST(EigenTest, RandomSymmetricReconstruction) {
  Matrix base = RandomMatrix(6, 6, 23);
  const Matrix a = base.Add(base.Transpose()).Scale(0.5);
  auto eig = ComputeSymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  // A = Q diag(w) Q^T.
  const Matrix q = eig->eigenvectors;
  const Matrix recon =
      q.Multiply(Matrix::Diagonal(eig->eigenvalues)).Multiply(q.Transpose());
  EXPECT_LT(recon.Subtract(a).FrobeniusNorm(), 1e-8 * (1.0 + a.FrobeniusNorm()));
}

TEST(SolveTest, LinearSystem) {
  Matrix a = Matrix::FromRows({{2, 1}, {1, 3}});
  auto x = SolveLinear(a, {5.0, 10.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-10);
  EXPECT_NEAR((*x)[1], 3.0, 1e-10);
}

TEST(SolveTest, SingularMatrixFails) {
  Matrix a = Matrix::FromRows({{1, 2}, {2, 4}});
  EXPECT_FALSE(SolveLinear(a, {1.0, 2.0}).ok());
}

TEST(SolveTest, CholeskyOnSpdSystem) {
  Matrix a = Matrix::FromRows({{4, 1}, {1, 3}});
  auto x = SolveCholesky(a, {1.0, 2.0});
  ASSERT_TRUE(x.ok());
  // Verify A x = b.
  const Vector ax = a.MultiplyVec(*x);
  EXPECT_NEAR(ax[0], 1.0, 1e-10);
  EXPECT_NEAR(ax[1], 2.0, 1e-10);
}

TEST(SolveTest, CholeskyRejectsIndefinite) {
  Matrix a = Matrix::FromRows({{0, 1}, {1, 0}});
  EXPECT_FALSE(SolveCholesky(a, {1.0, 1.0}).ok());
}

TEST(SolveTest, LeastSquaresRecoversCoefficients) {
  // y = 2 x0 - x1 with overdetermined noise-free samples.
  Rng rng(31);
  Matrix a(20, 2);
  Vector b(20);
  for (std::size_t i = 0; i < 20; ++i) {
    a(i, 0) = rng.Normal(0, 1);
    a(i, 1) = rng.Normal(0, 1);
    b[i] = 2.0 * a(i, 0) - a(i, 1);
  }
  auto x = SolveLeastSquares(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 2.0, 1e-6);
  EXPECT_NEAR((*x)[1], -1.0, 1e-6);
}

TEST(SolveTest, InverseTimesMatrixIsIdentity) {
  const Matrix a = RandomMatrix(5, 5, 37);
  auto inv = Inverse(a);
  ASSERT_TRUE(inv.ok());
  const Matrix prod = a.Multiply(*inv);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(PcaTest, RecoversDominantDirection) {
  // Data stretched along (1, 1)/sqrt(2): the top axis should align with it.
  Rng rng(41);
  Matrix data(200, 2);
  for (std::size_t i = 0; i < 200; ++i) {
    const double main = rng.Normal(0.0, 3.0);
    const double cross = rng.Normal(0.0, 0.3);
    data(i, 0) = main + cross;
    data(i, 1) = main - cross;
  }
  Pca pca;
  ASSERT_TRUE(pca.Fit(data, 2).ok());
  const double c0 = std::fabs(pca.components()(0, 0));
  const double c1 = std::fabs(pca.components()(1, 0));
  EXPECT_NEAR(c0, 1.0 / std::sqrt(2.0), 0.05);
  EXPECT_NEAR(c1, 1.0 / std::sqrt(2.0), 0.05);
  EXPECT_GT(pca.explained_variance_ratio()[0], 0.95);
}

TEST(PcaTest, TransformCentersData) {
  Matrix data = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Pca pca;
  ASSERT_TRUE(pca.Fit(data, 1).ok());
  auto projected = pca.Transform(data);
  ASSERT_TRUE(projected.ok());
  double sum = 0.0;
  for (std::size_t i = 0; i < 3; ++i) sum += (*projected)(i, 0);
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

TEST(PcaTest, TransformBeforeFitFails) {
  Pca pca;
  EXPECT_FALSE(pca.Transform(Matrix(2, 2)).ok());
}

}  // namespace
}  // namespace adarts::la
