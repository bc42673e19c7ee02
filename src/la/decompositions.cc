#include "la/decompositions.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/failpoint.h"

namespace adarts::la {

namespace {

constexpr double kJacobiEps = 1e-12;

}  // namespace

Result<SvdResult> ComputeSvd(const Matrix& a, int max_sweeps) {
  ADARTS_FAILPOINT("la.svd");
  if (a.empty()) return Status::InvalidArgument("SVD of empty matrix");
  // One-sided Jacobi works on a tall matrix; transpose wide inputs and swap
  // U/V at the end.
  const bool transposed = a.rows() < a.cols();
  Matrix work = transposed ? a.Transpose() : a;
  const std::size_t m = work.rows();
  const std::size_t n = work.cols();

  Matrix v = Matrix::Identity(n);

  // Columns whose squared norm falls below this absolute floor are
  // numerically zero (rounding dust after a rotation annihilated them);
  // pairing them again would chase the dust forever on rank-deficient
  // inputs, so they are excluded from further rotations.
  const double fro = work.FrobeniusNorm();
  const double tiny_column = (1e-14 * fro) * (1e-14 * fro);

  bool converged = false;
  for (int sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
    converged = true;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        // Compute the 2x2 Gram block for columns p, q.
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          const double wp = work(i, p);
          const double wq = work(i, q);
          alpha += wp * wp;
          beta += wq * wq;
          gamma += wp * wq;
        }
        if (alpha <= tiny_column || beta <= tiny_column ||
            std::fabs(gamma) <= kJacobiEps * std::sqrt(alpha * beta) ||
            gamma == 0.0) {
          continue;
        }
        converged = false;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::size_t i = 0; i < m; ++i) {
          const double wp = work(i, p);
          const double wq = work(i, q);
          work(i, p) = c * wp - s * wq;
          work(i, q) = s * wp + c * wq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vp = v(i, p);
          const double vq = v(i, q);
          v(i, p) = c * vp - s * vq;
          v(i, q) = s * vp + c * vq;
        }
      }
    }
  }
  if (!converged) {
    return Status::NumericalError("Jacobi SVD did not converge");
  }

  // Singular values are the column norms of the rotated matrix.
  Vector sigma(n, 0.0);
  Matrix u(m, n);
  for (std::size_t j = 0; j < n; ++j) {
    double norm = 0.0;
    for (std::size_t i = 0; i < m; ++i) norm += work(i, j) * work(i, j);
    norm = std::sqrt(norm);
    sigma[j] = norm;
    if (norm > 0.0) {
      for (std::size_t i = 0; i < m; ++i) u(i, j) = work(i, j) / norm;
    } else {
      // Zero singular value: leave a zero column (valid for thin SVD uses
      // in this library, which always multiply by sigma).
      for (std::size_t i = 0; i < m; ++i) u(i, j) = 0.0;
    }
  }

  // Sort singular triplets descending.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return sigma[x] > sigma[y]; });
  SvdResult out;
  out.singular_values.resize(n);
  out.u = Matrix(m, n);
  out.v = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t src = order[j];
    out.singular_values[j] = sigma[src];
    for (std::size_t i = 0; i < m; ++i) out.u(i, j) = u(i, src);
    for (std::size_t i = 0; i < n; ++i) out.v(i, j) = v(i, src);
  }

  if (transposed) std::swap(out.u, out.v);
  return out;
}

Result<EigenResult> ComputeSymmetricEigen(const Matrix& a, int max_sweeps) {
  if (a.empty() || a.rows() != a.cols()) {
    return Status::InvalidArgument("symmetric eigen requires square matrix");
  }
  const std::size_t n = a.rows();
  Matrix m = a;
  Matrix q = Matrix::Identity(n);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) off += m(i, j) * m(i, j);
    if (std::sqrt(off) < kJacobiEps * (1.0 + m.FrobeniusNorm())) break;

    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t qi = p + 1; qi < n; ++qi) {
        const double apq = m(p, qi);
        if (std::fabs(apq) < 1e-300) continue;
        const double app = m(p, p);
        const double aqq = m(qi, qi);
        const double zeta = (aqq - app) / (2.0 * apq);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        // Apply rotation on both sides: M <- J^T M J, Q <- Q J.
        for (std::size_t k = 0; k < n; ++k) {
          const double mkp = m(k, p);
          const double mkq = m(k, qi);
          m(k, p) = c * mkp - s * mkq;
          m(k, qi) = s * mkp + c * mkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double mpk = m(p, k);
          const double mqk = m(qi, k);
          m(p, k) = c * mpk - s * mqk;
          m(qi, k) = s * mpk + c * mqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double qkp = q(k, p);
          const double qkq = q(k, qi);
          q(k, p) = c * qkp - s * qkq;
          q(k, qi) = s * qkp + c * qkq;
        }
      }
    }
  }

  Vector w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = m(i, i);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return w[x] > w[y]; });
  EigenResult out;
  out.eigenvalues.resize(n);
  out.eigenvectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.eigenvalues[j] = w[order[j]];
    for (std::size_t i = 0; i < n; ++i)
      out.eigenvectors(i, j) = q(i, order[j]);
  }
  return out;
}

Result<Vector> SolveLinear(const Matrix& a, const Vector& b) {
  const std::size_t n = a.rows();
  if (n == 0 || a.cols() != n || b.size() != n) {
    return Status::InvalidArgument("SolveLinear requires square A, |b| = n");
  }
  Matrix lu = a;
  Vector x = b;
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting.
    std::size_t piv = k;
    double best = std::fabs(lu(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      if (std::fabs(lu(i, k)) > best) {
        best = std::fabs(lu(i, k));
        piv = i;
      }
    }
    if (best < 1e-300) return Status::NumericalError("singular matrix in LU");
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(lu(k, j), lu(piv, j));
      std::swap(x[k], x[piv]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const double f = lu(i, k) / lu(k, k);
      lu(i, k) = f;
      for (std::size_t j = k + 1; j < n; ++j) lu(i, j) -= f * lu(k, j);
      x[i] -= f * x[k];
    }
  }
  // Back substitution.
  for (std::size_t i = n; i-- > 0;) {
    double s = x[i];
    for (std::size_t j = i + 1; j < n; ++j) s -= lu(i, j) * x[j];
    x[i] = s / lu(i, i);
  }
  return x;
}

Result<Vector> SolveCholesky(const Matrix& a, const Vector& b) {
  const std::size_t n = a.rows();
  if (n == 0 || a.cols() != n || b.size() != n) {
    return Status::InvalidArgument("SolveCholesky requires square A, |b| = n");
  }
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      if (i == j) {
        if (s <= 0.0) {
          return Status::NumericalError("matrix not positive definite");
        }
        l(i, j) = std::sqrt(s);
      } else {
        l(i, j) = s / l(j, j);
      }
    }
  }
  // Forward then backward substitution.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  Vector x(n);
  for (std::size_t i = n; i-- > 0;) {
    double s = y[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= l(k, i) * x[k];
    x[i] = s / l(i, i);
  }
  return x;
}

Result<Vector> SolveLeastSquares(const Matrix& a, const Vector& b,
                                 double ridge) {
  if (a.rows() != b.size()) {
    return Status::InvalidArgument("SolveLeastSquares: |b| != rows(A)");
  }
  // Normal equations with optional ridge: (A^T A + ridge I) x = A^T b.
  // For the modest condition numbers in this library this is sufficient and
  // considerably faster than a full orthogonal factorisation.
  const Matrix at = a.Transpose();
  Matrix ata = at.Multiply(a);
  for (std::size_t i = 0; i < ata.rows(); ++i) ata(i, i) += ridge;
  const Vector atb = at.MultiplyVec(b);
  Result<Vector> x = SolveCholesky(ata, atb);
  if (x.ok()) return x;
  // Fall back to pivoted LU when the Gram matrix is numerically semidefinite.
  for (std::size_t i = 0; i < ata.rows(); ++i) ata(i, i) += 1e-8;
  return SolveLinear(ata, atb);
}

Result<Matrix> Inverse(const Matrix& a) {
  const std::size_t n = a.rows();
  if (n == 0 || a.cols() != n) {
    return Status::InvalidArgument("Inverse requires a square matrix");
  }
  Matrix inv(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    Vector e(n, 0.0);
    e[j] = 1.0;
    ADARTS_ASSIGN_OR_RETURN(Vector col, SolveLinear(a, e));
    inv.SetCol(j, col);
  }
  return inv;
}

}  // namespace adarts::la
