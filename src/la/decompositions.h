#ifndef ADARTS_LA_DECOMPOSITIONS_H_
#define ADARTS_LA_DECOMPOSITIONS_H_

#include "common/status.h"
#include "la/matrix.h"

namespace adarts::la {

/// Thin singular value decomposition A = U * diag(s) * V^T.
///
/// U is m x k, s has k entries (descending), V is n x k, where
/// k = min(m, n). Computed by one-sided Jacobi rotations, which is robust
/// for the moderate sizes used by the imputation kernels.
struct SvdResult {
  Matrix u;
  Vector singular_values;
  Matrix v;
};

/// Computes the thin SVD of `a`. Fails with NumericalError if the Jacobi
/// sweep does not converge (practically unreachable for finite inputs).
Result<SvdResult> ComputeSvd(const Matrix& a, int max_sweeps = 60);

/// Symmetric eigen-decomposition A = Q * diag(w) * Q^T for symmetric A,
/// eigenvalues descending. Uses the cyclic Jacobi method.
struct EigenResult {
  Vector eigenvalues;
  Matrix eigenvectors;  // columns are eigenvectors
};

/// Computes all eigenpairs of the symmetric matrix `a`.
Result<EigenResult> ComputeSymmetricEigen(const Matrix& a,
                                          int max_sweeps = 100);

/// Solves the square system A x = b by LU with partial pivoting.
Result<Vector> SolveLinear(const Matrix& a, const Vector& b);

/// Solves A x = b for symmetric positive definite A via Cholesky.
Result<Vector> SolveCholesky(const Matrix& a, const Vector& b);

/// Least-squares solution of min ||A x - b||_2 via QR (rows >= cols). A small
/// ridge term can be supplied to regularise rank-deficient systems.
Result<Vector> SolveLeastSquares(const Matrix& a, const Vector& b,
                                 double ridge = 0.0);

/// Inverse of a square matrix via LU; fails on (near-)singular input.
Result<Matrix> Inverse(const Matrix& a);

}  // namespace adarts::la

#endif  // ADARTS_LA_DECOMPOSITIONS_H_
