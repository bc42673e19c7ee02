#ifndef ADARTS_LA_VECTOR_OPS_H_
#define ADARTS_LA_VECTOR_OPS_H_

#include <cstddef>
#include <vector>

namespace adarts::la {

/// Dense double vector used throughout the library.
using Vector = std::vector<double>;

/// Dot product. Requires equal lengths.
double Dot(const Vector& a, const Vector& b);

/// Euclidean (L2) norm.
double Norm2(const Vector& a);

/// y += alpha * x. Requires equal lengths.
void Axpy(double alpha, const Vector& x, Vector* y);

/// x *= alpha.
void Scale(double alpha, Vector* x);

/// Arithmetic mean; 0 for an empty vector.
double Mean(const Vector& a);

/// Population variance (divides by n); 0 for vectors shorter than 2.
double Variance(const Vector& a);

/// Population standard deviation.
double StdDev(const Vector& a);

/// Pearson correlation of two equal-length vectors; 0 when either side is
/// constant.
double PearsonCorrelation(const Vector& a, const Vector& b);

/// Elementwise a - b.
Vector Subtract(const Vector& a, const Vector& b);

/// Elementwise a + b.
Vector Add(const Vector& a, const Vector& b);

}  // namespace adarts::la

#endif  // ADARTS_LA_VECTOR_OPS_H_
