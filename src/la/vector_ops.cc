#include "la/vector_ops.h"

#include <cmath>

#include "common/check.h"

namespace adarts::la {

double Dot(const Vector& a, const Vector& b) {
  ADARTS_CHECK(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double Norm2(const Vector& a) { return std::sqrt(Dot(a, a)); }

void Axpy(double alpha, const Vector& x, Vector* y) {
  ADARTS_CHECK(x.size() == y->size());
  for (std::size_t i = 0; i < x.size(); ++i) (*y)[i] += alpha * x[i];
}

void Scale(double alpha, Vector* x) {
  for (double& v : *x) v *= alpha;
}

double Mean(const Vector& a) {
  if (a.empty()) return 0.0;
  double s = 0.0;
  for (double v : a) s += v;
  return s / static_cast<double>(a.size());
}

double Variance(const Vector& a) {
  if (a.size() < 2) return 0.0;
  const double m = Mean(a);
  double s = 0.0;
  for (double v : a) s += (v - m) * (v - m);
  return s / static_cast<double>(a.size());
}

double StdDev(const Vector& a) { return std::sqrt(Variance(a)); }

double PearsonCorrelation(const Vector& a, const Vector& b) {
  ADARTS_CHECK(a.size() == b.size());
  if (a.size() < 2) return 0.0;
  const double ma = Mean(a);
  const double mb = Mean(b);
  double cov = 0.0;
  double va = 0.0;
  double vb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va <= 0.0 || vb <= 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

Vector Subtract(const Vector& a, const Vector& b) {
  ADARTS_CHECK(a.size() == b.size());
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector Add(const Vector& a, const Vector& b) {
  ADARTS_CHECK(a.size() == b.size());
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

}  // namespace adarts::la
