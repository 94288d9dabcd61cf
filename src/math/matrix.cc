#include "math/matrix.h"

#include <cmath>

#include "common/check.h"
#include "math/kernels.h"

namespace qb5000 {

Vector Matrix::Row(size_t r) const {
  QB_CHECK_LT(r, rows_);
  return Vector(data_.begin() + r * cols_, data_.begin() + (r + 1) * cols_);
}

void Matrix::SetRow(size_t r, const Vector& v) {
  QB_CHECK_LT(r, rows_);
  QB_CHECK_EQ(v.size(), cols_);
  std::copy(v.begin(), v.end(), data_.begin() + r * cols_);
}

Matrix Matrix::MatMul(const Matrix& other) const {
  QB_CHECK_EQ(cols_, other.rows_);
  Matrix out(rows_, other.cols_);
  MatMulInto(*this, other, out);
  return out;
}

Vector Matrix::MatVec(const Vector& v) const {
  QB_CHECK_EQ(v.size(), cols_);
  Vector out(rows_, 0.0);
  MatVecInto(*this, v, out);
  return out;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  }
  return out;
}

Matrix Matrix::Identity(size_t n) {
  Matrix out(n, n);
  for (size_t i = 0; i < n; ++i) out(i, i) = 1.0;
  return out;
}

double Dot(const Vector& a, const Vector& b) {
  QB_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double Norm(const Vector& v) { return std::sqrt(Dot(v, v)); }

Vector Add(const Vector& a, const Vector& b) {
  QB_CHECK_EQ(a.size(), b.size());
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector ScaleVec(const Vector& a, double s) {
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

}  // namespace qb5000
