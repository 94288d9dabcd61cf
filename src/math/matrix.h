#pragma once

#include <cstddef>
#include <vector>

#include "common/check.h"

namespace qb5000 {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles. MatMul/MatVec delegate to the
/// cache-blocked, register-tiled kernels in math/kernels.h; callers on hot
/// paths should use the *Into variants there to avoid allocating results.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  /// Unchecked-in-Release element access for inner loops. Debug builds
  /// still bounds-check; cold callers should prefer at().
  double& operator()(size_t r, size_t c) {
    QB_DCHECK_LT(r, rows_);
    QB_DCHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    QB_DCHECK_LT(r, rows_);
    QB_DCHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  /// Bounds-checked element access; aborts on out-of-range even in Release.
  double& at(size_t r, size_t c) {
    QB_CHECK_LT(r, rows_);
    QB_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double at(size_t r, size_t c) const {
    QB_CHECK_LT(r, rows_);
    QB_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& mutable_data() { return data_; }

  /// Returns row `r` as a Vector copy.
  Vector Row(size_t r) const;

  /// Overwrites row `r` with `v` (v.size() must equal cols()).
  void SetRow(size_t r, const Vector& v);

  /// this * other; requires cols() == other.rows().
  Matrix MatMul(const Matrix& other) const;

  /// this * v; requires v.size() == cols().
  Vector MatVec(const Vector& v) const;

  /// Transposed copy.
  Matrix Transpose() const;

  /// Identity matrix of size n.
  static Matrix Identity(size_t n);

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// v . w ; sizes must match.
double Dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double Norm(const Vector& v);

/// a + b element-wise.
Vector Add(const Vector& a, const Vector& b);

/// a * s element-wise.
Vector ScaleVec(const Vector& a, double s);

}  // namespace qb5000
