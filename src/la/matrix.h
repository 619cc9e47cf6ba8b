// Dense double-precision matrices, sized for the Focus View's LDA projection
// (dimensions = number of encoded demographic features, typically < 100).
// Row-major storage; all operations are straightforward O(n^3)/O(n^2) loops —
// adequate because LDA here runs on scatter matrices, not raw data.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"

namespace vexus::la {

class Matrix {
 public:
  /// 0x0 matrix.
  Matrix() = default;

  /// rows x cols, zero-initialized.
  Matrix(size_t rows, size_t cols);

  /// rows x cols filled with `value`.
  Matrix(size_t rows, size_t cols, double value);

  /// Identity matrix of order n.
  static Matrix Identity(size_t n);

  /// Builds from nested initializer-style data; all rows must have equal size.
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c);
  double operator()(size_t r, size_t c) const;

  /// Mutable pointer to row r (contiguous cols() doubles).
  double* Row(size_t r);
  const double* Row(size_t r) const;

  Matrix Transpose() const;

  /// Matrix product; inner dimensions must agree.
  Matrix Multiply(const Matrix& other) const;

  /// Matrix-vector product; v.size() must equal cols().
  std::vector<double> MultiplyVector(const std::vector<double>& v) const;

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& Scale(double factor);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(const Matrix& a, const Matrix& b) {
    return a.Multiply(b);
  }

  /// Adds `value` to every diagonal entry (ridge regularization for LDA's
  /// within-class scatter, which is often singular on categorical data).
  void AddToDiagonal(double value);

  /// Max |a_ij - b_ij|; matrices must have equal shape.
  double MaxAbsDiff(const Matrix& other) const;

  /// Frobenius norm.
  double FrobeniusNorm() const;

  bool IsSymmetric(double tol = 1e-9) const;

  std::string ToString(int precision = 4) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// Cholesky factorization A = L·Lᵀ of a symmetric positive-definite matrix.
/// Returns FailedPrecondition if A is not (numerically) positive definite.
Result<Matrix> Cholesky(const Matrix& a);

/// Solves L·y = b for lower-triangular L (forward substitution).
std::vector<double> ForwardSubstitute(const Matrix& l,
                                      const std::vector<double>& b);

/// Inverts a lower-triangular matrix.
Matrix InvertLowerTriangular(const Matrix& l);

/// Dot product; sizes must match.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace vexus::la
