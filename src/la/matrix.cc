#include "la/matrix.h"

#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"

namespace vexus::la {

Matrix::Matrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(size_t rows, size_t cols, double value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    VEXUS_CHECK(rows[r].size() == m.cols_) << "ragged row " << r;
    for (size_t c = 0; c < m.cols_; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

double& Matrix::operator()(size_t r, size_t c) {
  VEXUS_DCHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::operator()(size_t r, size_t c) const {
  VEXUS_DCHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double* Matrix::Row(size_t r) {
  VEXUS_DCHECK(r < rows_);
  return data_.data() + r * cols_;
}

const double* Matrix::Row(size_t r) const {
  VEXUS_DCHECK(r < rows_);
  return data_.data() + r * cols_;
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  VEXUS_CHECK(cols_ == other.rows_)
      << "shape mismatch " << rows_ << "x" << cols_ << " * " << other.rows_
      << "x" << other.cols_;
  Matrix out(rows_, other.cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < cols_; ++k) {
      double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      const double* brow = other.Row(k);
      double* orow = out.Row(i);
      for (size_t j = 0; j < other.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

std::vector<double> Matrix::MultiplyVector(const std::vector<double>& v) const {
  VEXUS_CHECK(v.size() == cols_);
  std::vector<double> out(rows_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    const double* row = Row(i);
    double acc = 0;
    for (size_t j = 0; j < cols_; ++j) acc += row[j] * v[j];
    out[i] = acc;
  }
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  VEXUS_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  VEXUS_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::Scale(double factor) {
  for (double& d : data_) d *= factor;
  return *this;
}

void Matrix::AddToDiagonal(double value) {
  size_t n = std::min(rows_, cols_);
  for (size_t i = 0; i < n; ++i) (*this)(i, i) += value;
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  VEXUS_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  double m = 0;
  for (size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::fabs(data_[i] - other.data_[i]));
  }
  return m;
}

double Matrix::FrobeniusNorm() const {
  double s = 0;
  for (double d : data_) s += d * d;
  return std::sqrt(s);
}

bool Matrix::IsSymmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = i + 1; j < cols_; ++j) {
      if (std::fabs((*this)(i, j) - (*this)(j, i)) > tol) return false;
    }
  }
  return true;
}

std::string Matrix::ToString(int precision) const {
  std::ostringstream os;
  for (size_t r = 0; r < rows_; ++r) {
    os << "[";
    for (size_t c = 0; c < cols_; ++c) {
      if (c > 0) os << ", ";
      os << vexus::FormatDouble((*this)(r, c), precision);
    }
    os << "]\n";
  }
  return os.str();
}

Result<Matrix> Cholesky(const Matrix& a) {
  VEXUS_CHECK(a.rows() == a.cols()) << "Cholesky needs a square matrix";
  size_t n = a.rows();
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        if (sum <= 0.0) {
          return Status::FailedPrecondition(
              "matrix is not positive definite (pivot " +
              std::to_string(i) + " = " + std::to_string(sum) + ")");
        }
        l(i, j) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  return l;
}

std::vector<double> ForwardSubstitute(const Matrix& l,
                                      const std::vector<double>& b) {
  size_t n = l.rows();
  VEXUS_CHECK(b.size() == n);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t j = 0; j < i; ++j) sum -= l(i, j) * y[j];
    y[i] = sum / l(i, i);
  }
  return y;
}

Matrix InvertLowerTriangular(const Matrix& l) {
  size_t n = l.rows();
  Matrix inv(n, n);
  for (size_t col = 0; col < n; ++col) {
    std::vector<double> e(n, 0.0);
    e[col] = 1.0;
    std::vector<double> x = ForwardSubstitute(l, e);
    for (size_t r = 0; r < n; ++r) inv(r, col) = x[r];
  }
  return inv;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  VEXUS_CHECK(a.size() == b.size());
  double s = 0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace vexus::la
