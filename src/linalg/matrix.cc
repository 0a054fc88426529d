#include "src/linalg/matrix.h"

#include <algorithm>
#include <cmath>

namespace hypertune {

double Dot(const Vector& a, const Vector& b) {
  HT_CHECK(a.size() == b.size()) << "dot: size mismatch " << a.size() << " vs "
                                 << b.size();
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double Norm(const Vector& v) { return std::sqrt(Dot(v, v)); }

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n, 0.0);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector Matrix::MatVec(const Vector& x) const {
  HT_CHECK(x.size() == cols_) << "matvec: size mismatch";
  Vector y(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = &data_[r * cols_];
    for (size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

Vector Matrix::TransposeMatVec(const Vector& x) const {
  HT_CHECK(x.size() == rows_) << "t-matvec: size mismatch";
  Vector y(cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = &data_[r * cols_];
    double xr = x[r];
    for (size_t c = 0; c < cols_; ++c) y[c] += row[c] * xr;
  }
  return y;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  HT_CHECK(cols_ == other.rows_) << "matmul: inner dimension mismatch";
  Matrix out(rows_, other.cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = 0; k < cols_; ++k) {
      double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (size_t c = 0; c < other.cols_; ++c) {
        out(r, c) += a * other(k, c);
      }
    }
  }
  return out;
}

Matrix Matrix::Syrk() const {
  Matrix out(rows_, rows_, 0.0);
  constexpr size_t kBlock = 64;
  for (size_t k0 = 0; k0 < cols_; k0 += kBlock) {
    const size_t k1 = std::min(k0 + kBlock, cols_);
    for (size_t r = 0; r < rows_; ++r) {
      const double* a = row(r);
      for (size_t c = 0; c <= r; ++c) {
        const double* b = row(c);
        double acc = 0.0;
        for (size_t k = k0; k < k1; ++k) acc += a[k] * b[k];
        out(r, c) += acc;
      }
    }
  }
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = r + 1; c < rows_; ++c) out(r, c) = out(c, r);
  }
  return out;
}

Matrix Gemm(const Matrix& a, const Matrix& b) {
  HT_CHECK(a.cols() == b.rows()) << "gemm: inner dimension mismatch";
  const size_t m = a.rows();
  const size_t k_dim = a.cols();
  const size_t n = b.cols();
  Matrix c(m, n, 0.0);
  // i/k/j tiling: the innermost loop streams a row of B against a row of C,
  // so one tile of B stays resident while a block of A rows sweeps it.
  constexpr size_t kBlockI = 64;
  constexpr size_t kBlockK = 64;
  constexpr size_t kBlockJ = 256;
  for (size_t j0 = 0; j0 < n; j0 += kBlockJ) {
    const size_t j1 = std::min(j0 + kBlockJ, n);
    for (size_t k0 = 0; k0 < k_dim; k0 += kBlockK) {
      const size_t k1 = std::min(k0 + kBlockK, k_dim);
      for (size_t i0 = 0; i0 < m; i0 += kBlockI) {
        const size_t i1 = std::min(i0 + kBlockI, m);
        for (size_t i = i0; i < i1; ++i) {
          const double* arow = a.row(i);
          double* crow = c.row(i);
          for (size_t k = k0; k < k1; ++k) {
            const double av = arow[k];
            const double* brow = b.row(k);
            for (size_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
          }
        }
      }
    }
  }
  return c;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Matrix Matrix::SelectRows(const std::vector<size_t>& indices) const {
  Matrix out(indices.size(), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    HT_CHECK(indices[i] < rows_) << "SelectRows: row out of range";
    std::copy(row(indices[i]), row(indices[i]) + cols_, out.row(i));
  }
  return out;
}

void Matrix::AddDiagonal(double value) {
  HT_CHECK(rows_ == cols_) << "AddDiagonal requires a square matrix";
  for (size_t i = 0; i < rows_; ++i) (*this)(i, i) += value;
}

}  // namespace hypertune
