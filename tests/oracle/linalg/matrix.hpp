#pragma once

/// \file matrix.hpp
/// Minimal dense row-major matrix for the test-only LU oracle. Sized for
/// cross-checking the Multi-Installment schedule solver (systems of a few
/// hundred unknowns), not for large-scale BLAS work.

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <vector>

namespace rumr::linalg {

/// Dense row-major matrix of doubles with bounds-checked (assert) access.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Construction from nested initializer lists, e.g. {{1,2},{3,4}}.
  /// All rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows) {
    rows_ = rows.size();
    cols_ = rows_ > 0 ? rows.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto& row : rows) {
      assert(row.size() == cols_ && "ragged initializer for Matrix");
      data_.insert(data_.end(), row.begin(), row.end());
    }
  }

  /// n x n identity.
  [[nodiscard]] static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Matrix-vector product. Requires x.size() == cols().
  [[nodiscard]] std::vector<double> multiply(const std::vector<double>& x) const {
    assert(x.size() == cols_);
    std::vector<double> y(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
      double acc = 0.0;
      for (std::size_t c = 0; c < cols_; ++c) acc += (*this)(r, c) * x[c];
      y[r] = acc;
    }
    return y;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace rumr::linalg
