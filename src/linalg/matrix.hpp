#pragma once
// Dense complex matrices and vectors.
//
// The homotopy kernel works over C throughout: Newton correction, tangent
// prediction and the Pieri intersection conditions are all complex linear
// algebra on small dense matrices (dimension <= a few dozen).  The storage
// is row-major contiguous; operations favour clarity over blocking since the
// matrices are tiny and the hot loops are the polynomial evaluations.

#include <complex>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace pph::linalg {

using Complex = std::complex<double>;
using CVector = std::vector<Complex>;

/// Dense row-major complex matrix.
class CMatrix {
 public:
  CMatrix() = default;
  CMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, Complex{0.0, 0.0}) {}

  /// Build from nested initializer lists (rows of entries); ragged input throws.
  CMatrix(std::initializer_list<std::initializer_list<Complex>> init);

  static CMatrix identity(std::size_t n);
  static CMatrix zero(std::size_t rows, std::size_t cols) { return CMatrix(rows, cols); }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  /// Reshape to rows x cols.  Contents become unspecified when the shape
  /// changes; no reallocation when the new size fits the existing capacity
  /// (the evaluation engine relies on this for its allocation-free passes).
  void resize(std::size_t rows, std::size_t cols) {
    if (rows == rows_ && cols == cols_) return;
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  Complex& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const Complex& operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  Complex* data() { return data_.data(); }
  const Complex* data() const { return data_.data(); }

  /// Rows [r0, r1) and columns [c0, c1) as a new matrix.
  CMatrix block(std::size_t r0, std::size_t r1, std::size_t c0, std::size_t c1) const;

  /// New matrix with the selected rows (in the given order).
  CMatrix select_rows(const std::vector<std::size_t>& row_indices) const;

  /// Horizontal concatenation [A | B]; row counts must agree.
  static CMatrix hcat(const CMatrix& a, const CMatrix& b);
  /// Vertical concatenation [A ; B]; column counts must agree.
  static CMatrix vcat(const CMatrix& a, const CMatrix& b);

  CMatrix transpose() const;
  /// Conjugate transpose.
  CMatrix adjoint() const;

  CMatrix& operator+=(const CMatrix& other);
  CMatrix& operator-=(const CMatrix& other);
  CMatrix& operator*=(Complex scalar);

  friend CMatrix operator+(CMatrix a, const CMatrix& b) { return a += b; }
  friend CMatrix operator-(CMatrix a, const CMatrix& b) { return a -= b; }
  friend CMatrix operator*(CMatrix a, Complex s) { return a *= s; }
  friend CMatrix operator*(Complex s, CMatrix a) { return a *= s; }

  /// Matrix product; inner dimensions must agree.
  friend CMatrix operator*(const CMatrix& a, const CMatrix& b);

  /// Matrix-vector product.
  CVector apply(const CVector& x) const;

  bool same_shape(const CMatrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  std::string to_string(int precision = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  CVector data_;
};

// ---- vector helpers -------------------------------------------------------

/// Euclidean norm.
double norm2(const CVector& x);
/// Max-abs norm.
double norm_inf(const CVector& x);
/// Euclidean distance ||x - y||.
double distance2(const CVector& x, const CVector& y);
/// Dot product sum_i conj(x_i) * y_i.
Complex dot(const CVector& x, const CVector& y);

/// Frobenius norm of a matrix.
double norm_frobenius(const CMatrix& a);
/// Max-row-sum operator norm.
double norm_inf(const CMatrix& a);

}  // namespace pph::linalg
