#include "linalg/matrix.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace pph::linalg {

CMatrix::CMatrix(std::initializer_list<std::initializer_list<Complex>> init) {
  rows_ = init.size();
  cols_ = rows_ ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    if (row.size() != cols_) throw std::invalid_argument("CMatrix: ragged initializer");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

CMatrix CMatrix::identity(std::size_t n) {
  CMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = Complex{1.0, 0.0};
  return m;
}

CMatrix CMatrix::block(std::size_t r0, std::size_t r1, std::size_t c0, std::size_t c1) const {
  if (r1 > rows_ || c1 > cols_ || r0 > r1 || c0 > c1) {
    throw std::out_of_range("CMatrix::block: bad range");
  }
  CMatrix out(r1 - r0, c1 - c0);
  for (std::size_t r = r0; r < r1; ++r)
    for (std::size_t c = c0; c < c1; ++c) out(r - r0, c - c0) = (*this)(r, c);
  return out;
}

CMatrix CMatrix::select_rows(const std::vector<std::size_t>& row_indices) const {
  CMatrix out(row_indices.size(), cols_);
  for (std::size_t i = 0; i < row_indices.size(); ++i) {
    if (row_indices[i] >= rows_) throw std::out_of_range("CMatrix::select_rows");
    for (std::size_t c = 0; c < cols_; ++c) out(i, c) = (*this)(row_indices[i], c);
  }
  return out;
}

CMatrix CMatrix::hcat(const CMatrix& a, const CMatrix& b) {
  if (a.rows() != b.rows()) throw std::invalid_argument("hcat: row mismatch");
  CMatrix out(a.rows(), a.cols() + b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) out(r, c) = a(r, c);
    for (std::size_t c = 0; c < b.cols(); ++c) out(r, a.cols() + c) = b(r, c);
  }
  return out;
}

CMatrix CMatrix::vcat(const CMatrix& a, const CMatrix& b) {
  if (a.cols() != b.cols()) throw std::invalid_argument("vcat: column mismatch");
  CMatrix out(a.rows() + b.rows(), a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) out(r, c) = a(r, c);
  for (std::size_t r = 0; r < b.rows(); ++r)
    for (std::size_t c = 0; c < b.cols(); ++c) out(a.rows() + r, c) = b(r, c);
  return out;
}

CMatrix CMatrix::transpose() const {
  CMatrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

CMatrix CMatrix::adjoint() const {
  CMatrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = std::conj((*this)(r, c));
  return out;
}

CMatrix& CMatrix::operator+=(const CMatrix& other) {
  if (!same_shape(other)) throw std::invalid_argument("CMatrix +=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

CMatrix& CMatrix::operator-=(const CMatrix& other) {
  if (!same_shape(other)) throw std::invalid_argument("CMatrix -=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

CMatrix& CMatrix::operator*=(Complex scalar) {
  for (auto& v : data_) v *= scalar;
  return *this;
}

CMatrix operator*(const CMatrix& a, const CMatrix& b) {
  if (a.cols() != b.rows()) throw std::invalid_argument("CMatrix *: inner dim mismatch");
  CMatrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const Complex aik = a(i, k);
      if (aik == Complex{}) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  }
  return out;
}

CVector CMatrix::apply(const CVector& x) const {
  if (x.size() != cols_) throw std::invalid_argument("CMatrix::apply: size mismatch");
  CVector y(rows_, Complex{});
  for (std::size_t r = 0; r < rows_; ++r) {
    Complex acc{};
    for (std::size_t c = 0; c < cols_; ++c) acc += (*this)(r, c) * x[c];
    y[r] = acc;
  }
  return y;
}

std::string CMatrix::to_string(int precision) const {
  std::ostringstream os;
  os << std::setprecision(precision);
  for (std::size_t r = 0; r < rows_; ++r) {
    os << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < cols_; ++c) {
      const Complex& v = (*this)(r, c);
      os << "(" << v.real() << (v.imag() < 0 ? "" : "+") << v.imag() << "i)";
      if (c + 1 < cols_) os << " ";
    }
    os << (r + 1 == rows_ ? "]" : "\n");
  }
  return os.str();
}

double norm2(const CVector& x) {
  double s = 0.0;
  for (const auto& v : x) s += std::norm(v);
  return std::sqrt(s);
}

double norm_inf(const CVector& x) {
  double m = 0.0;
  for (const auto& v : x) m = std::max(m, std::abs(v));
  return m;
}

double distance2(const CVector& x, const CVector& y) {
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += std::norm(x[i] - y[i]);
  return std::sqrt(s);
}

Complex dot(const CVector& x, const CVector& y) {
  if (x.size() != y.size()) throw std::invalid_argument("dot: size mismatch");
  Complex s{};
  for (std::size_t i = 0; i < x.size(); ++i) s += std::conj(x[i]) * y[i];
  return s;
}

double norm_frobenius(const CMatrix& a) {
  double s = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) s += std::norm(a(r, c));
  return std::sqrt(s);
}

double norm_inf(const CMatrix& a) {
  double best = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double row = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) row += std::abs(a(r, c));
    best = std::max(best, row);
  }
  return best;
}

}  // namespace pph::linalg
