#include "linalg/lu.hpp"

#include <cmath>
#include <stdexcept>

namespace pph::linalg {

LU::LU(const CMatrix& a) {
  CMatrix copy(a);
  factor(copy);
}

void LU::factor(CMatrix& a) {
  if (a.rows() != a.cols()) throw std::invalid_argument("LU: matrix not square");
  n_ = a.rows();
  std::swap(lu_, a);
  a.resize(n_, n_);  // hand the caller back a same-shaped buffer
  piv_.resize(n_);
  perm_sign_ = 1;
  singular_ = false;
  norm_a_inf_ = norm_inf(lu_);
  for (std::size_t i = 0; i < n_; ++i) piv_[i] = i;

  for (std::size_t k = 0; k < n_; ++k) {
    // Partial pivoting: pick the largest magnitude in column k at/below row k.
    std::size_t pivot_row = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n_; ++r) {
      const double mag = std::abs(lu_(r, k));
      if (mag > best) {
        best = mag;
        pivot_row = r;
      }
    }
    if (best == 0.0) {
      singular_ = true;
      continue;  // leave the zero column; determinant() will report 0
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n_; ++c) std::swap(lu_(k, c), lu_(pivot_row, c));
      std::swap(piv_[k], piv_[pivot_row]);
      perm_sign_ = -perm_sign_;
    }
    const Complex pivot = lu_(k, k);
    for (std::size_t r = k + 1; r < n_; ++r) {
      const Complex factor = lu_(r, k) / pivot;
      lu_(r, k) = factor;
      if (factor == Complex{}) continue;
      for (std::size_t c = k + 1; c < n_; ++c) lu_(r, c) -= factor * lu_(k, c);
    }
  }
}

std::optional<CVector> LU::solve(const CVector& b) const {
  CVector x;
  if (!solve_into(b, x)) return std::nullopt;
  return x;
}

bool LU::solve_into(const CVector& b, CVector& x) const {
  if (b.size() != n_) throw std::invalid_argument("LU::solve: size mismatch");
  if (singular_) return false;
  x.resize(n_);  // b and x must not alias: the permuted read of b interleaves writes to x
  // Apply permutation and forward-substitute L (unit diagonal).
  for (std::size_t i = 0; i < n_; ++i) {
    Complex acc = b[piv_[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
    x[i] = acc;
  }
  // Back-substitute U.
  for (std::size_t ii = n_; ii-- > 0;) {
    Complex acc = x[ii];
    for (std::size_t j = ii + 1; j < n_; ++j) acc -= lu_(ii, j) * x[j];
    x[ii] = acc / lu_(ii, ii);
  }
  return true;
}

std::optional<CMatrix> LU::solve(const CMatrix& b) const {
  if (b.rows() != n_) throw std::invalid_argument("LU::solve: row mismatch");
  if (singular_) return std::nullopt;
  CMatrix x(n_, b.cols());
  CVector col(n_);
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < n_; ++r) col[r] = b(r, c);
    auto sol = solve(col);
    if (!sol) return std::nullopt;
    for (std::size_t r = 0; r < n_; ++r) x(r, c) = (*sol)[r];
  }
  return x;
}

Complex LU::determinant() const {
  if (singular_) return Complex{0.0, 0.0};
  Complex det{static_cast<double>(perm_sign_), 0.0};
  for (std::size_t i = 0; i < n_; ++i) det *= lu_(i, i);
  return det;
}

std::optional<CMatrix> LU::inverse() const {
  return solve(CMatrix::identity(n_));
}

double LU::rcond_estimate() const {
  if (singular_ || n_ == 0) return 0.0;
  // One-sweep Hager estimate of ||A^-1||_inf via A^T-style solve is overkill
  // for our tiny systems; instead solve against the all-ones vector and a
  // +/-1 vector keyed to U's diagonal phases, take the larger growth.
  CVector ones(n_, Complex{1.0, 0.0});
  CVector alt(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const Complex d = lu_(i, i);
    const double mag = std::abs(d);
    alt[i] = (mag > 0.0) ? std::conj(d) / mag : Complex{1.0, 0.0};
  }
  double growth = 0.0;
  for (const auto& rhs : {ones, alt}) {
    auto x = solve(rhs);
    if (!x) return 0.0;
    growth = std::max(growth, norm_inf(*x) / norm_inf(rhs));
  }
  if (growth == 0.0 || norm_a_inf_ == 0.0) return 0.0;
  return 1.0 / (growth * norm_a_inf_);
}

double LU::min_pivot_magnitude() const {
  if (n_ == 0) return 0.0;
  double m = std::abs(lu_(0, 0));
  for (std::size_t i = 1; i < n_; ++i) m = std::min(m, std::abs(lu_(i, i)));
  return m;
}

Complex determinant(const CMatrix& a) { return LU(a).determinant(); }

}  // namespace pph::linalg
