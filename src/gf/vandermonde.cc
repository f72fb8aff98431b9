#include "gf/vandermonde.h"

#include <cassert>

#include "gf/slab.h"

namespace mobile::gf {

Vandermonde::Vandermonde(std::size_t n, std::size_t m) : n_(n), m_(m) {
  assert(n < kGroupOrder);
  cells_.resize(n * m);
  for (std::size_t i = 0; i < n; ++i) {
    const F16 a = F16::alpha(static_cast<std::uint32_t>(i + 1));
    F16 p(1);
    for (std::size_t j = 0; j < m; ++j) {
      cells_[i * m + j] = p;
      p = p * a;
    }
  }
}

std::vector<F16> Vandermonde::applyTransposed(const std::vector<F16>& x) const {
  assert(x.size() == n_);
  // Row-wise axpy over the contiguous rows: y ^= x[i] * row_i.  One
  // split-nibble table per non-zero coefficient replaces n_*m_ log/antilog
  // multiplies on rows of kSlabCutover or more.
  std::vector<F16> y(m_, F16(0));
  for (std::size_t i = 0; i < n_; ++i) {
    if (x[i].isZero()) continue;
    addScaledSlab(y.data(), x[i], cells_.data() + i * m_, m_);
  }
  return y;
}

namespace {

/// Packs (a | b) into the flat augmented matrix the slab solvers eliminate
/// in place.
Matrix augmented(const std::vector<std::vector<F16>>& a,
                 const std::vector<F16>& b, std::size_t unknowns) {
  Matrix aug(a.size(), unknowns + 1);
  for (std::size_t i = 0; i < a.size(); ++i) {
    assert(a[i].size() >= unknowns);
    for (std::size_t j = 0; j < unknowns; ++j) aug.set(i, j, a[i][j]);
    aug.set(i, unknowns, b[i]);
  }
  return aug;
}

}  // namespace

std::vector<F16> solveLinearAny(std::vector<std::vector<F16>> a,
                                std::vector<F16> b, std::size_t unknowns) {
  assert(b.size() == a.size());
  Matrix aug = augmented(a, b, unknowns);
  return solveLinearAnyInPlace(aug);
}

std::vector<F16> solveLinear(std::vector<std::vector<F16>> a,
                             std::vector<F16> b) {
  assert(b.size() == a.size());
  Matrix aug = augmented(a, b, a.size());
  return solveLinearInPlace(aug);
}

}  // namespace mobile::gf
