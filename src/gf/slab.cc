#include "gf/slab.h"

#include <algorithm>
#include <cassert>

namespace mobile::gf {

MulTable::MulTable(F16 c) : c_(c) {
  // basis[b] = c * x^b, walked up with 16 generator shifts (xtime); each
  // nibble table entry is then an xor of at most four basis values
  // (linearity of y -> c*y over GF(2)).  No log/antilog traffic.
  std::uint16_t basis[16];
  std::uint32_t s = c.value();
  for (int b = 0; b < 16; ++b) {
    basis[b] = static_cast<std::uint16_t>(s);
    s <<= 1;
    if (s & kFieldSize) s ^= kPrimitivePoly;
  }
  for (int j = 0; j < 4; ++j) {
    t_[j][0] = 0;
    for (int v = 1; v < 16; ++v) {
      const int low = v & -v;          // lowest set bit of the nibble
      const int b = 4 * j + (low == 1 ? 0 : low == 2 ? 1 : low == 4 ? 2 : 3);
      t_[j][v] = static_cast<std::uint16_t>(t_[j][v & (v - 1)] ^ basis[b]);
    }
  }
}

// --- span kernels ------------------------------------------------------------

void addScaledSlab(std::uint16_t* dst, const MulTable& c,
                   const std::uint16_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    dst[i] = static_cast<std::uint16_t>(dst[i] ^ c.mul(src[i]));
}

void addScaledSlab(std::uint16_t* dst, F16 c, const std::uint16_t* src,
                   std::size_t n) {
  if (c.isZero()) return;
  if (n < kSlabCutover) {
    for (std::size_t i = 0; i < n; ++i)
      dst[i] = (F16(dst[i]) + c * F16(src[i])).value();
    return;
  }
  addScaledSlab(dst, MulTable(c), src, n);
}

void mulSlab(std::uint16_t* dst, const MulTable& c, const std::uint16_t* src,
             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = c.mul(src[i]);
}

void mulSlab(std::uint16_t* dst, F16 c, const std::uint16_t* src,
             std::size_t n) {
  if (n < kSlabCutover) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = (c * F16(src[i])).value();
    return;
  }
  mulSlab(dst, MulTable(c), src, n);
}

void addSlab(std::uint16_t* dst, const std::uint16_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    dst[i] = static_cast<std::uint16_t>(dst[i] ^ src[i]);
}

F16 dotSlab(const std::uint16_t* a, const std::uint16_t* b, std::size_t n) {
  F16 acc(0);
  for (std::size_t i = 0; i < n; ++i) acc += F16(a[i]) * F16(b[i]);
  return acc;
}

std::vector<F16> solveLinearInPlace(Matrix& aug) {
  const std::size_t n = aug.rows();
  const std::size_t width = aug.cols();
  assert(width == n + 1);
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    while (pivot < n && aug.at(pivot, col).isZero()) ++pivot;
    if (pivot == n) return {};  // singular
    if (pivot != col)
      std::swap_ranges(aug.row(pivot), aug.row(pivot) + width, aug.row(col));
    std::uint16_t* prow = aug.row(col);
    mulSlab(prow + col, aug.at(col, col).inverse(), prow + col, width - col);
    for (std::size_t row = 0; row < n; ++row) {
      if (row == col || aug.at(row, col).isZero()) continue;
      addScaledSlab(aug.row(row) + col, aug.at(row, col), prow + col,
                    width - col);
    }
  }
  std::vector<F16> z(n);
  for (std::size_t i = 0; i < n; ++i) z[i] = aug.at(i, n);
  return z;
}

std::vector<F16> solveLinearAnyInPlace(Matrix& aug) {
  const std::size_t rows = aug.rows();
  const std::size_t width = aug.cols();
  assert(width >= 1);
  const std::size_t unknowns = width - 1;
  std::vector<std::size_t> pivotCol;  // pivot column of each eliminated row
  std::size_t rank = 0;
  for (std::size_t col = 0; col < unknowns && rank < rows; ++col) {
    std::size_t pivot = rank;
    while (pivot < rows && aug.at(pivot, col).isZero()) ++pivot;
    if (pivot == rows) continue;
    if (pivot != rank)
      std::swap_ranges(aug.row(pivot), aug.row(pivot) + width, aug.row(rank));
    std::uint16_t* prow = aug.row(rank);
    mulSlab(prow + col, aug.at(rank, col).inverse(), prow + col, width - col);
    for (std::size_t row = 0; row < rows; ++row) {
      if (row == rank || aug.at(row, col).isZero()) continue;
      addScaledSlab(aug.row(row) + col, aug.at(row, col), prow + col,
                    width - col);
    }
    pivotCol.push_back(col);
    ++rank;
  }
  // Consistency: rows below the rank must have zero RHS.
  for (std::size_t row = rank; row < rows; ++row)
    if (!aug.at(row, unknowns).isZero()) return {};
  std::vector<F16> z(unknowns, F16(0));
  for (std::size_t r = 0; r < rank; ++r)
    z[pivotCol[r]] = aug.at(r, unknowns);
  return z;
}

}  // namespace mobile::gf
