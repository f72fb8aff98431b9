// Batched GF(2^16) slab kernels.
//
// Every compiled round funnels through the same handful of dense GF(2^16)
// loops -- Reed-Solomon encode/decode rows (Theorem 1.8 / Lemma 3.6),
// Vandermonde extraction (Theorem 2.1), syndrome accumulation and Gaussian
// elimination inside the decoders -- and the scalar F16 path pays one
// log/antilog table round-trip (two dependent loads plus a reduction
// branch) per multiply.  The slab layer batches those loops over contiguous
// uint16_t spans with a *per-constant* split-nibble table (GF-complete
// style): for a constant c,
//
//   c * x  =  T0[x & 0xf] ^ T1[(x >> 4) & 0xf]
//           ^ T2[(x >> 8) & 0xf] ^ T3[x >> 12]
//
// where Tj[v] = c * (v << 4j).  The four 16-entry tables are built once per
// constant from 16 generator shifts (xtime) plus xor-linearity -- no
// log/antilog lookups at all.  The kernels are plain portable loops: the
// spans the compilers hand in hold at most a few dozen symbols, where a
// vectorized path moved no end-to-end metric (docs/architecture.md 8.2).
//
// Aliasing contract: dst == src is allowed for every kernel (the loops read
// element i before writing element i and carry no other state); *partial*
// overlap is not.  Spans are raw (pointer, length) pairs; callers hand in
// vector<F16> storage via the F16 overloads, which reinterpret the
// contiguous F16 elements as uint16_t (F16 is a trivially copyable
// single-uint16_t wrapper; the static_asserts below pin that).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "gf/gf16.h"

namespace mobile::gf {

static_assert(sizeof(F16) == sizeof(std::uint16_t),
              "slab kernels reinterpret F16 spans as uint16_t spans");
static_assert(std::is_trivially_copyable_v<F16>);

/// Split-nibble multiplication table for one constant.  Cheap to build
/// (16 generator shifts + 64 xors) and cheap to apply (4 loads + 3 xors),
/// so it pays for itself on spans of a handful of elements.
class MulTable {
 public:
  /// Multiplies by zero.
  MulTable() = default;

  explicit MulTable(F16 c);

  [[nodiscard]] F16 constant() const { return c_; }

  /// c * x via the four nibble tables.
  [[nodiscard]] std::uint16_t mul(std::uint16_t x) const {
    return static_cast<std::uint16_t>(t_[0][x & 0xf] ^ t_[1][(x >> 4) & 0xf] ^
                                      t_[2][(x >> 8) & 0xf] ^ t_[3][x >> 12]);
  }

  /// c * x in each of the four 16-bit lanes of x.
  [[nodiscard]] std::uint64_t mulLanes(std::uint64_t x) const {
    std::uint64_t y = 0;
    for (int lane = 0; lane < 64; lane += 16)
      y |= std::uint64_t{mul(static_cast<std::uint16_t>(x >> lane))} << lane;
    return y;
  }

 private:
  std::uint16_t t_[4][16] = {};
  F16 c_{0};
};

// --- span kernels ------------------------------------------------------------
// All kernels tolerate n == 0 and dst == src (see the aliasing contract
// above).  The uint16_t forms are the primitives; the F16 forms forward.
//
// The MulTable forms apply a caller-built table (reuse it when one
// constant scales several spans); the F16-constant forms are adaptive:
// below kSlabCutover elements the table build does not amortize, so they
// run the scalar log/antilog loop instead -- same field values either way.

/// Span length under which a per-constant table costs more than it saves.
inline constexpr std::size_t kSlabCutover = 16;

/// dst[i] ^= c * src[i]  -- the axpy of RS row encoding and row elimination.
void addScaledSlab(std::uint16_t* dst, const MulTable& c,
                   const std::uint16_t* src, std::size_t n);
void addScaledSlab(std::uint16_t* dst, F16 c, const std::uint16_t* src,
                   std::size_t n);

/// dst[i] = c * src[i].
void mulSlab(std::uint16_t* dst, const MulTable& c, const std::uint16_t* src,
             std::size_t n);
void mulSlab(std::uint16_t* dst, F16 c, const std::uint16_t* src,
             std::size_t n);

/// dst[i] ^= src[i]  (field addition).
void addSlab(std::uint16_t* dst, const std::uint16_t* src, std::size_t n);

/// sum_i a[i] * b[i] -- variable-variable products, so this one rides the
/// log/antilog tables.
[[nodiscard]] F16 dotSlab(const std::uint16_t* a, const std::uint16_t* b,
                          std::size_t n);

inline std::uint16_t* raw(F16* p) {
  return reinterpret_cast<std::uint16_t*>(p);
}
inline const std::uint16_t* raw(const F16* p) {
  return reinterpret_cast<const std::uint16_t*>(p);
}

inline void addScaledSlab(F16* dst, const MulTable& c, const F16* src,
                          std::size_t n) {
  addScaledSlab(raw(dst), c, raw(src), n);
}
inline void addScaledSlab(F16* dst, F16 c, const F16* src, std::size_t n) {
  addScaledSlab(raw(dst), c, raw(src), n);
}
inline void mulSlab(F16* dst, const MulTable& c, const F16* src,
                    std::size_t n) {
  mulSlab(raw(dst), c, raw(src), n);
}
inline void mulSlab(F16* dst, F16 c, const F16* src, std::size_t n) {
  mulSlab(raw(dst), c, raw(src), n);
}
inline void addSlab(F16* dst, const F16* src, std::size_t n) {
  addSlab(raw(dst), raw(src), n);
}
[[nodiscard]] inline F16 dotSlab(const F16* a, const F16* b, std::size_t n) {
  return dotSlab(raw(a), raw(b), n);
}

/// Flat row-major GF(2^16) matrix: contiguous rows so elimination and
/// matrix-vector products run as slab kernels instead of per-cell F16 ops.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), cells_(rows * cols, 0) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] std::uint16_t* row(std::size_t i) {
    return cells_.data() + i * cols_;
  }
  [[nodiscard]] const std::uint16_t* row(std::size_t i) const {
    return cells_.data() + i * cols_;
  }

  [[nodiscard]] F16 at(std::size_t i, std::size_t j) const {
    return F16(cells_[i * cols_ + j]);
  }
  void set(std::size_t i, std::size_t j, F16 v) {
    cells_[i * cols_ + j] = v.value();
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint16_t> cells_;
};

/// In-place Gauss-Jordan over the augmented matrix [A | b] (width =
/// unknowns + 1), square system: returns the solution, or empty when A is
/// singular.  Same pivot order as the historical vector<vector<F16>>
/// solver, so results are bit-identical.
[[nodiscard]] std::vector<F16> solveLinearInPlace(Matrix& aug);

/// In-place rank-revealing variant for rectangular / deficient systems:
/// returns *some* solution with free variables zero, or empty when
/// inconsistent.  Pivot order matches the historical solveLinearAny.
[[nodiscard]] std::vector<F16> solveLinearAnyInPlace(Matrix& aug);

}  // namespace mobile::gf
