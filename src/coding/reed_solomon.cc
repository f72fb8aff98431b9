#include "coding/reed_solomon.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mobile::coding {

using gf::F16;
using gf::Matrix;

ReedSolomon::ReedSolomon(std::size_t ell, std::size_t k) : ell_(ell), k_(k) {
  assert(ell >= 1);
  assert(ell <= k);
  assert(k < gf::kGroupOrder);
  // One pass of scalar multiplies fills both cached layouts: the power
  // prefix of every evaluation point (row-contiguous per point, feeding
  // the syndrome and Chien stages) and its transpose restricted to j < ell
  // (row-contiguous per coefficient, feeding the encode axpy).  Syndromes
  // read exponents < k - ell and the Chien dots exponents <= maxErrors().
  const std::size_t powCols = std::max(k_ - ell_, maxErrors() + 1);
  const std::size_t walk = std::max(powCols, ell_);
  pow_ = Matrix(k_, powCols);
  eval_ = Matrix(ell_, k_);
  for (std::size_t i = 0; i < k_; ++i) {
    const F16 x = point(i);
    F16 p(1);
    for (std::size_t j = 0; j < walk; ++j) {
      if (j < powCols) pow_.set(i, j, p);
      if (j < ell_) eval_.set(j, i, p);
      p = p * x;
    }
  }
  // Dual-code column multipliers: with u_i = 1 / prod_{j != i} (x_i - x_j),
  // the vectors (u_0 x_0^m, .., u_{k-1} x_{k-1}^m) for m < k - ell span the
  // dual code, so r is a codeword iff all k - ell weighted power sums
  // vanish.  O(k^2) scalar multiplies, constructor-only.
  weights_.resize(k_);
  for (std::size_t i = 0; i < k_; ++i) {
    const F16 xi = point(i);
    F16 prod(1);
    for (std::size_t j = 0; j < k_; ++j)
      if (j != i) prod *= xi + point(j);
    weights_[i] = prod.inverse();
  }
  // Lagrange rows over the first ell points: N(z) = prod_{j<ell} (z - x_j)
  // once, then each basis polynomial is one synthetic division
  // N / (z - x_i) scaled by 1 / N'(x_i).  O(ell^2) total, and decode-time
  // interpolation becomes ell slab axpys instead of an O(ell^3) solve.
  lagrange_ = Matrix(ell_, ell_);
  std::vector<F16> big(ell_ + 1, F16(0));
  big[0] = F16(1);
  for (std::size_t j = 0; j < ell_; ++j) {
    const F16 xj = point(j);
    for (std::size_t m = j + 1; m-- > 0;) {
      big[m + 1] += big[m];  // z * big
      big[m] *= xj;          // + x_j * big  (char 2: + == -)
    }
  }
  std::vector<F16> quot(ell_, F16(0));
  for (std::size_t i = 0; i < ell_; ++i) {
    const F16 xi = point(i);
    quot[ell_ - 1] = big[ell_];
    for (std::size_t m = ell_ - 1; m >= 1; --m)
      quot[m - 1] = big[m] + xi * quot[m];
    F16 prod(1);
    for (std::size_t j = 0; j < ell_; ++j)
      if (j != i) prod *= xi + point(j);
    gf::mulSlab(lagrange_.row(i), prod.inverse(), gf::raw(quot.data()), ell_);
  }
}

F16 ReedSolomon::point(std::size_t i) const {
  return F16::alpha(static_cast<std::uint32_t>(i + 1));
}

namespace {

/// Degree of a coefficient vector (index of highest non-zero entry), or
/// SIZE_MAX for the zero polynomial.
std::size_t degreeOf(const std::vector<F16>& p) {
  for (std::size_t i = p.size(); i-- > 0;)
    if (!p[i].isZero()) return i;
  return static_cast<std::size_t>(-1);
}

/// Berlekamp-Massey over S[0..n): shortest LFSR (error locator)
/// Lambda(z) = 1 + c_1 z + .. + c_L z^L with
/// S_j = sum_{i=1..L} c_i S_{j-i} for L <= j < n.  Returns (Lambda, L).
std::pair<std::vector<F16>, std::size_t> berlekampMassey(const F16* S,
                                                         std::size_t n) {
  std::vector<F16> C{F16(1)};  // current connection polynomial
  std::vector<F16> B{F16(1)};  // copy from before the last length change
  std::size_t L = 0;
  std::size_t m = 1;  // steps since the last length change
  F16 b(1);           // discrepancy at the last length change
  for (std::size_t j = 0; j < n; ++j) {
    F16 delta = S[j];
    for (std::size_t i = 1; i <= L && i < C.size(); ++i)
      delta += C[i] * S[j - i];
    if (delta.isZero()) {
      ++m;
      continue;
    }
    const F16 coef = delta * b.inverse();
    if (2 * L <= j) {
      std::vector<F16> T = C;
      if (C.size() < B.size() + m) C.resize(B.size() + m, F16(0));
      for (std::size_t i = 0; i < B.size(); ++i) C[i + m] += coef * B[i];
      L = j + 1 - L;
      B = std::move(T);
      b = delta;
      m = 1;
    } else {
      if (C.size() < B.size() + m) C.resize(B.size() + m, F16(0));
      for (std::size_t i = 0; i < B.size(); ++i) C[i + m] += coef * B[i];
      ++m;
    }
  }
  return {std::move(C), L};
}

}  // namespace

std::vector<F16> ReedSolomon::encode(const std::vector<F16>& message) const {
  assert(message.size() == ell_);
  std::vector<F16> out(k_, F16(0));
  for (std::size_t j = 0; j < ell_; ++j) {
    if (message[j].isZero()) continue;
    gf::addScaledSlab(gf::raw(out.data()), message[j], eval_.row(j), k_);
  }
  return out;
}

std::vector<F16> ReedSolomon::interpolateFirstEll(const F16* word) const {
  std::vector<F16> coeffs(ell_, F16(0));
  for (std::size_t i = 0; i < ell_; ++i) {
    if (word[i].isZero()) continue;
    gf::addScaledSlab(gf::raw(coeffs.data()), word[i], lagrange_.row(i),
                      ell_);
  }
  return coeffs;
}

std::optional<std::vector<F16>> ReedSolomon::decode(
    const std::vector<F16>& received) const {
  assert(received.size() == k_);
  const std::size_t nsynd = k_ - ell_;
  // Rate-1 code: no checks, every word is (trivially within radius 0 of) a
  // codeword.
  if (nsynd == 0) return interpolateFirstEll(received.data());

  // Stage 1 -- syndromes: S_j = sum_i r_i u_i x_i^j for j < k - ell, i.e.
  // one slab axpy of the cached power row per non-zero weighted symbol.
  std::vector<F16> synd(nsynd, F16(0));
  for (std::size_t i = 0; i < k_; ++i) {
    const F16 w = received[i] * weights_[i];
    if (!w.isZero())
      gf::addScaledSlab(gf::raw(synd.data()), w, pow_.row(i), nsynd);
  }
  bool clean = true;
  for (const F16 s : synd)
    if (!s.isZero()) {
      clean = false;
      break;
    }
  // Zero-syndrome short-circuit: all k - ell dual checks vanish, so the
  // word *is* a codeword -- interpolate and return, no re-encode verify.
  // This is the fault-free campaign path.
  if (clean) return interpolateFirstEll(received.data());

  const std::size_t t = maxErrors();
  if (t == 0) return std::nullopt;  // non-codeword, no correction capacity

  // Stage 2 -- Berlekamp-Massey on the first 2t syndromes: the shortest
  // LFSR generating them is the error locator
  // Lambda(z) = prod_e (1 - X_e z) when at most t errors occurred.
  auto [lambda, L] = berlekampMassey(synd.data(), 2 * t);
  if (L == 0 || L > t || degreeOf(lambda) != L) return std::nullopt;

  // Stage 3 -- Chien search over the cached power rows: x_i locates an
  // error iff Lambda(1/x_i) = 0, i.e. iff the reversed locator
  // z^L Lambda(1/z) vanishes at x_i -- one slab dot of length L+1 per
  // coordinate.  rev has degree exactly L (rev[L] = Lambda(0) = 1), so it
  // cannot have more than L roots; require exactly L inside the support.
  std::vector<F16> rev(L + 1);
  for (std::size_t a = 0; a <= L; ++a) rev[a] = lambda[L - a];
  std::vector<std::size_t> errorAt;
  errorAt.reserve(L);
  for (std::size_t i = 0; i < k_; ++i)
    if (gf::dotSlab(gf::raw(rev.data()), pow_.row(i), L + 1).isZero())
      errorAt.push_back(i);
  if (errorAt.size() != L) return std::nullopt;

  // Stage 4 -- Forney: Omega(z) = Lambda(z) S(z) mod z^{2t} has degree
  // < L, and the weighted error value at root X is
  // E = X * Omega(1/X) / Lambda'(1/X) (char-2 sign absorbed), where E is
  // e * u at that coordinate.  Lambda' keeps the odd coefficients only, a
  // polynomial in z^2.
  std::vector<F16> omega(L);
  for (std::size_t mdeg = 0; mdeg < L; ++mdeg) {
    F16 s(0);
    for (std::size_t a = 0; a <= mdeg && a <= L; ++a)
      s += lambda[a] * synd[mdeg - a];
    omega[mdeg] = s;
  }
  std::vector<F16> corrected(received);
  for (const std::size_t pos : errorAt) {
    const F16 x = point(pos);
    const F16 xi = x.inverse();
    F16 num(0);
    for (std::size_t a = L; a-- > 0;) num = num * xi + omega[a];
    const F16 xi2 = xi * xi;
    F16 den(0);
    for (std::size_t a = (L % 2 == 0) ? L - 1 : L;; a -= 2) {
      den = den * xi2 + lambda[a];
      if (a <= 1) break;
    }
    if (den.isZero()) return std::nullopt;
    const F16 weighted = x * num * den.inverse();  // e * u at pos
    // Push the correction back through the syndromes (stage 5 checks them)
    // and onto the word itself.
    if (!weighted.isZero())
      gf::addScaledSlab(gf::raw(synd.data()), weighted, pow_.row(pos), nsynd);
    corrected[pos] += weighted * weights_[pos].inverse();
  }

  // Stage 5 -- re-validation without re-encoding: the corrected word
  // differs from `received` in at most L <= t coordinates, so it is a
  // valid unique decoding iff it is a codeword, i.e. iff all k - ell
  // updated syndromes vanish.  This is what rejects words beyond the
  // radius that BM/Chien/Forney happened to limp through.
  for (const F16 s : synd)
    if (!s.isZero()) return std::nullopt;
  return interpolateFirstEll(corrected.data());
}

std::size_t ReedSolomon::hamming(const std::vector<F16>& a,
                                 const std::vector<F16>& b) {
  assert(a.size() == b.size());
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) ++d;
  return d;
}

}  // namespace mobile::coding
