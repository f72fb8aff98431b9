// The Berlekamp-Welch Reed-Solomon decoder, preserved for differential
// testing.
//
// This is the decoder coding::ReedSolomon ran before the syndrome pipeline:
// dense O((ell+f)^3) elimination over the error-locator system, tried for
// e = maxErrors() .. 0 assumed errors.  tests/test_reed_solomon.cc runs it
// against ReedSolomon::decode() and asserts both accept exactly the same
// words and return the same message on accept.  Header-only test oracle,
// built on the public ReedSolomon API: the evaluation point of coordinate i
// is alpha^(i+1), and codewords come from encode().
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "coding/reed_solomon.h"
#include "gf/gf16.h"
#include "gf/slab.h"

namespace mobile::coding {

namespace rs_oracle {

using gf::F16;

/// Degree of a coefficient vector (index of highest non-zero entry), or
/// SIZE_MAX for the zero polynomial.
inline std::size_t degreeOf(const std::vector<F16>& p) {
  for (std::size_t i = p.size(); i-- > 0;)
    if (!p[i].isZero()) return i;
  return static_cast<std::size_t>(-1);
}

/// Exact polynomial division num / den (low-to-high coefficients).
/// Returns empty when the remainder is non-zero.
inline std::vector<F16> divideExact(std::vector<F16> num,
                                    const std::vector<F16>& den) {
  const std::size_t dDeg = degreeOf(den);
  assert(dDeg != static_cast<std::size_t>(-1));
  const std::size_t nDeg = degreeOf(num);
  if (nDeg == static_cast<std::size_t>(-1)) return {F16(0)};  // 0 / den = 0
  if (nDeg < dDeg) return {};
  std::vector<F16> quot(nDeg - dDeg + 1, F16(0));
  const F16 leadInv = den[dDeg].inverse();
  for (std::size_t i = nDeg + 1; i-- > dDeg;) {
    const F16 factor = num[i] * leadInv;
    quot[i - dDeg] = factor;
    if (!factor.isZero())
      gf::addScaledSlab(num.data() + (i - dDeg), factor, den.data(),
                        dDeg + 1);
  }
  for (const F16 c : num)
    if (!c.isZero()) return {};
  return quot;
}

/// powers.row(i)[j] = x_i^j for j < ell + maxErrors(), x_i = alpha^(i+1):
/// every exponent the Berlekamp-Welch rows read.
inline gf::Matrix powerRows(const ReedSolomon& rs) {
  const std::size_t cols = rs.messageLength() + rs.maxErrors();
  gf::Matrix powers(rs.blockLength(), cols);
  for (std::size_t i = 0; i < rs.blockLength(); ++i) {
    const F16 x = F16::alpha(static_cast<std::uint32_t>(i + 1));
    F16 p(1);
    for (std::size_t j = 0; j < cols; ++j) {
      powers.set(i, j, p);
      p = p * x;
    }
  }
  return powers;
}

/// Berlekamp-Welch attempt assuming exactly <= e errors; returns the
/// message polynomial coefficients on success.
inline std::optional<std::vector<F16>> tryDecode(
    const ReedSolomon& rs, const gf::Matrix& pows,
    const std::vector<F16>& received, std::size_t e) {
  // Unknowns: Q (degree < ell + e) and E_low where the error locator is
  // E(x) = x^e + E_low(x), deg E_low < e.  Equations, one per coordinate i:
  //   Q(x_i) + y_i * E_low(x_i) = y_i * x_i^e      (char-2 field: + == -)
  // Row i assembles from the power prefix of x_i: a straight copy for the
  // Q block, one scaled slab for the E_low block.
  const std::size_t ell = rs.messageLength();
  const std::size_t k = rs.blockLength();
  const std::size_t nq = ell + e;
  const std::size_t unknowns = nq + e;
  assert(e <= rs.maxErrors());
  gf::Matrix aug(k, unknowns + 1);
  for (std::size_t i = 0; i < k; ++i) {
    const F16 y = received[i];
    const std::uint16_t* powers = pows.row(i);
    std::uint16_t* row = aug.row(i);
    for (std::size_t j = 0; j < nq; ++j) row[j] = powers[j];
    gf::mulSlab(row + nq, y, powers, e);
    row[unknowns] = (y * F16(powers[e])).value();  // y * x_i^e
  }
  std::vector<F16> sol = gf::solveLinearAnyInPlace(aug);
  if (sol.empty() && unknowns > 0) return std::nullopt;

  std::vector<F16> q(sol.begin(),
                     sol.begin() + static_cast<std::ptrdiff_t>(nq));
  std::vector<F16> ePoly(sol.begin() + static_cast<std::ptrdiff_t>(nq),
                         sol.end());
  ePoly.push_back(F16(1));  // monic leading term x^e

  std::vector<F16> pPoly = divideExact(q, ePoly);
  if (pPoly.empty()) return std::nullopt;
  if (degreeOf(pPoly) != static_cast<std::size_t>(-1) &&
      degreeOf(pPoly) >= ell)
    return std::nullopt;
  pPoly.resize(ell, F16(0));

  // Verify the decoded codeword lies within the unique decoding radius.
  if (ReedSolomon::hamming(rs.encode(pPoly), received) > rs.maxErrors())
    return std::nullopt;
  return pPoly;
}

}  // namespace rs_oracle

/// Decodes `received` (size k) by Berlekamp-Welch: the message of the
/// codeword within the unique decoding radius, or std::nullopt.
inline std::optional<std::vector<gf::F16>> decodeBW(
    const ReedSolomon& rs, const std::vector<gf::F16>& received) {
  using gf::F16;
  const std::size_t ell = rs.messageLength();
  assert(received.size() == rs.blockLength());
  const gf::Matrix powers = rs_oracle::powerRows(rs);
  // Fast path: interpolate through the first ell coordinates; if that
  // polynomial matches everywhere the word is already a codeword.
  {
    gf::Matrix aug(ell, ell + 1);
    for (std::size_t i = 0; i < ell; ++i) {
      std::uint16_t* row = aug.row(i);
      const std::uint16_t* p = powers.row(i);
      for (std::size_t j = 0; j < ell; ++j) row[j] = p[j];
      aug.set(i, ell, received[i]);
    }
    std::vector<F16> cand = gf::solveLinearInPlace(aug);
    if (!cand.empty() && rs.encode(cand) == received) return cand;
  }
  for (std::size_t e = rs.maxErrors(); e > 0; --e) {
    auto res = rs_oracle::tryDecode(rs, powers, received, e);
    if (res.has_value()) return res;
  }
  return rs_oracle::tryDecode(rs, powers, received, 0);
}

}  // namespace mobile::coding
