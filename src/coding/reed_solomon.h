// Reed-Solomon [ell, k, delta]_q codes over GF(2^16) (Theorem 1.8).
//
// Encoding: the message (alpha_1..alpha_ell) defines the degree-(ell-1)
// polynomial P with those coefficients; the codeword is P evaluated at k
// distinct non-zero points.  Relative distance delta = (k - ell + 1) / k.
//
// Decoding corrects any e <= floor((k - ell) / 2) symbol errors -- the
// "closest codeword" computation used by the safe broadcast procedure
// (Lemma 3.6), where each of the k tree-delivered shares may have been
// corrupted by the byzantine adversary, but a majority-by-distance argument
// guarantees the honest codeword is the unique one within half the
// distance.  decode() is a syndrome decoder.  Because the evaluation points
// make this a generalized RS code, a word is a codeword iff its k - ell
// weighted power sums (syndromes) S_j = sum_i r_i u_i x_i^j all vanish,
// where u_i is the dual-code column multiplier cached by the constructor.
// Zero syndromes short-circuit straight to interpolation (the fault-free
// campaign path: no re-encode, no verify).  Otherwise Berlekamp-Massey fits
// the error-locator polynomial in O(f^2), a Chien sweep over the cached
// power rows finds the error positions (one slab dot per coordinate),
// Forney's formula yields the error values, and the patched word is
// re-validated by pushing the corrections back through the same syndromes
// (f slab axpys -- no re-encode) before the message is read off with the
// cached Lagrange rows.  tests/rs_oracle.h keeps the Berlekamp-Welch
// decoder this replaced; the differential test shows both accept exactly
// the words within the unique decoding radius of some codeword and return
// that codeword's message.
//
// Hot-path layout: the constructor caches the evaluation matrix (one
// contiguous row of x_i^j per coefficient j), the per-point power rows
// shared by the syndrome accumulation and the Chien search, the dual
// multipliers u_i, and the Lagrange interpolation rows of
// the first ell points, so every decode stage runs as slab kernels over
// contiguous rows (see gf/slab.h) instead of per-cell log/antilog
// multiplies.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "gf/gf16.h"
#include "gf/slab.h"

namespace mobile::coding {

class ReedSolomon {
 public:
  /// Code with message length `ell` and block length `k`; requires
  /// ell <= k < 2^16.
  ReedSolomon(std::size_t ell, std::size_t k);

  [[nodiscard]] std::size_t messageLength() const { return ell_; }
  [[nodiscard]] std::size_t blockLength() const { return k_; }
  [[nodiscard]] std::size_t maxErrors() const { return (k_ - ell_) / 2; }
  [[nodiscard]] double relativeDistance() const {
    return static_cast<double>(k_ - ell_ + 1) / static_cast<double>(k_);
  }

  /// Encodes `message` (size ell) into a codeword (size k): one slab axpy
  /// of a cached evaluation row per non-zero coefficient.
  [[nodiscard]] std::vector<gf::F16> encode(
      const std::vector<gf::F16>& message) const;

  /// Decodes a received word (size k) with at most maxErrors() corrupted
  /// symbols.  Returns std::nullopt if no codeword lies within the unique
  /// decoding radius.  Syndromes -> Berlekamp-Massey locator -> Chien
  /// search -> Forney values -> syndrome re-validation (see file comment).
  [[nodiscard]] std::optional<std::vector<gf::F16>> decode(
      const std::vector<gf::F16>& received) const;

  /// Hamming distance between two equal-length symbol vectors.
  [[nodiscard]] static std::size_t hamming(const std::vector<gf::F16>& a,
                                           const std::vector<gf::F16>& b);

 private:
  /// Evaluation point for coordinate i.
  [[nodiscard]] gf::F16 point(std::size_t i) const;

  /// Coefficients of the unique degree-< ell polynomial through
  /// (x_0, word[0]) .. (x_{ell-1}, word[ell-1]): ell slab axpys over the
  /// cached Lagrange rows.
  [[nodiscard]] std::vector<gf::F16> interpolateFirstEll(
      const gf::F16* word) const;

  std::size_t ell_;
  std::size_t k_;
  /// eval_.row(j)[i] = x_i^j for j < ell: the encode axpy rows.
  gf::Matrix eval_;
  /// pow_.row(i)[j] = x_i^j for j < max(k - ell, maxErrors() + 1): the
  /// contiguous power prefixes feeding syndrome accumulation (exponents
  /// < k - ell) and the Chien dots (< maxErrors() + 1).
  gf::Matrix pow_;
  /// weights_[i] = 1 / prod_{j != i} (x_i - x_j): the dual-code column
  /// multipliers making {x_i^j}-weighted sums parity checks.
  std::vector<gf::F16> weights_;
  /// lagrange_.row(i) = coefficients of the Lagrange basis polynomial of
  /// x_i over the first ell points (degree < ell).
  gf::Matrix lagrange_;
};

}  // namespace mobile::coding
