// The Theorem 2.1 bit extractor as a Vandermonde matrix, preserved for
// differential testing.
//
// The Bit-Extraction problem / (t,k)-resilient functions (Chor, Goldreich,
// Hastad, Friedman, Rudich, Smolensky 1985): given n field elements of which
// the adversary knows at most t (the other n - t being uniform and
// unknown), the Vandermonde map
//     y_j = sum_i M_ij x_i,   M an n x (n-t) Vandermonde matrix,
// produces n - t field elements that are perfectly uniform and independent
// of the adversary's view.  compile::KeyPool computes the same map as
// power sums over precomputed point tables; this header-only oracle
// builds the matrix and applies it symbol by symbol, so
// tests/test_keypool.cc can check the pool against it word for word and
// tests/test_bitextract.cc can check the theorem's resilience claim.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "gf/gf16.h"
#include "gf/vandermonde.h"

namespace mobile::gf::bit_extract_oracle {

class BitExtractor {
 public:
  /// Extractor for n input symbols of which at most t are adversary-known.
  /// Produces m = n - t output symbols.
  BitExtractor(std::size_t n, std::size_t t) : n_(n), t_(t), m_(n, n - t) {
    assert(t < n);
    assert(n < kGroupOrder && "Theorem 2.1 requires n <= 2^k - 1");
  }

  [[nodiscard]] std::size_t inputs() const { return n_; }
  [[nodiscard]] std::size_t outputs() const { return n_ - t_; }

  /// Applies the extraction map.  x.size() must equal inputs().
  [[nodiscard]] std::vector<F16> extract(const std::vector<F16>& x) const {
    assert(x.size() == n_);
    return m_.applyTransposed(x);
  }

  /// The map run independently on each 16-bit lane of 64-bit words: the
  /// reference for compile::KeyPool::extract.
  [[nodiscard]] std::vector<std::uint64_t> extractLanes(
      const std::vector<std::uint64_t>& words) const {
    std::vector<std::uint64_t> out(outputs(), 0);
    for (int lane = 0; lane < 64; lane += 16) {
      std::vector<F16> x;
      x.reserve(words.size());
      for (const std::uint64_t w : words)
        x.push_back(F16(static_cast<std::uint16_t>(w >> lane)));
      const std::vector<F16> y = extract(x);
      for (std::size_t j = 0; j < out.size(); ++j)
        out[j] |= std::uint64_t{y[j].value()} << lane;
    }
    return out;
  }

 private:
  std::size_t n_;
  std::size_t t_;
  Vandermonde m_;
};

}  // namespace mobile::gf::bit_extract_oracle
