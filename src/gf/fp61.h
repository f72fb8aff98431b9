// Arithmetic in the Mersenne prime field F_p, p = 2^61 - 1.
//
// Used by the bounded-independence hash families (Lemma 1.11) and the sketch
// fingerprints (Theorem 3.4): polynomial hashing over a prime field gives the
// exact c-wise-independence guarantees the paper's constructions consume.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mobile::gf {

inline constexpr std::uint64_t kP61 = (1ULL << 61) - 1;

/// Reduces a 64-bit value mod 2^61 - 1.
[[nodiscard]] constexpr std::uint64_t reduce61(std::uint64_t x) {
  x = (x & kP61) + (x >> 61);
  if (x >= kP61) x -= kP61;
  return x;
}

[[nodiscard]] constexpr std::uint64_t addP61(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a + b;  // < 2^62, safe
  return reduce61(s);
}

[[nodiscard]] constexpr std::uint64_t subP61(std::uint64_t a, std::uint64_t b) {
  return addP61(a, kP61 - (b % kP61));
}

[[nodiscard]] inline std::uint64_t mulP61(std::uint64_t a, std::uint64_t b) {
  const __uint128_t prod = static_cast<__uint128_t>(a) * b;
  const std::uint64_t lo = static_cast<std::uint64_t>(prod) & kP61;
  const std::uint64_t hi = static_cast<std::uint64_t>(prod >> 61);
  return reduce61(lo + hi);
}

[[nodiscard]] inline std::uint64_t powP61(std::uint64_t base, std::uint64_t e) {
  std::uint64_t r = 1;
  base %= kP61;
  while (e > 0) {
    if (e & 1) r = mulP61(r, base);
    base = mulP61(base, base);
    e >>= 1;
  }
  return r;
}

[[nodiscard]] inline std::uint64_t invP61(std::uint64_t a) {
  return powP61(a, kP61 - 2);  // Fermat; a != 0
}

/// Batch width of the interleaved pow kernel below (fits on the stack).
inline constexpr std::size_t kPowBatch = 16;

/// out[i] = bases[i]^e for a *shared* exponent -- the batched form of the
/// sparse-recovery fingerprint update sum f * z^key, where one key hits one
/// cell per hash row and each cell carries its own point z.
/// A lone powP61 is a serial chain of ~61 dependent squarings; running the
/// chains of a whole row batch in lockstep (square step across all
/// bases, then multiply step across all bases) fills the multiplier
/// pipeline instead.  Exact same mulP61 algebra, so results are
/// bit-identical to per-base powP61 calls.
inline void powP61Many(const std::uint64_t* bases, std::size_t n,
                       std::uint64_t e, std::uint64_t* out) {
  for (std::size_t lo = 0; lo < n; lo += kPowBatch) {
    const std::size_t m = n - lo < kPowBatch ? n - lo : kPowBatch;
    std::uint64_t sq[kPowBatch];
    for (std::size_t i = 0; i < m; ++i) {
      sq[i] = bases[lo + i] % kP61;
      out[lo + i] = 1;
    }
    for (std::uint64_t rem = e; rem > 0;) {
      if (rem & 1)
        for (std::size_t i = 0; i < m; ++i)
          out[lo + i] = mulP61(out[lo + i], sq[i]);
      rem >>= 1;
      if (rem == 0) break;
      for (std::size_t i = 0; i < m; ++i) sq[i] = mulP61(sq[i], sq[i]);
    }
  }
}

}  // namespace mobile::gf
