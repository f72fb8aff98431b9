// l0-sampling sketches (Theorem 3.4; Cormode-Firmani "unifying framework").
//
// An L0Sampler summarizes a turnstile multi-set and supports:
//   * update(key, freq)       -- stream ingestion,
//   * merge(other)            -- mergeability (same randomness required),
//   * query()                 -- returns a (near-)uniform element of the
//                                non-zero-frequency support, w.h.p.
//
// Construction: geometric level sampling.  Level l admits key x iff the
// level hash h(x) has l leading sampled bits; each level keeps a small
// battery of 1-sparse cells indexed by a second per-level hash.  The query
// scans levels until a battery is recoverable.  All randomness derives from
// an explicit 64-bit seed R so that distinct trees can run *independent*
// samplers over the same stream, exactly as Procedure L0(T, S_{i,j}) of the
// paper requires, and samplers sharing R are mergeable.
//
// Keys must be < 2^61 - 1 (see onesparse.h).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sketch/onesparse.h"

namespace mobile::sketch {

class L0Sampler {
 public:
  /// `seed` = shared randomness R; `universeBits` bounds key size;
  /// `levels` caps the geometric level count (0 = universeBits + 1).  The
  /// paper's sketches are ~O(log^4 n) bits; shrinking `levels` to
  /// ~log2(support bound) + slack keeps transported sketches small while
  /// preserving the sampling guarantee for bounded supports.
  explicit L0Sampler(std::uint64_t seed, unsigned universeBits = 60,
                     unsigned levels = 0);

  void update(std::uint64_t key, std::int64_t freq);
  void merge(const L0Sampler& other);

  /// Samples an element of the current support; nullopt if the sketch
  /// cannot recover one (empty support or unlucky hashing).
  [[nodiscard]] std::optional<Recovered> query() const;

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Number of 64-bit words in the serialized form.
  [[nodiscard]] std::size_t serializedWords() const;
  /// The same, for a sampler constructed with these dimensions.
  [[nodiscard]] static std::size_t serializedWords(unsigned universeBits,
                                                   unsigned levels) {
    return (levels == 0 ? universeBits + 1 : levels) * kBucketsPerLevel * 3;
  }
  [[nodiscard]] std::vector<std::uint64_t> serialize() const;
  static L0Sampler deserialize(std::uint64_t seed, unsigned universeBits,
                               unsigned levels,
                               const std::vector<std::uint64_t>& words);

  // Scratch-reuse forms (the per-round zero-alloc path): serializeInto
  // overwrites `out` (capacity is retained across rounds), loadWords
  // overwrites this sampler's cells from serializedWords() words -- the
  // receiver must have been constructed with the same (seed, universeBits,
  // levels), which the seed-derived fingerprint points implicitly are --
  // and clear() returns to the empty stream without touching randomness.
  void serializeInto(std::vector<std::uint64_t>& out) const;
  void loadWords(const std::uint64_t* words, std::size_t n);
  void clear();
  /// Re-derive all randomness from a new seed and clear the cells, without
  /// reallocating -- turns one sampler object into a per-(tree, iteration)
  /// scratch slot.  Equivalent to *this = L0Sampler(seed, ..same dims..).
  void reseed(std::uint64_t seed);

 private:
  [[nodiscard]] unsigned levelOf(std::uint64_t key) const;
  [[nodiscard]] std::size_t bucketOf(std::uint64_t key, unsigned level) const;

  static constexpr std::size_t kBucketsPerLevel = 3;

  std::uint64_t seed_;
  unsigned levels_;
  std::uint64_t hashA_, hashB_;   // level hash (pairwise independent)
  std::uint64_t bucketA_, bucketB_;  // bucket hash
  std::vector<OneSparseCell> cells_;  // levels_ x kBucketsPerLevel
  PowScratch scratch_;                // batched-update reuse (<= levels_)
};

}  // namespace mobile::sketch
