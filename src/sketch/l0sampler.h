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

  /// Number of 64-bit words in the serialized form.
  [[nodiscard]] std::size_t serializedWords() const {
    return cells_.size() * OneSparseCell::kWireWords;
  }
  /// serializedWords() of a sampler of these dimensions.
  [[nodiscard]] static std::size_t serializedWords(unsigned universeBits,
                                                   unsigned levels) {
    return (levels == 0 ? universeBits + 1 : levels) * kBucketsPerLevel *
           OneSparseCell::kWireWords;
  }
  /// The wire form, zero-alloc once `out` has the capacity: appendTo
  /// appends serializedWords() words to `out`, loadWords overwrites this
  /// sampler's cells from them; the receiver must have been constructed
  /// (or reseeded) with the sender's seed and dimensions.
  void appendTo(std::vector<std::uint64_t>& out) const {
    out.reserve(out.size() + serializedWords());
    appendCells(cells_, out);
  }
  void loadWords(const std::uint64_t* words, std::size_t n) {
    loadCells(cells_, words, n);
  }
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

/// t independent samplers over one stream, sampler h seeded by
/// memberSeed(seed, h): the per-tree sketch of the byzantine compiler's l0
/// correction (Section 3.2).  It offers SparseRecovery's reseed / update /
/// merge / wire interface, so one tree stage carries either; the wire form
/// is the samplers' in order.
class L0Bundle {
 public:
  struct Shape {
    std::size_t count = 0;  // t
    unsigned levels = 0;    // per sampler, over a 60-bit universe
    bool operator==(const Shape&) const = default;
  };

  L0Bundle(std::uint64_t seed, Shape shape);

  void reseed(std::uint64_t seed);
  void update(std::uint64_t key, std::int64_t freq) {
    for (auto& s : samplers_) s.update(key, freq);
  }
  void merge(const L0Bundle& other);

  [[nodiscard]] std::size_t serializedWords() const {
    return samplers_.size() * samplers_[0].serializedWords();
  }
  /// serializedWords() of a bundle of this shape.
  [[nodiscard]] static std::size_t serializedWords(const Shape& shape) {
    return shape.count *
           L0Sampler::serializedWords(kUniverseBits, shape.levels);
  }
  void appendTo(std::vector<std::uint64_t>& out) const;
  void loadWords(const std::uint64_t* words, std::size_t n);

  [[nodiscard]] const std::vector<L0Sampler>& samplers() const {
    return samplers_;
  }

 private:
  [[nodiscard]] static std::uint64_t memberSeed(std::uint64_t seed,
                                                std::size_t h);

  static constexpr unsigned kUniverseBits = 60;

  std::vector<L0Sampler> samplers_;
};

}  // namespace mobile::sketch
