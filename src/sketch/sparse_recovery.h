// s-sparse recovery sketches (turnstile model, [Cormode-Firmani]).
//
// Recovers *all* elements of a stream whose surviving support has size at
// most s, w.h.p.  Used by the O(DTP + f) variant of the byzantine compiler
// (Section 1.2.2 "Compilation with a Round Overhead of ~O(DTP + f)"): each
// round of the simulated algorithm produces at most 2f mismatches, and a
// (2f)-sparse recovery over the sent/received message stream surfaces all
// of them at the root in one shot.
//
// Construction: `rows` independent hash rows, each scattering keys into
// 2s buckets of 1-sparse cells; decoding peels recoverable cells and
// subtracts their content from every row until fixpoint.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "sketch/onesparse.h"

namespace mobile::sketch {

class SparseRecovery {
 public:
  /// The dimensions a tree stage keys its scratch sketch on.
  struct Shape {
    std::size_t sparsity = 0;
    std::size_t rows = 0;
    bool operator==(const Shape&) const = default;
  };

  SparseRecovery(std::uint64_t seed, std::size_t sparsity,
                 std::size_t rows = 6);
  SparseRecovery(std::uint64_t seed, Shape shape)
      : SparseRecovery(seed, shape.sparsity, shape.rows) {}

  void update(std::uint64_t key, std::int64_t freq);
  void merge(const SparseRecovery& other);

  /// Returns the full surviving support (key, frequency) if the sketch can
  /// peel it completely; nullopt when the support (likely) exceeds the
  /// sparsity budget.
  [[nodiscard]] std::optional<std::vector<Recovered>> recoverAll() const;

  [[nodiscard]] std::size_t serializedWords() const {
    return cells_.size() * OneSparseCell::kWireWords;
  }
  /// serializedWords() of a sketch of this shape.
  [[nodiscard]] static std::size_t serializedWords(const Shape& shape) {
    return shape.rows * 2 * std::max<std::size_t>(shape.sparsity, 1) *
           OneSparseCell::kWireWords;
  }
  // The wire form (see l0sampler.h).
  void appendTo(std::vector<std::uint64_t>& out) const {
    out.reserve(out.size() + serializedWords());
    appendCells(cells_, out);
  }
  void loadWords(const std::uint64_t* words, std::size_t n) {
    loadCells(cells_, words, n);
  }
  /// Re-derive all randomness from a new seed and clear the cells without
  /// reallocating (dimensions stay fixed); see l0sampler.h.
  void reseed(std::uint64_t seed);

 private:
  [[nodiscard]] std::size_t bucketOf(std::uint64_t key, std::size_t row) const;

  /// Applies (key, freq) to the one cell per row of `cells`, with the
  /// per-cell fingerprint powers computed as one gf::powP61Many batch.
  void updateCells(std::vector<OneSparseCell>& cells, std::uint64_t key,
                   std::int64_t freq, PowScratch& scratch) const;

  std::uint64_t seed_;
  std::size_t rows_;
  std::size_t buckets_;
  std::vector<std::uint64_t> rowA_, rowB_;
  std::vector<OneSparseCell> cells_;  // rows_ x buckets_
  PowScratch scratch_;                // update() reuse; recoverAll has its own
};

}  // namespace mobile::sketch
