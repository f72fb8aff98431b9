// 1-sparse recovery cell: the building block of the l0-sampling and sparse
// recovery sketches (Theorem 3.4, Cormode-Firmani framework).
//
// A cell summarizes a turnstile stream of (key, +/-freq) updates with three
// registers:  count = sum f_i,  keySum = sum f_i * key_i (mod p),  and
// fingerprint = sum f_i * z^{key_i} (mod p) for a random point z.  If the
// surviving multiset is exactly {(key, c)} then key = keySum / count and the
// fingerprint check passes; any other multiset fails the check with
// probability >= 1 - U/p over z.  Keys must be < p = 2^61 - 1.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "gf/fp61.h"

namespace mobile::sketch {

struct Recovered {
  std::uint64_t key = 0;
  std::int64_t frequency = 0;
};

class OneSparseCell {
 public:
  OneSparseCell() = default;
  explicit OneSparseCell(std::uint64_t z) : z_(z % (gf::kP61 - 2) + 2) {}

  void update(std::uint64_t key, std::int64_t freq) {
    updateWithPow(key, freq, gf::powP61(z_, key));
  }

  /// Update with z^key already computed -- the batched ingestion path: one
  /// key hits one cell per hash row or sampling level, and the sketch
  /// computes the whole batch of per-cell powers in lockstep.
  void updateWithPow(std::uint64_t key, std::int64_t freq, std::uint64_t zk) {
    count_ += freq;
    const std::uint64_t k = key % gf::kP61;
    if (freq >= 0) {
      keySum_ = gf::addP61(
          keySum_, gf::mulP61(static_cast<std::uint64_t>(freq) % gf::kP61, k));
      fp_ = gf::addP61(
          fp_,
          gf::mulP61(static_cast<std::uint64_t>(freq) % gf::kP61, zk));
    } else {
      const std::uint64_t f = static_cast<std::uint64_t>(-freq) % gf::kP61;
      keySum_ = gf::subP61(keySum_, gf::mulP61(f, k));
      fp_ = gf::subP61(fp_, gf::mulP61(f, zk));
    }
  }

  /// The cell's fingerprint point z (batched pow callers need the base).
  [[nodiscard]] std::uint64_t zPoint() const { return z_; }

  void merge(const OneSparseCell& other) {
    // Two's complement wrap: a forged hop may carry any count.
    count_ = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(count_) +
        static_cast<std::uint64_t>(other.count_));
    keySum_ = gf::addP61(keySum_, other.keySum_);
    fp_ = gf::addP61(fp_, other.fp_);
  }

  [[nodiscard]] bool empty() const {
    return count_ == 0 && keySum_ == 0 && fp_ == 0;
  }

  /// Attempts 1-sparse recovery.  Returns true and fills `out` when the cell
  /// provably (w.h.p.) contains exactly one distinct key.
  [[nodiscard]] bool recover(Recovered& out) const {
    if (count_ == 0) return false;
    const bool neg = count_ < 0;
    const std::uint64_t mag =
        static_cast<std::uint64_t>(neg ? -count_ : count_) % gf::kP61;
    if (mag == 0) return false;
    // candidate key = keySum / count  (sign-adjusted in F_p).
    std::uint64_t sum = keySum_;
    if (neg) sum = gf::subP61(0, sum);
    const std::uint64_t key = gf::mulP61(sum, gf::invP61(mag));
    // Verify the fingerprint.
    std::uint64_t expect = gf::mulP61(mag, gf::powP61(z_, key));
    if (neg) expect = gf::subP61(0, expect);
    if (expect != fp_) return false;
    out.key = key;
    out.frequency = count_;
    return true;
  }

  [[nodiscard]] std::int64_t count() const { return count_; }

  /// Wire form: the three accumulators.  z derives from the sketch's seed,
  /// so a receiver built with the same randomness already holds it.
  static constexpr std::size_t kWireWords = 3;
  void appendTo(std::vector<std::uint64_t>& out) const {
    out.push_back(static_cast<std::uint64_t>(count_));
    out.push_back(keySum_);
    out.push_back(fp_);
  }
  /// In-place deserialization of kWireWords words, keeping z.
  void loadWords(const std::uint64_t* w) {
    count_ = static_cast<std::int64_t>(w[0]);
    keySum_ = w[1];
    fp_ = w[2];
  }

 private:
  std::int64_t count_ = 0;
  std::uint64_t keySum_ = 0;
  std::uint64_t fp_ = 0;
  std::uint64_t z_ = 2;
};

// The wire form and merge of a sketch's cell array, shared by every sketch
// built from OneSparseCells: kWireWords words per cell, in cell order.  A
// sketch merges or loads only cells of a sketch with its own randomness.

inline void appendCells(std::span<const OneSparseCell> cells,
                        std::vector<std::uint64_t>& out) {
  for (const auto& c : cells) c.appendTo(out);
}

inline void loadCells(std::span<OneSparseCell> cells,
                      const std::uint64_t* words, std::size_t n) {
  assert(n == cells.size() * OneSparseCell::kWireWords);
  (void)n;
  for (auto& c : cells) {
    c.loadWords(words);
    words += OneSparseCell::kWireWords;
  }
}

inline void mergeCells(std::span<OneSparseCell> into,
                       std::span<const OneSparseCell> from) {
  assert(into.size() == from.size());
  for (std::size_t i = 0; i < into.size(); ++i) into[i].merge(from[i]);
}

/// mergeCells on the wire form: OneSparseCell::merge's arithmetic on each
/// three-word cell, so `into` stays the words of the merged cells.
inline void mergeWords(std::span<std::uint64_t> into,
                       std::span<const std::uint64_t> from) {
  assert(into.size() == from.size() &&
         into.size() % OneSparseCell::kWireWords == 0);
  for (std::size_t i = 0; i < into.size(); i += OneSparseCell::kWireWords) {
    into[i] += from[i];  // count, two's complement
    into[i + 1] = gf::addP61(into[i + 1], from[i + 1]);
    into[i + 2] = gf::addP61(into[i + 2], from[i + 2]);
  }
}

}  // namespace mobile::sketch
