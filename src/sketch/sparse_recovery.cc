#include "sketch/sparse_recovery.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "gf/fp61.h"
#include "util/rng.h"

namespace mobile::sketch {

SparseRecovery::SparseRecovery(std::uint64_t seed, std::size_t sparsity,
                               std::size_t rows)
    : seed_(seed),
      rows_(rows),
      buckets_(2 * std::max<std::size_t>(sparsity, 1)),
      scratch_(rows) {
  rowA_.resize(rows_);
  rowB_.resize(rows_);
  cells_.resize(rows_ * buckets_);
  reseed(seed);
}

void SparseRecovery::reseed(std::uint64_t seed) {
  // Same derivation chain as construction: row hashes, then one
  // fingerprint point per cell; storage is reused.
  seed_ = seed;
  std::uint64_t st = seed;
  for (std::size_t r = 0; r < rows_; ++r) {
    rowA_[r] = util::splitmix64(st) % gf::kP61;
    if (rowA_[r] == 0) rowA_[r] = 1;
    rowB_[r] = util::splitmix64(st) % gf::kP61;
  }
  for (auto& c : cells_) c = OneSparseCell(util::splitmix64(st));
}

std::size_t SparseRecovery::bucketOf(std::uint64_t key, std::size_t row) const {
  const std::uint64_t h =
      gf::addP61(gf::mulP61(rowA_[row], key % gf::kP61), rowB_[row]);
  return static_cast<std::size_t>(h % buckets_);
}

void SparseRecovery::update(std::uint64_t key, std::int64_t freq) {
  assert(key < gf::kP61);
  updateCells(cells_, key, freq, scratch_);
}

void SparseRecovery::updateCells(std::vector<OneSparseCell>& cells,
                                 std::uint64_t key, std::int64_t freq,
                                 PowScratch& scratch) const {
  // One cell per hash row, each with its own fingerprint point: gather the
  // bases, raise them to the shared exponent in lockstep (gf::powP61Many),
  // then apply -- bit-identical to per-cell powP61, minus the serial
  // squaring chains.
  for (std::size_t r = 0; r < rows_; ++r) {
    scratch.idx[r] = r * buckets_ + bucketOf(key, r);
    scratch.base[r] = cells[scratch.idx[r]].zPoint();
  }
  gf::powP61Many(scratch.base.data(), rows_, key, scratch.pow.data());
  for (std::size_t r = 0; r < rows_; ++r)
    cells[scratch.idx[r]].updateWithPow(key, freq, scratch.pow[r]);
}

void SparseRecovery::merge(const SparseRecovery& other) {
  assert(seed_ == other.seed_);
  mergeCells(cells_, other.cells_);
}

std::optional<std::vector<Recovered>> SparseRecovery::recoverAll() const {
  std::vector<OneSparseCell> work = cells_;
  PowScratch scratch(rows_);
  std::map<std::uint64_t, std::int64_t> found;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < work.size(); ++i) {
      Recovered r;
      if (!work[i].recover(r)) continue;
      // Peel: remove this key's mass from every row (batched like update).
      found[r.key] += r.frequency;
      updateCells(work, r.key, -r.frequency, scratch);
      progress = true;
    }
  }
  for (const auto& c : work)
    if (!c.empty()) return std::nullopt;  // residue: support exceeded budget
  std::vector<Recovered> out;
  out.reserve(found.size());
  for (const auto& [k, f] : found)
    if (f != 0) out.push_back({k, f});
  return out;
}

}  // namespace mobile::sketch
