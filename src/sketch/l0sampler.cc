#include "sketch/l0sampler.h"

#include <cassert>

#include "gf/fp61.h"
#include "util/rng.h"

namespace mobile::sketch {

L0Sampler::L0Sampler(std::uint64_t seed, unsigned universeBits,
                     unsigned levels)
    : seed_(seed),
      levels_(levels == 0 ? universeBits + 1 : levels),
      scratch_(levels_) {
  cells_.resize(static_cast<std::size_t>(levels_) * kBucketsPerLevel);
  reseed(seed);
}

void L0Sampler::reseed(std::uint64_t seed) {
  // Same derivation chain as construction: hash parameters first, then one
  // fingerprint point per cell.  Assigning value-type cells reuses the
  // existing storage.
  seed_ = seed;
  std::uint64_t st = seed;
  hashA_ = util::splitmix64(st) % gf::kP61;
  if (hashA_ == 0) hashA_ = 1;
  hashB_ = util::splitmix64(st) % gf::kP61;
  bucketA_ = util::splitmix64(st) % gf::kP61;
  if (bucketA_ == 0) bucketA_ = 1;
  bucketB_ = util::splitmix64(st) % gf::kP61;
  for (auto& c : cells_) c = OneSparseCell(util::splitmix64(st));
}

unsigned L0Sampler::levelOf(std::uint64_t key) const {
  // Pairwise-independent hash to [p); the level is the number of leading
  // zero bits of the 60-bit truncation (geometric distribution).
  const std::uint64_t h =
      gf::addP61(gf::mulP61(hashA_, key % gf::kP61), hashB_) &
      ((1ULL << 60) - 1);
  unsigned level = 0;
  std::uint64_t mask = 1ULL << 59;
  while (level + 1 < levels_ && (h & mask) == 0) {
    ++level;
    mask >>= 1;
  }
  return level;
}

std::size_t L0Sampler::bucketOf(std::uint64_t key, unsigned level) const {
  const std::uint64_t h = gf::addP61(
      gf::mulP61(bucketA_, gf::addP61(key % gf::kP61, level)), bucketB_);
  return static_cast<std::size_t>(h % kBucketsPerLevel);
}

void L0Sampler::update(std::uint64_t key, std::int64_t freq) {
  assert(key < gf::kP61);
  const unsigned topLevel = levelOf(key);
  // Key participates in all levels <= its sampled level (nested sampling).
  // One cell per level, each with its own fingerprint point: batch the
  // shared-exponent powers across the levels (gf::powP61Many) instead of
  // walking one serial squaring chain per cell.
  std::size_t n = 0;
  for (unsigned l = 0; l <= topLevel && l < levels_; ++l, ++n) {
    scratch_.idx[n] =
        static_cast<std::size_t>(l) * kBucketsPerLevel + bucketOf(key, l);
    scratch_.base[n] = cells_[scratch_.idx[n]].zPoint();
  }
  gf::powP61Many(scratch_.base.data(), n, key, scratch_.pow.data());
  for (std::size_t i = 0; i < n; ++i)
    cells_[scratch_.idx[i]].updateWithPow(key, freq, scratch_.pow[i]);
}

void L0Sampler::merge(const L0Sampler& other) {
  assert(seed_ == other.seed_ && "mergeable only with identical randomness");
  mergeCells(cells_, other.cells_);
}

std::optional<Recovered> L0Sampler::query() const {
  // Scan from the sparsest (deepest) level down; the deepest recoverable
  // cell holds a near-uniform survivor of the support.
  for (unsigned l = levels_; l-- > 0;) {
    for (std::size_t b = 0; b < kBucketsPerLevel; ++b) {
      const auto& cell =
          cells_[static_cast<std::size_t>(l) * kBucketsPerLevel + b];
      Recovered r;
      if (cell.recover(r)) return r;
    }
  }
  return std::nullopt;
}

// --- L0Bundle ---------------------------------------------------------------

L0Bundle::L0Bundle(std::uint64_t seed, Shape shape) {
  samplers_.reserve(shape.count);
  for (std::size_t h = 0; h < shape.count; ++h)
    samplers_.emplace_back(memberSeed(seed, h), kUniverseBits, shape.levels);
}

std::uint64_t L0Bundle::memberSeed(std::uint64_t seed, std::size_t h) {
  std::uint64_t st = seed ^ (std::uint64_t{0xabcdef12345678u} * (h + 1));
  return util::splitmix64(st);
}

void L0Bundle::reseed(std::uint64_t seed) {
  for (std::size_t h = 0; h < samplers_.size(); ++h)
    samplers_[h].reseed(memberSeed(seed, h));
}

void L0Bundle::merge(const L0Bundle& other) {
  assert(samplers_.size() == other.samplers_.size());
  for (std::size_t h = 0; h < samplers_.size(); ++h)
    samplers_[h].merge(other.samplers_[h]);
}

void L0Bundle::appendTo(std::vector<std::uint64_t>& out) const {
  out.reserve(out.size() + serializedWords());
  for (const auto& s : samplers_) s.appendTo(out);
}

void L0Bundle::loadWords(const std::uint64_t* words, std::size_t n) {
  assert(n == serializedWords());
  (void)n;
  const std::size_t per = samplers_[0].serializedWords();
  for (auto& s : samplers_) {
    s.loadWords(words, per);
    words += per;
  }
}

}  // namespace mobile::sketch
