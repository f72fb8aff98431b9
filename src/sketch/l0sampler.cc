#include "sketch/l0sampler.h"

#include <bit>
#include <cassert>

#include "gf/fp61.h"
#include "util/rng.h"

namespace mobile::sketch {

L0Sampler::L0Sampler(std::uint64_t seed, unsigned universeBits,
                     unsigned levels)
    : seed_(seed),
      levels_(levels == 0 ? universeBits + 1 : levels),
      cells_(static_cast<std::size_t>(levels_) * kBucketsPerLevel),
      chains_(cells_.size() * kChainBits),
      stamps_(cells_.size(), 0) {
  reseed(seed);
}

void L0Sampler::reseed(std::uint64_t seed) {
  // Same derivation chain as construction: hash parameters first, then one
  // fingerprint point per cell.  Assigning value-type cells reuses the
  // existing storage.  The new generation invalidates every cell's chain.
  seed_ = seed;
  ++generation_;
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
  batch_.clear();
  gather(key, batch_);
  ingest(batch_, key, freq);
}

void L0Sampler::gather(std::uint64_t key, Batch& batch) {
  // Key participates in all levels <= its sampled level (nested sampling).
  const unsigned topLevel = levelOf(key);
  for (unsigned l = 0; l <= topLevel; ++l) {
    const std::size_t c =
        static_cast<std::size_t>(l) * kBucketsPerLevel + bucketOf(key, l);
    std::uint64_t* chain = chains_.data() + c * kChainBits;
    if (stamps_[c] != generation_) {
      stamps_[c] = generation_;
      chain[0] = cells_[c].zPoint();
      batch.unfilled.push_back(chain);
    }
    batch.cells.push_back(&cells_[c]);
    batch.chains.push_back(chain);
  }
}

void L0Sampler::ingest(Batch& batch, std::uint64_t key, std::int64_t freq) {
  // Every cell carries its own point z and the key is the shared exponent.
  // A lone gf::powP61 is a serial chain of ~61 dependent squarings; here a
  // cell's chain is squared once per reseed, in lockstep with the others
  // first hit by the same key, and z^key is the product of the chain
  // entries at the key's set bits, multiplied in lockstep across the
  // batch.  F_p elements are canonical, so the product is bit-identical to
  // gf::powP61(z, key).
  for (std::size_t b = 1; b < kChainBits; ++b)
    for (std::uint64_t* chain : batch.unfilled)
      chain[b] = gf::mulP61(chain[b - 1], chain[b - 1]);
  std::vector<std::uint64_t>& pows = batch.pows;
  pows.assign(batch.cells.size(), 1);
  for (std::uint64_t rem = key; rem != 0; rem &= rem - 1) {
    const auto b = static_cast<std::size_t>(std::countr_zero(rem));
    for (std::size_t i = 0; i < pows.size(); ++i)
      pows[i] = gf::mulP61(pows[i], batch.chains[i][b]);
  }
  for (std::size_t i = 0; i < pows.size(); ++i)
    batch.cells[i]->updateWithPow(key, freq, pows[i]);
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

void L0Bundle::update(std::uint64_t key, std::int64_t freq) {
  assert(key < gf::kP61);
  batch_.clear();
  for (auto& s : samplers_) s.gather(key, batch_);
  L0Sampler::ingest(batch_, key, freq);
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
