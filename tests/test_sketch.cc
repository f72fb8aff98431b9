#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gf/fp61.h"
#include "sketch/l0sampler.h"
#include "sketch/onesparse.h"
#include "sketch/sparse_recovery.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mobile::sketch {
namespace {

/// The sketch's wire form, through the zero-alloc scratch surface.
template <class Sketch>
std::vector<std::uint64_t> wordsOf(const Sketch& s) {
  std::vector<std::uint64_t> words;
  s.appendTo(words);
  return words;
}

TEST(OneSparse, RecoverSingleton) {
  OneSparseCell cell(12345);
  cell.update(42, 3);
  Recovered r;
  ASSERT_TRUE(cell.recover(r));
  EXPECT_EQ(r.key, 42u);
  EXPECT_EQ(r.frequency, 3);
}

TEST(OneSparse, NegativeFrequencySingleton) {
  OneSparseCell cell(999);
  cell.update(17, -2);
  Recovered r;
  ASSERT_TRUE(cell.recover(r));
  EXPECT_EQ(r.key, 17u);
  EXPECT_EQ(r.frequency, -2);
}

TEST(OneSparse, CancellationLeavesEmpty) {
  OneSparseCell cell(5);
  cell.update(100, 1);
  cell.update(100, -1);
  EXPECT_TRUE(cell.empty());
  Recovered r;
  EXPECT_FALSE(cell.recover(r));
}

TEST(OneSparse, RejectsTwoKeys) {
  util::Rng rng(3);
  int falsePositives = 0;
  for (int i = 0; i < 2000; ++i) {
    OneSparseCell cell(rng.next());
    cell.update(1, 1);
    cell.update(2, 1);
    Recovered r;
    if (cell.recover(r)) ++falsePositives;
  }
  EXPECT_EQ(falsePositives, 0);
}

TEST(OneSparse, MergeEqualsCombinedStream) {
  OneSparseCell a(77), b(77), c(77);
  a.update(5, 2);
  b.update(5, -1);
  c.update(5, 2);
  c.update(5, -1);
  a.merge(b);
  Recovered ra, rc;
  ASSERT_TRUE(a.recover(ra));
  ASSERT_TRUE(c.recover(rc));
  EXPECT_EQ(ra.key, rc.key);
  EXPECT_EQ(ra.frequency, rc.frequency);
}

TEST(OneSparse, MergeWordsMatchesCellMerge) {
  // Words of any value, canonical or not (a forged hop carries such), merge
  // exactly as the cells they load into.
  util::Rng rng(31);
  std::vector<OneSparseCell> into(40), from(40);
  std::vector<std::uint64_t> intoWords, fromWords;
  for (int i = 0; i < 40 * 3; ++i) {
    intoWords.push_back(rng.next() >> (i % 4));
    fromWords.push_back(rng.next() >> (i % 3));
  }
  loadCells(into, intoWords.data(), intoWords.size());
  loadCells(from, fromWords.data(), fromWords.size());
  mergeCells(into, from);
  std::vector<std::uint64_t> want;
  appendCells(into, want);
  mergeWords(intoWords, fromWords);
  EXPECT_EQ(intoWords, want);
}

TEST(L0Sampler, SamplesFromSupport) {
  util::Rng rng(11);
  int successes = 0;
  for (int trial = 0; trial < 200; ++trial) {
    L0Sampler s(rng.next(), 60, 14);
    std::set<std::uint64_t> support;
    for (int i = 0; i < 10; ++i) {
      const std::uint64_t key = rng.next() % ((1ULL << 60) - 1);
      support.insert(key);
      s.update(key, 1);
    }
    const auto r = s.query();
    if (r.has_value()) {
      EXPECT_TRUE(support.count(r->key)) << "sampled a non-member";
      ++successes;
    }
  }
  EXPECT_GT(successes, 170);  // query succeeds w.h.p.
}

TEST(L0Sampler, EmptyStreamYieldsNothing) {
  L0Sampler s(1, 60, 14);
  EXPECT_FALSE(s.query().has_value());
  s.update(9, 1);
  s.update(9, -1);
  EXPECT_FALSE(s.query().has_value());
}

TEST(L0Sampler, MergeMatchesCombined) {
  const std::uint64_t seed = 4242;
  L0Sampler a(seed, 60, 14), b(seed, 60, 14), c(seed, 60, 14);
  a.update(1, 1);
  a.update(2, 1);
  b.update(2, -1);
  b.update(3, 5);
  c.update(1, 1);
  c.update(2, 1);
  c.update(2, -1);
  c.update(3, 5);
  a.merge(b);
  EXPECT_EQ(wordsOf(a), wordsOf(c));
}

TEST(L0Sampler, SerializeRoundTrip) {
  L0Sampler s(99, 60, 14);
  s.update(1234, 2);
  s.update(777, -1);
  const auto words = wordsOf(s);
  L0Sampler back(99, 60, 14);
  back.loadWords(words.data(), words.size());
  EXPECT_EQ(wordsOf(back), words);
  const auto r1 = s.query();
  const auto r2 = back.query();
  ASSERT_EQ(r1.has_value(), r2.has_value());
  if (r1) {
    EXPECT_EQ(r1->key, r2->key);
  }
}

TEST(L0Sampler, NearUniformSampling) {
  // Over independent seeds, each of 8 support elements should be sampled
  // roughly equally (Theorem 3.4's uniformity).
  util::Rng rng(13);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 8; ++i)
    keys.push_back(1000 + static_cast<std::uint64_t>(i));
  std::map<std::uint64_t, std::uint64_t> counts;
  int total = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    L0Sampler s(rng.next(), 60, 14);
    for (const auto k : keys) s.update(k, 1);
    const auto r = s.query();
    if (r) {
      ++counts[r->key];
      ++total;
    }
  }
  ASSERT_GT(total, 5000);
  std::vector<std::uint64_t> c;
  for (const auto k : keys) c.push_back(counts[k]);
  // Allow generous slack: the sampler is "near" uniform (1/N +- eps).
  for (const auto count : c) {
    EXPECT_GT(count, static_cast<std::uint64_t>(total) / 8 / 4);
    EXPECT_LT(count, static_cast<std::uint64_t>(total) * 4 / 8);
  }
}

TEST(SparseRecovery, RecoversFullSupport) {
  util::Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    SparseRecovery s(rng.next(), 8);
    std::map<std::uint64_t, std::int64_t> truth;
    for (int i = 0; i < 6; ++i) {
      const std::uint64_t key = rng.next() % ((1ULL << 59));
      const std::int64_t f = static_cast<std::int64_t>(rng.range(1, 5));
      truth[key] += f;
      s.update(key, f);
    }
    const auto rec = s.recoverAll();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->size(), truth.size());
    for (const auto& r : *rec) {
      ASSERT_TRUE(truth.count(r.key));
      EXPECT_EQ(truth[r.key], r.frequency);
    }
  }
}

TEST(SparseRecovery, CancellationToEmpty) {
  SparseRecovery s(5, 4);
  s.update(10, 3);
  s.update(10, -3);
  const auto rec = s.recoverAll();
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(rec->empty());
}

TEST(SparseRecovery, OverloadDetected) {
  util::Rng rng(19);
  int silentFailures = 0;
  for (int trial = 0; trial < 30; ++trial) {
    SparseRecovery s(rng.next(), 4);
    std::set<std::uint64_t> truth;
    for (int i = 0; i < 64; ++i) {  // 16x the sparsity budget
      const std::uint64_t key = rng.next() % (1ULL << 59);
      truth.insert(key);
      s.update(key, 1);
    }
    const auto rec = s.recoverAll();
    if (rec.has_value() && rec->size() != truth.size()) {
      ++silentFailures;  // returned a wrong support without failing
    }
  }
  EXPECT_EQ(silentFailures, 0);
}

TEST(SparseRecovery, MergeMatchesCombined) {
  const std::uint64_t seed = 31337;
  SparseRecovery a(seed, 8), b(seed, 8), c(seed, 8);
  a.update(1, 1);
  b.update(2, 2);
  b.update(1, -1);
  c.update(1, 1);
  c.update(2, 2);
  c.update(1, -1);
  a.merge(b);
  EXPECT_EQ(wordsOf(a), wordsOf(c));
  const auto rec = a.recoverAll();
  ASSERT_TRUE(rec.has_value());
  ASSERT_EQ(rec->size(), 1u);
  EXPECT_EQ((*rec)[0].key, 2u);
  EXPECT_EQ((*rec)[0].frequency, 2);
}

TEST(SparseRecovery, SerializeRoundTrip) {
  SparseRecovery s(8888, 6);
  s.update(5, 1);
  s.update(6, 2);
  const auto words = wordsOf(s);
  SparseRecovery back(8888, 6, 6);
  back.loadWords(words.data(), words.size());
  EXPECT_EQ(wordsOf(back), words);
}

TEST(Sketches, ShapeGivesTheWireSize) {
  for (const SparseRecovery::Shape shape :
       {SparseRecovery::Shape{0, 1}, SparseRecovery::Shape{8, 5}})
    EXPECT_EQ(SparseRecovery::serializedWords(shape),
              SparseRecovery(1, shape).serializedWords());
  for (const L0Bundle::Shape shape :
       {L0Bundle::Shape{1, 0}, L0Bundle::Shape{5, 14}})
    EXPECT_EQ(L0Bundle::serializedWords(shape),
              L0Bundle(1, shape).serializedWords());
}

// --- L0Bundle's batched ingest ---------------------------------------------

/// An L0 bundle by the derivation of l0sampler.cc written out cell by cell:
/// sampler h is seeded splitmix64(seed ^ 0xabcdef12345678 * (h + 1)) and
/// draws its level hash, its bucket hash and then one point per cell from
/// that seed's splitmix64 stream; a key feeds, at every level up to its
/// sampled one, one bucket's cell through OneSparseCell::update, that is
/// one serial gf::powP61 per cell.
class ReferenceBundle {
 public:
  ReferenceBundle(std::uint64_t seed, L0Bundle::Shape shape)
      : levels_(shape.levels) {
    for (std::size_t h = 0; h < shape.count; ++h) {
      std::uint64_t st = seed ^ (std::uint64_t{0xabcdef12345678u} * (h + 1));
      st = util::splitmix64(st);
      Sampler s;
      s.seed = st;
      s.hashA = std::max<std::uint64_t>(util::splitmix64(st) % gf::kP61, 1);
      s.hashB = util::splitmix64(st) % gf::kP61;
      s.bucketA = std::max<std::uint64_t>(util::splitmix64(st) % gf::kP61, 1);
      s.bucketB = util::splitmix64(st) % gf::kP61;
      for (std::size_t c = 0; c < std::size_t{levels_} * 3; ++c)
        s.cells.emplace_back(util::splitmix64(st));
      samplers_.push_back(std::move(s));
    }
  }

  void update(std::uint64_t key, std::int64_t freq) {
    for (Sampler& s : samplers_) {
      const std::uint64_t h =
          gf::addP61(gf::mulP61(s.hashA, key), s.hashB) & ((1ULL << 60) - 1);
      unsigned top = 0;
      while (top + 1 < levels_ && (h & (1ULL << (59 - top))) == 0) ++top;
      for (unsigned l = 0; l <= top; ++l) {
        const std::uint64_t b =
            gf::addP61(gf::mulP61(s.bucketA, gf::addP61(key, l)), s.bucketB) %
            3;
        s.cells[l * 3 + b].update(key, freq);
      }
    }
  }

  /// Sampler h's seed: a standalone L0Sampler of it matches sampler h.
  [[nodiscard]] std::uint64_t seedOf(std::size_t h) const {
    return samplers_[h].seed;
  }
  [[nodiscard]] std::vector<std::uint64_t> words() const {
    std::vector<std::uint64_t> out;
    for (const Sampler& s : samplers_) appendCells(s.cells, out);
    return out;
  }
  [[nodiscard]] std::vector<std::uint64_t> words(std::size_t h) const {
    std::vector<std::uint64_t> out;
    appendCells(samplers_[h].cells, out);
    return out;
  }

 private:
  struct Sampler {
    std::uint64_t seed = 0, hashA = 0, hashB = 0, bucketA = 0, bucketB = 0;
    std::vector<OneSparseCell> cells;  // [level][bucket]
  };
  unsigned levels_;
  std::vector<Sampler> samplers_;
};

/// Edge keys of the exponent: 0, 1, the largest key below p, keys with
/// every bit 32..58 set (where encodeKey puts the sender, receiver and
/// chunk), and random keys over those bits.
std::vector<std::pair<std::uint64_t, std::int64_t>> edgeEntries() {
  const std::uint64_t high = ((1ULL << 59) - 1) & ~((1ULL << 32) - 1);
  std::vector<std::pair<std::uint64_t, std::int64_t>> entries = {
      {0, 1},         {1, 2},         {gf::kP61 - 1, -1},
      {high, 1},      {high | 1, -3}, {high | 0xffffffffu, 1},
      {1ULL << 58, 1}, {1ULL << 32, -1}};
  util::Rng rng(29);
  for (int i = 0; i < 40; ++i)
    entries.emplace_back(rng.next() % (1ULL << 59),
                         static_cast<std::int64_t>(i % 5) - 2);
  entries.emplace_back(1, -2);  // a key again: its cells are cached
  return entries;
}

TEST(L0Bundle, BatchedIngestMatchesPerCellPowers) {
  for (const L0Bundle::Shape shape :
       {L0Bundle::Shape{5, 14}, L0Bundle::Shape{3, 61},
        L0Bundle::Shape{1, 2}}) {
    L0Bundle bundle(0xb0b, shape);
    ReferenceBundle ref(0xb0b, shape);
    for (const auto& [key, freq] : edgeEntries()) {
      bundle.update(key, freq);
      ref.update(key, freq);
      ASSERT_EQ(wordsOf(bundle), ref.words())
          << "shape {" << shape.count << ", " << shape.levels << "} key "
          << key;
    }
    // A standalone sampler runs the same gather and power code.
    for (std::size_t h = 0; h < shape.count; ++h) {
      L0Sampler one(ref.seedOf(h), 60, shape.levels);
      for (const auto& [key, freq] : edgeEntries()) one.update(key, freq);
      EXPECT_EQ(wordsOf(one), ref.words(h)) << h;
    }
  }
}

TEST(L0Bundle, ReseedDropsCachedChains) {
  // One object through seeds A, B, A, each state compared with a fresh
  // bundle fed the same entries: a chain cached under one seed's points
  // must never serve another's.
  const L0Bundle::Shape shape{5, 14};
  constexpr std::uint64_t kA = 0xa, kB = 0xb;
  const auto entries = edgeEntries();
  const auto fresh = [&](std::uint64_t seed, std::size_t from,
                         std::size_t to) {
    L0Bundle b(seed, shape);
    for (std::size_t i = from; i < to; ++i)
      b.update(entries[i].first, entries[i].second);
    return wordsOf(b);
  };
  const std::size_t half = entries.size() / 2;
  L0Bundle s(kA, shape);
  for (const auto& [key, freq] : entries) s.update(key, freq);
  EXPECT_EQ(wordsOf(s), fresh(kA, 0, entries.size()));

  s.reseed(kB);
  for (std::size_t i = 0; i < half; ++i)
    s.update(entries[i].first, entries[i].second);
  EXPECT_EQ(wordsOf(s), fresh(kB, 0, half));
  // Loading a wire form keeps the points, and so the chains.
  const auto second = fresh(kB, half, entries.size());
  s.loadWords(second.data(), second.size());
  for (std::size_t i = 0; i < half; ++i)
    s.update(entries[i].first, entries[i].second);
  EXPECT_EQ(wordsOf(s), fresh(kB, 0, entries.size()));

  s.reseed(kA);
  for (const auto& [key, freq] : entries) s.update(key, freq);
  EXPECT_EQ(wordsOf(s), fresh(kA, 0, entries.size()));
}

}  // namespace
}  // namespace mobile::sketch
