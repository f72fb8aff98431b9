// Randomized equivalence tests pinning every gf/ slab kernel against
// per-element F16 arithmetic: thousands of random spans covering empty
// spans, odd lengths, lengths on both sides of the kSlabCutover switch
// between the log/antilog loop and the split-nibble table loop, c = 0,
// both the MulTable and the adaptive F16-constant forms, and the aliased
// dst == src case the kernels' contract allows.  The flat matrix solvers
// are pinned against a straight transcription of the historical
// vector<vector<F16>> Gaussian eliminations, pivot order included, so
// RS/Vandermonde behavior stays bit-identical.
#include "gf/slab.h"

#include <vector>

#include <gtest/gtest.h>

#include "coding/reed_solomon.h"
#include "gf/fp61.h"
#include "gf/vandermonde.h"
#include "util/rng.h"

namespace mobile {
namespace {

using gf::F16;
using gf::MulTable;

F16 rnd(util::Rng& rng) {
  return F16(static_cast<std::uint16_t>(rng.next()));
}

std::vector<std::uint16_t> randomSpan(util::Rng& rng, std::size_t n) {
  std::vector<std::uint16_t> v(n);
  for (auto& w : v) w = static_cast<std::uint16_t>(rng.next());
  return v;
}

/// Span length for trial i: sweeps 0..31 (empty, odd, straddling the
/// kSlabCutover boundary) plus occasional larger spans.
std::size_t lengthFor(util::Rng& rng, int i) {
  if (i % 7 == 0) return 33 + rng.next() % 200;
  return rng.next() % 32;
}

TEST(GfSlab, MulTableMatchesFieldMultiply) {
  util::Rng rng(0x51ab);
  for (int i = 0; i < 64; ++i) {
    const F16 c = rnd(rng);
    const MulTable table(c);
    EXPECT_EQ(table.constant(), c);
    for (int j = 0; j < 256; ++j) {
      const F16 x = rnd(rng);
      EXPECT_EQ(table.mul(x.value()), (c * x).value());
    }
    // Boundary values.
    EXPECT_EQ(table.mul(0), 0);
    EXPECT_EQ(table.mul(0xffff), (c * F16(0xffff)).value());
  }
}

TEST(GfSlab, AddScaledMatchesScalarReference) {
  util::Rng rng(0xa11);
  for (int i = 0; i < 10000; ++i) {
    const std::size_t n = lengthFor(rng, i);
    const F16 c = (i % 5 == 0) ? F16(0) : rnd(rng);
    std::vector<std::uint16_t> dst = randomSpan(rng, n);
    const std::vector<std::uint16_t> src = randomSpan(rng, n);
    std::vector<std::uint16_t> expect = dst;
    for (std::size_t j = 0; j < n; ++j)
      expect[j] = (F16(expect[j]) + c * F16(src[j])).value();
    // Adaptive F16-constant form.
    std::vector<std::uint16_t> got = dst;
    gf::addScaledSlab(got.data(), c, src.data(), n);
    EXPECT_EQ(got, expect);
    // Explicit table form.
    got = dst;
    gf::addScaledSlab(got.data(), MulTable(c), src.data(), n);
    EXPECT_EQ(got, expect);
  }
}

TEST(GfSlab, MulSlabMatchesScalarReference) {
  util::Rng rng(0xb22);
  for (int i = 0; i < 10000; ++i) {
    const std::size_t n = lengthFor(rng, i);
    const F16 c = (i % 5 == 0) ? F16(0) : rnd(rng);
    const std::vector<std::uint16_t> src = randomSpan(rng, n);
    std::vector<std::uint16_t> expect(n);
    for (std::size_t j = 0; j < n; ++j)
      expect[j] = (c * F16(src[j])).value();
    std::vector<std::uint16_t> got(n, 0x5a5a);
    gf::mulSlab(got.data(), c, src.data(), n);
    EXPECT_EQ(got, expect);
    got.assign(n, 0x5a5a);
    gf::mulSlab(got.data(), MulTable(c), src.data(), n);
    EXPECT_EQ(got, expect);
  }
}

TEST(GfSlab, AliasedDstEqualsSrc) {
  // The aliasing contract: dst == src is allowed for every kernel.
  util::Rng rng(0xc33);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t n = lengthFor(rng, i);
    const F16 c = rnd(rng);
    const std::vector<std::uint16_t> orig = randomSpan(rng, n);

    std::vector<std::uint16_t> buf = orig;
    gf::addScaledSlab(buf.data(), c, buf.data(), n);  // x ^= c*x
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(buf[j], (F16(orig[j]) + c * F16(orig[j])).value());

    buf = orig;
    gf::mulSlab(buf.data(), c, buf.data(), n);  // x = c*x
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(buf[j], (c * F16(orig[j])).value());

    buf = orig;
    gf::addSlab(buf.data(), buf.data(), n);  // x ^= x == 0
    for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(buf[j], 0);
  }
}

TEST(GfSlab, AddAndDot) {
  util::Rng rng(0xd44);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t n = lengthFor(rng, i);
    const std::vector<std::uint16_t> a = randomSpan(rng, n);
    const std::vector<std::uint16_t> b = randomSpan(rng, n);
    std::vector<std::uint16_t> sum = a;
    gf::addSlab(sum.data(), b.data(), n);
    F16 dotRef(0);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(sum[j], (F16(a[j]) + F16(b[j])).value());
      dotRef += F16(a[j]) * F16(b[j]);
    }
    EXPECT_EQ(gf::dotSlab(a.data(), b.data(), n), dotRef);
  }
}

TEST(GfSlab, PowP61ManyMatchesPowP61) {
  // Includes batch sizes past gf::kPowBatch so the chunked tail (lo >=
  // kPowBatch, remainder m < kPowBatch) is exercised, not just the
  // single-chunk path the sketches use.
  util::Rng rng(0x9d77);
  for (const std::size_t n : {0u, 1u, 7u, 16u, 17u, 40u, 61u}) {
    std::vector<std::uint64_t> bases(n);
    for (auto& b : bases) b = rng.next();
    const std::uint64_t exps[] = {0, 1, rng.next() % (1ULL << 60),
                                  gf::kP61 - 2};
    for (const std::uint64_t e : exps) {
      std::vector<std::uint64_t> got(n, ~0ULL);
      gf::powP61Many(bases.data(), n, e, got.data());
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(got[i], gf::powP61(bases[i], e)) << "n=" << n << " i=" << i;
    }
  }
}

// --- flat solver equivalence -------------------------------------------------
// Straight transcriptions of the pre-slab vector<vector<F16>> eliminations
// (same pivot order), so the in-place solvers are pinned to the historical
// behavior on regular, singular, rectangular and inconsistent systems.

std::vector<F16> referenceSolveLinear(std::vector<std::vector<F16>> a,
                                      std::vector<F16> b) {
  const std::size_t n = a.size();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    while (pivot < n && a[pivot][col].isZero()) ++pivot;
    if (pivot == n) return {};
    std::swap(a[pivot], a[col]);
    std::swap(b[pivot], b[col]);
    const F16 inv = a[col][col].inverse();
    for (std::size_t j = col; j < n; ++j) a[col][j] *= inv;
    b[col] *= inv;
    for (std::size_t row = 0; row < n; ++row) {
      if (row == col || a[row][col].isZero()) continue;
      const F16 factor = a[row][col];
      for (std::size_t j = col; j < n; ++j) a[row][j] += factor * a[col][j];
      b[row] += factor * b[col];
    }
  }
  return b;
}

std::vector<F16> referenceSolveLinearAny(std::vector<std::vector<F16>> a,
                                         std::vector<F16> b,
                                         std::size_t unknowns) {
  const std::size_t rows = a.size();
  std::vector<std::size_t> pivotCol;
  std::size_t rank = 0;
  for (std::size_t col = 0; col < unknowns && rank < rows; ++col) {
    std::size_t pivot = rank;
    while (pivot < rows && a[pivot][col].isZero()) ++pivot;
    if (pivot == rows) continue;
    std::swap(a[pivot], a[rank]);
    std::swap(b[pivot], b[rank]);
    const F16 inv = a[rank][col].inverse();
    for (std::size_t j = col; j < unknowns; ++j) a[rank][j] *= inv;
    b[rank] *= inv;
    for (std::size_t row = 0; row < rows; ++row) {
      if (row == rank || a[row][col].isZero()) continue;
      const F16 factor = a[row][col];
      for (std::size_t j = col; j < unknowns; ++j)
        a[row][j] += factor * a[rank][j];
      b[row] += factor * b[rank];
    }
    pivotCol.push_back(col);
    ++rank;
  }
  for (std::size_t row = rank; row < rows; ++row)
    if (!b[row].isZero()) return {};
  std::vector<F16> z(unknowns, F16(0));
  for (std::size_t r = 0; r < rank; ++r) z[pivotCol[r]] = b[r];
  return z;
}

TEST(GfSlab, SolveLinearMatchesReference) {
  util::Rng rng(0xe55);
  for (int i = 0; i < 300; ++i) {
    const std::size_t n = 1 + rng.next() % 12;
    std::vector<std::vector<F16>> a(n, std::vector<F16>(n));
    std::vector<F16> b(n);
    for (auto& row : a)
      for (auto& cell : row)
        // Sprinkle zeros so pivot search and singular cases both trigger.
        cell = (rng.next() % 4 == 0) ? F16(0) : rnd(rng);
    for (auto& cell : b) cell = rnd(rng);
    EXPECT_EQ(gf::solveLinear(a, b), referenceSolveLinear(a, b));
  }
}

TEST(GfSlab, SolveLinearAnyMatchesReference) {
  util::Rng rng(0xf66);
  for (int i = 0; i < 300; ++i) {
    const std::size_t rows = 1 + rng.next() % 10;
    const std::size_t unknowns = 1 + rng.next() % 12;
    std::vector<std::vector<F16>> a(rows, std::vector<F16>(unknowns));
    std::vector<F16> b(rows);
    for (auto& row : a)
      for (auto& cell : row)
        cell = (rng.next() % 3 == 0) ? F16(0) : rnd(rng);
    for (auto& cell : b)
      cell = (rng.next() % 4 == 0) ? F16(0) : rnd(rng);
    EXPECT_EQ(gf::solveLinearAny(a, b, unknowns),
              referenceSolveLinearAny(a, b, unknowns));
  }
}

TEST(GfSlab, RsEncodeMatchesHornerReference) {
  util::Rng rng(0x1717);
  for (const std::size_t ell : {1u, 3u, 8u, 24u}) {
    const std::size_t k = 3 * ell;
    const coding::ReedSolomon rs(ell, k);
    std::vector<F16> msg(ell);
    for (auto& s : msg) s = rnd(rng);
    const auto word = rs.encode(msg);
    ASSERT_EQ(word.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      const F16 x = F16::alpha(static_cast<std::uint32_t>(i + 1));
      F16 acc(0);
      for (std::size_t j = ell; j-- > 0;) acc = acc * x + msg[j];
      EXPECT_EQ(word[i], acc) << "ell=" << ell << " i=" << i;
    }
  }
}

TEST(GfSlab, VandermondeExtractMatchesScalarReference) {
  util::Rng rng(0x1818);
  const gf::Vandermonde m(20, 7);
  for (int i = 0; i < 100; ++i) {
    std::vector<F16> x(20);
    for (auto& s : x) s = (rng.next() % 4 == 0) ? F16(0) : rnd(rng);
    const auto y = m.applyTransposed(x);
    ASSERT_EQ(y.size(), 7u);
    for (std::size_t j = 0; j < 7; ++j) {
      F16 acc(0);
      for (std::size_t r = 0; r < 20; ++r) acc += x[r] * m.at(r, j);
      EXPECT_EQ(y[j], acc);
    }
  }
}

}  // namespace
}  // namespace mobile
