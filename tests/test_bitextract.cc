// Theorem 2.1 (Chor et al.): the Vandermonde extractor is (t, k)-resilient
// -- outputs are perfectly uniform and independent of any t adversary-known
// inputs, provided the rest are uniform.  Checked on the matrix form of
// tests/bit_extract_oracle.h, the reference compile::KeyPool is tested
// against in tests/test_keypool.cc.
#include <map>

#include <gtest/gtest.h>

#include "bit_extract_oracle.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mobile::gf {
namespace {

using bit_extract_oracle::BitExtractor;

TEST(BitExtract, Dimensions) {
  const BitExtractor ex(10, 3);
  EXPECT_EQ(ex.inputs(), 10u);
  EXPECT_EQ(ex.outputs(), 7u);
}

TEST(BitExtract, DeterministicGivenInputs) {
  const BitExtractor ex(6, 2);
  std::vector<F16> x{F16(1), F16(2), F16(3), F16(4), F16(5), F16(6)};
  EXPECT_EQ(ex.extract(x), ex.extract(x));
}

/// Statistical resilience check: fix t adversary-controlled symbols to
/// arbitrary constants, draw the rest uniformly, and verify each output
/// coordinate's low nibble is chi-square-uniform.
class BitExtractResilience
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BitExtractResilience, OutputsUniformGivenAdversaryKnowledge) {
  const auto [n, t] = GetParam();
  const BitExtractor ex(static_cast<std::size_t>(n),
                        static_cast<std::size_t>(t));
  util::Rng rng(1000 + static_cast<std::uint64_t>(n * 31 + t));
  const int trials = 40000;
  std::vector<std::vector<std::uint64_t>> counts(
      ex.outputs(), std::vector<std::uint64_t>(16, 0));
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<F16> x(static_cast<std::size_t>(n));
    // Adversary fixes the first t symbols to hostile constants.
    for (int i = 0; i < t; ++i)
      x[static_cast<std::size_t>(i)] =
          F16(static_cast<std::uint16_t>(0xdead + i));
    for (int i = t; i < n; ++i)
      x[static_cast<std::size_t>(i)] =
          F16(static_cast<std::uint16_t>(rng.next()));
    const auto y = ex.extract(x);
    for (std::size_t j = 0; j < y.size(); ++j)
      ++counts[j][y[j].value() & 0xf];
  }
  for (std::size_t j = 0; j < counts.size(); ++j) {
    EXPECT_LT(util::chiSquareUniform(counts[j]),
              util::chiSquareCritical999(15))
        << "output " << j << " biased for (n,t)=(" << n << "," << t << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BitExtractResilience,
                         ::testing::Values(std::make_pair(4, 1),
                                           std::make_pair(6, 2),
                                           std::make_pair(8, 4),
                                           std::make_pair(12, 6),
                                           std::make_pair(16, 12)));

TEST(BitExtract, PairwiseOutputIndependence) {
  // Joint distribution of two output low-bits should be uniform on 4 cells.
  const BitExtractor ex(6, 2);
  util::Rng rng(77);
  std::vector<std::uint64_t> cells(4, 0);
  for (int trial = 0; trial < 40000; ++trial) {
    std::vector<F16> x(6);
    x[0] = F16(0xffff);
    x[1] = F16(0x1234);  // adversary-known
    for (int i = 2; i < 6; ++i)
      x[static_cast<std::size_t>(i)] =
          F16(static_cast<std::uint16_t>(rng.next()));
    const auto y = ex.extract(x);
    cells[static_cast<std::size_t>((y[0].value() & 1) * 2 +
                                   (y[1].value() & 1))]++;
  }
  EXPECT_LT(util::chiSquareUniform(cells), util::chiSquareCritical999(3));
}

TEST(BitExtract, AdversaryValueDoesNotShiftOutputs) {
  // Two different adversary choices must induce the same output
  // distribution (we compare empirical TV distance; should be tiny).
  const BitExtractor ex(5, 1);
  util::Rng rng(88);
  std::map<std::uint64_t, std::uint64_t> distA, distB;
  for (int trial = 0; trial < 30000; ++trial) {
    std::vector<F16> xa(5), xb(5);
    xa[0] = F16(0x0001);
    xb[0] = F16(0xbeef);
    for (int i = 1; i < 5; ++i) {
      xa[static_cast<std::size_t>(i)] =
          F16(static_cast<std::uint16_t>(rng.next()));
      xb[static_cast<std::size_t>(i)] =
          F16(static_cast<std::uint16_t>(rng.next()));
    }
    ++distA[ex.extract(xa)[0].value() & 0xf];
    ++distB[ex.extract(xb)[0].value() & 0xf];
  }
  EXPECT_LT(util::totalVariation(distA, distB), 0.05);
}

}  // namespace
}  // namespace mobile::gf
