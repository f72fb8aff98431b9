#include <cmath>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/stats.h"

namespace mobile::util {
namespace {

TEST(Stats, SummaryBasics) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_EQ(s.count, 4u);
}

TEST(Stats, SummaryEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, ChiSquareUniformOnPerfectCounts) {
  EXPECT_DOUBLE_EQ(chiSquareUniform({10, 10, 10, 10}), 0.0);
}

TEST(Stats, ChiSquareDetectsSkew) {
  const double skewed = chiSquareUniform({100, 0, 0, 0});
  EXPECT_GT(skewed, chiSquareCritical999(3));
}

TEST(Stats, ChiSquareCriticalGrowsWithDof) {
  EXPECT_LT(chiSquareCritical999(3), chiSquareCritical999(10));
  EXPECT_LT(chiSquareCritical999(10), chiSquareCritical999(100));
  // Sanity anchor: chi2_{0.999}(10) ~ 29.6.
  EXPECT_NEAR(chiSquareCritical999(10), 29.6, 2.0);
}

TEST(Stats, UniformSamplesPassChiSquare) {
  Rng rng(31);
  std::vector<std::uint64_t> counts(32, 0);
  for (int i = 0; i < 320000; ++i) ++counts[rng.below(32)];
  EXPECT_LT(chiSquareUniform(counts), chiSquareCritical999(31));
}

TEST(Stats, TotalVariationIdentical) {
  std::map<std::uint64_t, std::uint64_t> a{{1, 10}, {2, 10}};
  EXPECT_DOUBLE_EQ(totalVariation(a, a), 0.0);
}

TEST(Stats, TotalVariationDisjoint) {
  std::map<std::uint64_t, std::uint64_t> a{{1, 10}};
  std::map<std::uint64_t, std::uint64_t> b{{2, 10}};
  EXPECT_DOUBLE_EQ(totalVariation(a, b), 1.0);
}

TEST(Stats, TotalVariationPartial) {
  std::map<std::uint64_t, std::uint64_t> a{{1, 5}, {2, 5}};
  std::map<std::uint64_t, std::uint64_t> b{{1, 10}};
  EXPECT_DOUBLE_EQ(totalVariation(a, b), 0.5);
}

TEST(Stats, LogLogSlopeRecoversExponent) {
  // y = x^2 -> slope 2.
  std::vector<double> x{2, 4, 8, 16, 32};
  std::vector<double> y;
  for (const double xi : x) y.push_back(xi * xi);
  EXPECT_NEAR(logLogSlope(x, y), 2.0, 1e-9);
}

TEST(Stats, LogLogSlopeLinear) {
  std::vector<double> x{2, 4, 8, 16};
  std::vector<double> y{6, 12, 24, 48};
  EXPECT_NEAR(logLogSlope(x, y), 1.0, 1e-9);
}

}  // namespace
}  // namespace mobile::util
