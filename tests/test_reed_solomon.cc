#include <gtest/gtest.h>

#include "coding/reed_solomon.h"
#include "rs_oracle.h"
#include "util/rng.h"

namespace mobile::coding {
namespace {

using gf::F16;

std::vector<F16> randomMessage(util::Rng& rng, std::size_t ell) {
  std::vector<F16> m(ell);
  for (auto& s : m) s = F16(static_cast<std::uint16_t>(rng.next()));
  return m;
}

TEST(ReedSolomon, Parameters) {
  const ReedSolomon rs(4, 12);
  EXPECT_EQ(rs.messageLength(), 4u);
  EXPECT_EQ(rs.blockLength(), 12u);
  EXPECT_EQ(rs.maxErrors(), 4u);
  EXPECT_NEAR(rs.relativeDistance(), 9.0 / 12.0, 1e-12);
}

TEST(ReedSolomon, CleanRoundTrip) {
  util::Rng rng(1);
  const ReedSolomon rs(5, 15);
  for (int trial = 0; trial < 50; ++trial) {
    const auto msg = randomMessage(rng, 5);
    const auto code = rs.encode(msg);
    const auto back = rs.decode(code);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, msg);
  }
}

class RsErrorSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RsErrorSweep, CorrectsUpToRadius) {
  const auto [ell, k] = GetParam();
  const ReedSolomon rs(static_cast<std::size_t>(ell),
                       static_cast<std::size_t>(k));
  util::Rng rng(static_cast<std::uint64_t>(ell * 131 + k));
  for (std::size_t e = 0; e <= rs.maxErrors(); ++e) {
    for (int trial = 0; trial < 8; ++trial) {
      const auto msg = randomMessage(rng, static_cast<std::size_t>(ell));
      auto word = rs.encode(msg);
      // Corrupt exactly e distinct coordinates with guaranteed changes.
      const auto hit = rng.sampleDistinct(word.size(), e);
      for (const auto i : hit)
        word[i] = word[i] + F16(static_cast<std::uint16_t>(
                               1 + rng.next() % 65535));
      const auto back = rs.decode(word);
      ASSERT_TRUE(back.has_value())
          << "undecodable at e=" << e << " (ell=" << ell << ", k=" << k << ")";
      EXPECT_EQ(*back, msg);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RsErrorSweep,
                         ::testing::Values(std::make_tuple(1, 5),
                                           std::make_tuple(2, 8),
                                           std::make_tuple(3, 9),
                                           std::make_tuple(4, 16),
                                           std::make_tuple(8, 24),
                                           std::make_tuple(10, 30)));

TEST(ReedSolomon, DetectsOverloadOrMiscorrects) {
  // Beyond the unique decoding radius, decode may fail or return a wrong
  // codeword, but must never return a non-codeword.
  const ReedSolomon rs(3, 9);
  util::Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const auto msg = randomMessage(rng, 3);
    auto word = rs.encode(msg);
    for (std::size_t i = 0; i < 7; ++i)  // way beyond radius 3
      word[i] = F16(static_cast<std::uint16_t>(rng.next()));
    const auto back = rs.decode(word);
    if (back.has_value()) {
      const auto reencoded = rs.encode(*back);
      EXPECT_LE(ReedSolomon::hamming(reencoded, word), rs.maxErrors());
    }
  }
}

TEST(ReedSolomon, HammingDistance) {
  const std::vector<F16> a{F16(1), F16(2), F16(3)};
  const std::vector<F16> b{F16(1), F16(9), F16(3)};
  EXPECT_EQ(ReedSolomon::hamming(a, b), 1u);
  EXPECT_EQ(ReedSolomon::hamming(a, a), 0u);
}

TEST(ReedSolomon, MinimumDistanceWitness) {
  // Two distinct messages must differ in >= k - ell + 1 coordinates.
  const ReedSolomon rs(3, 10);
  util::Rng rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    auto m1 = randomMessage(rng, 3);
    auto m2 = randomMessage(rng, 3);
    if (m1 == m2) continue;
    EXPECT_GE(ReedSolomon::hamming(rs.encode(m1), rs.encode(m2)), 8u);
  }
}

TEST(ReedSolomon, ZeroMessage) {
  const ReedSolomon rs(4, 8);
  const std::vector<F16> zero(4, F16(0));
  auto word = rs.encode(zero);
  for (const auto s : word) EXPECT_EQ(s, F16(0));
  word[2] = F16(5);
  word[6] = F16(7);
  const auto back = rs.decode(word);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, zero);
}

TEST(ReedSolomon, SyndromeMatchesBerlekampWelchDifferential) {
  // The syndrome fast path and the Berlekamp-Welch oracle must have the
  // SAME accept/reject set and return the same message on accept -- that
  // is the contract that lets decode() run the syndrome path alone.  10k
  // randomized trials across code shapes (including the (5, 16) shape of
  // the DmCodec on a k = 16 clique), with error
  // weights sweeping from clean words through the unique decoding radius
  // to well beyond it (where both decoders may accept a *different*
  // codeword than the transmitted one, but must still agree with each
  // other).
  util::Rng rng(0x5d1f);
  std::vector<ReedSolomon> codes;
  for (const auto& [ell, k] : {std::pair<std::size_t, std::size_t>{1, 5},
                               {2, 8},
                               {3, 9},
                               {4, 12},
                               {5, 15},
                               {5, 16},
                               {8, 20}})
    codes.emplace_back(ell, k);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 10000; ++trial) {
    const ReedSolomon& rs = codes[static_cast<std::size_t>(trial) %
                                  codes.size()];
    const auto msg = randomMessage(rng, rs.messageLength());
    auto word = rs.encode(msg);
    // Error weight 0..maxErrors+3 (clamped to k): roughly half the trials
    // land beyond the radius, so the reject sets get real coverage too.
    const std::size_t eCap = std::min(rs.blockLength(), rs.maxErrors() + 3);
    const std::size_t e = rng.next() % (eCap + 1);
    const auto hit = rng.sampleDistinct(word.size(), e);
    for (const auto i : hit)
      word[i] =
          word[i] + F16(static_cast<std::uint16_t>(1 + rng.next() % 65535));
    const auto fast = rs.decode(word);
    const auto oracle = decodeBW(rs, word);
    ASSERT_EQ(fast.has_value(), oracle.has_value())
        << "accept/reject split at trial " << trial << " (ell="
        << rs.messageLength() << ", k=" << rs.blockLength() << ", e=" << e
        << "): syndrome=" << fast.has_value() << " bw=" << oracle.has_value();
    if (fast.has_value()) {
      ASSERT_EQ(*fast, *oracle)
          << "decoded messages diverge at trial " << trial << " (ell="
          << rs.messageLength() << ", k=" << rs.blockLength() << ", e=" << e
          << ")";
      if (e <= rs.maxErrors()) {
        EXPECT_EQ(*fast, msg);
      }
      ++accepted;
    } else {
      EXPECT_GT(e, rs.maxErrors());
      ++rejected;
    }
  }
  // The sweep must actually exercise both outcomes.
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(rejected, 1000);
}

}  // namespace
}  // namespace mobile::coding
